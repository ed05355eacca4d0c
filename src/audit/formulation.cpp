// ilp-formulation-rows: independent re-derivation of the derived rows the
// ILP generator adds on top of Figure 10 (compiler/ilpgen.hpp).
//
// The rows are valid for every integer point but cut the LP relaxation, so
// a wrong one could make the weak-duality certificate prove a false
// optimum. This pass rebuilds the expected set from the IR, the target and
// the model's variable bookkeeping alone, in exact rationals:
//
//   eqsize_A_i_B_j   e[A,i] − e[B,j] = 0 for live rows with the same element
//                    symbol and the same gate, B,j pinned to the first such
//                    row A,i in (register, row) order;
//   pigeon_n_wW      2W(R−S)·n + M·Σ gates ≤ M·(2R − S) for the R live rows
//                    of width W whose element symbols are tied by
//                    `assume a == b` (n the smallest of them), S < R ≤ 2S.
//
// Every shipped row carrying one of those name prefixes must equal its
// derivation exactly: same sense, same right-hand side, same coefficient on
// every variable. A row with no derivation, a duplicated name, a scaled or
// dropped coefficient or a shifted right-hand side rejects the compile.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "support/rational.hpp"
#include "verify/lint.hpp"

namespace p4all::audit {

namespace {

using support::Rat;

struct DerivedRow {
    std::map<int, Rat> coeffs;
    ilp::CmpSense sense = ilp::CmpSense::Eq;
    Rat rhs;
};

/// A live register row with a symbolic element count: its size variable
/// and the variables of its 0/1 gate (the iteration indicator of its row,
/// or the placement of its owner node for a fixed row count).
struct LiveRow {
    ir::RegisterId reg = 0;
    std::int64_t row = 0;
    int e = -1;
    std::vector<int> gate;
};

std::vector<LiveRow> live_rows(const ir::Program& prog, const compiler::GeneratedIlp& gen) {
    std::vector<LiveRow> out;
    for (const auto& [key, e] : gen.row_elems) {
        const auto owner = gen.row_owner.find(key);
        if (owner == gen.row_owner.end()) continue;  // dead row, pinned to 0
        LiveRow r{key.first, key.second, e.id, {}};
        const ir::RegisterArray& reg = prog.reg(key.first);
        if (reg.instances.symbolic()) {
            r.gate.push_back(gen.y.at({reg.instances.sym, key.second}).id);
        } else {
            for (const ilp::Var x : gen.x.at(static_cast<std::size_t>(owner->second))) {
                if (x.valid()) r.gate.push_back(x.id);
            }
        }
        std::sort(r.gate.begin(), r.gate.end());
        out.push_back(std::move(r));
    }
    return out;
}

/// Root of `v` among element symbols tied by `assume a == b` (the smallest
/// symbol id of its class).
ir::SymbolId tie_root(const std::map<ir::SymbolId, ir::SymbolId>& tied, ir::SymbolId v) {
    for (auto it = tied.find(v); it != tied.end() && it->second != v; it = tied.find(v)) {
        v = it->second;
    }
    return v;
}

std::map<ir::SymbolId, ir::SymbolId> element_ties(const ir::Program& prog) {
    std::map<ir::SymbolId, ir::SymbolId> tied;
    for (const ir::PolyConstraint& pc : prog.assumes) {
        if (pc.op != ir::CmpOp::Eq) continue;
        std::vector<ir::PolyTerm> vars;
        bool ok = true;
        for (const ir::PolyTerm& t : pc.poly.terms()) {
            if (t.degree() == 0) {
                ok = ok && t.coeff == 0.0;
                continue;
            }
            ok = ok && t.degree() == 1 && prog.symbol(t.a).role == ir::SymbolRole::ElementCount;
            vars.push_back(t);
        }
        if (!ok || vars.size() != 2 || vars[0].coeff + vars[1].coeff != 0.0) continue;
        const ir::SymbolId a = tie_root(tied, vars[0].a);
        const ir::SymbolId b = tie_root(tied, vars[1].a);
        tied[std::max(a, b)] = std::min(a, b);
    }
    return tied;
}

std::map<std::string, DerivedRow> derive_rows(const ir::Program& prog,
                                              const target::TargetSpec& target,
                                              const compiler::GeneratedIlp& gen) {
    std::map<std::string, DerivedRow> out;
    const std::vector<LiveRow> rows = live_rows(prog, gen);
    const auto label = [&](const LiveRow& r) {
        return prog.reg(r.reg).name + "_" + std::to_string(r.row);
    };

    std::map<std::pair<ir::SymbolId, std::vector<int>>, const LiveRow*> first;
    for (const LiveRow& r : rows) {
        const auto [it, inserted] = first.try_emplace({prog.reg(r.reg).elems.sym, r.gate}, &r);
        if (inserted) continue;
        DerivedRow d;
        d.coeffs[it->second->e] = Rat(1);
        d.coeffs[r.e] = Rat(-1);
        out["eqsize_" + label(*it->second) + "_" + label(r)] = std::move(d);
    }

    const std::map<ir::SymbolId, ir::SymbolId> tied = element_ties(prog);
    std::map<std::pair<ir::SymbolId, std::int64_t>, std::vector<const LiveRow*>> groups;
    for (const LiveRow& r : rows) {
        const ir::RegisterArray& reg = prog.reg(r.reg);
        groups[{tie_root(tied, reg.elems.sym), reg.width}].push_back(&r);
    }
    const Rat S(static_cast<std::int64_t>(target.stages));
    const Rat M(target.memory_bits);
    for (const auto& [key, group] : groups) {
        const Rat R(static_cast<std::int64_t>(group.size()));
        if (R <= S || R > S + S) continue;
        ir::SymbolId n = prog.reg(group.front()->reg).elems.sym;
        for (const LiveRow* r : group) n = std::min(n, prog.reg(r->reg).elems.sym);
        DerivedRow d;
        d.sense = ilp::CmpSense::Le;
        const Rat W(key.second);
        d.coeffs[gen.elem_count.at(n).id] = Rat(2) * W * (R - S);
        for (const LiveRow* r : group) {
            for (const int g : r->gate) d.coeffs[g] += M;
        }
        d.rhs = M * (R + R - S);
        out["pigeon_" + prog.symbol(n).name + "_w" + std::to_string(key.second)] = std::move(d);
    }
    return out;
}

const char* sense_name(ilp::CmpSense s) {
    switch (s) {
        case ilp::CmpSense::Le: return "<=";
        case ilp::CmpSense::Ge: return ">=";
        case ilp::CmpSense::Eq: return "=";
    }
    return "?";
}

/// Why `shipped` differs from `want`, or "" when they are the same row.
std::string compare(const ilp::Model& model, const ilp::Constraint& shipped,
                    const DerivedRow& want) {
    if (shipped.sense != want.sense) {
        return std::string("sense ") + sense_name(shipped.sense) + " is not " +
               sense_name(want.sense);
    }
    const Rat rhs = Rat::from_double(shipped.rhs) - Rat::from_double(shipped.expr.constant());
    if (rhs != want.rhs) {
        return "right-hand side " + rhs.to_string() + " is not " + want.rhs.to_string();
    }
    std::map<int, Rat> got;
    for (const auto& [id, c] : shipped.expr.terms()) got[id] += Rat::from_double(c);
    for (int j = 0; j < model.num_vars(); ++j) {
        const auto g = got.find(j);
        const auto w = want.coeffs.find(j);
        const Rat have = g != got.end() ? g->second : Rat();
        const Rat need = w != want.coeffs.end() ? w->second : Rat();
        if (have != need) {
            return "coefficient on '" + model.var_name(j) + "' is " + have.to_string() +
                   ", derived " + need.to_string();
        }
    }
    return {};
}

bool is_derived_name(const std::string& name) {
    return name.rfind("eqsize_", 0) == 0 || name.rfind("pigeon_", 0) == 0;
}

class FormulationRowsPass final : public verify::LintPass {
public:
    [[nodiscard]] std::string_view id() const noexcept override {
        return "ilp-formulation-rows";
    }
    [[nodiscard]] std::string_view description() const noexcept override {
        return "re-derives every equal-size and memory-pigeonhole row of the ILP model from "
               "the IR and the target in exact rational arithmetic and rejects any shipped "
               "row that does not match its derivation";
    }

    void run(verify::LintContext& ctx) override {
        const auto* payload = dynamic_cast<const ArtifactsPayload*>(ctx.payload());
        const compiler::CompileArtifacts* art =
            payload != nullptr ? payload->artifacts : nullptr;
        if (art == nullptr || !art->has_ilp) return;
        try {
            check(ctx, *art);
        } catch (const std::exception& e) {
            ctx.error({}, std::string("derived rows cannot be re-derived: ") + e.what());
        }
    }

private:
    static void check(verify::LintContext& ctx, const compiler::CompileArtifacts& art) {
        const ilp::Model& model = art.ilp.model;
        std::map<std::string, DerivedRow> want = derive_rows(ctx.program(), art.target, art.ilp);
        int checked = 0;
        for (const ilp::Constraint& c : model.constraints()) {
            if (!is_derived_name(c.name)) continue;
            const auto it = want.find(c.name);
            if (it == want.end()) {
                ctx.error({}, "row '" + c.name + "' has no derivation from the IR (or is "
                                                 "shipped twice)");
                continue;
            }
            const std::string why = compare(model, c, it->second);
            if (!why.empty()) {
                ctx.error({}, "row '" + c.name + "' does not match its derivation: " + why);
            }
            want.erase(it);
            ++checked;
        }
        ctx.note({}, std::to_string(checked) + " derived formulation row(s) re-derived" +
                         (want.empty() ? std::string()
                                       : "; " + std::to_string(want.size()) +
                                             " derivable row(s) not shipped"));
    }
};

}  // namespace

std::unique_ptr<verify::LintPass> make_formulation_rows_pass() {
    return std::make_unique<FormulationRowsPass>();
}

}  // namespace p4all::audit
