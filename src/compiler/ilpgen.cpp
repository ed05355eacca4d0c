#include "compiler/ilpgen.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "analysis/unroll.hpp"
#include "support/error.hpp"

namespace p4all::compiler {

using analysis::AccessSummary;
using analysis::DepGraph;
using analysis::Instance;
using ilp::LinExpr;
using ilp::Var;
using ir::kNoId;
using ir::SymbolId;
using support::CompileError;

namespace {

struct NodeCost {
    int stateful = 0;
    int stateless = 0;
    int hash = 0;
};

/// Longest Before-chain depths, giving each node its feasible stage window
/// [earliest, latest]. Weak (NotAfter) edges are ignored — the window is a
/// relaxation, never cutting feasible placements.
void compute_windows(const DepGraph& g, int stages, std::vector<int>& earliest,
                     std::vector<int>& latest) {
    const int n = g.node_count();
    earliest.assign(static_cast<std::size_t>(n), 0);
    latest.assign(static_cast<std::size_t>(n), stages - 1);

    std::vector<std::vector<int>> succ(static_cast<std::size_t>(n));
    std::vector<std::vector<int>> pred(static_cast<std::size_t>(n));
    std::vector<int> indeg(static_cast<std::size_t>(n), 0);
    for (const auto& [a, b] : g.before) {
        succ[static_cast<std::size_t>(a)].push_back(b);
        pred[static_cast<std::size_t>(b)].push_back(a);
        ++indeg[static_cast<std::size_t>(b)];
    }
    std::vector<int> order;
    std::vector<int> stack;
    std::vector<int> indeg_copy = indeg;
    for (int v = 0; v < n; ++v) {
        if (indeg_copy[static_cast<std::size_t>(v)] == 0) stack.push_back(v);
    }
    while (!stack.empty()) {
        const int v = stack.back();
        stack.pop_back();
        order.push_back(v);
        for (const int t : succ[static_cast<std::size_t>(v)]) {
            if (--indeg_copy[static_cast<std::size_t>(t)] == 0) stack.push_back(t);
        }
    }
    for (const int v : order) {
        for (const int t : succ[static_cast<std::size_t>(v)]) {
            earliest[static_cast<std::size_t>(t)] =
                std::max(earliest[static_cast<std::size_t>(t)],
                         earliest[static_cast<std::size_t>(v)] + 1);
        }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        for (const int t : succ[static_cast<std::size_t>(*it)]) {
            latest[static_cast<std::size_t>(*it)] =
                std::min(latest[static_cast<std::size_t>(*it)],
                         latest[static_cast<std::size_t>(t)] - 1);
        }
    }
}

/// A live register row whose size is the element-count variable of its
/// register's element symbol while `gate` (a 0/1 expression) is 1.
struct SizedRow {
    ir::RegisterId reg = 0;
    std::int64_t row = 0;
    Var e;
    LinExpr gate;
};

/// Gate identity: the sorted variable ids of the gate expression (every
/// gate term has coefficient 1).
std::vector<int> gate_key(const LinExpr& gate) {
    std::vector<int> ids;
    for (const auto& [id, c] : gate.terms()) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

/// eqsize_*: every row that shares an element symbol and a gate with an
/// earlier row is pinned to that first row's size.
void add_equal_size_rows(const ir::Program& prog, const std::vector<SizedRow>& sized,
                         ilp::Model& m) {
    std::map<std::pair<SymbolId, std::vector<int>>, const SizedRow*> first;
    for (const SizedRow& r : sized) {
        const auto [it, inserted] =
            first.try_emplace({prog.reg(r.reg).elems.sym, gate_key(r.gate)}, &r);
        if (inserted) continue;
        const SizedRow& a = *it->second;
        m.add_eq(LinExpr().add(a.e, 1.0).add(r.e, -1.0), 0,
                 "eqsize_" + prog.reg(a.reg).name + "_" + std::to_string(a.row) + "_" +
                     prog.reg(r.reg).name + "_" + std::to_string(r.row));
    }
}

/// pigeon_*: groups live rows by (class of element symbols tied by
/// `assume a == b`, width) and adds the memory pigeonhole row of every group
/// with S < R_max ≤ 2S (see the header). n is the group's smallest element
/// symbol; the assume rows make every other count in the group equal to it.
void add_pigeonhole_rows(const ir::Program& prog, const target::TargetSpec& target,
                         const GeneratedIlp& gen, const std::vector<SizedRow>& sized,
                         ilp::Model& m) {
    std::map<SymbolId, SymbolId> parent;
    const auto find = [&](SymbolId v) {
        while (parent.count(v) != 0 && parent[v] != v) v = parent[v];
        return v;
    };
    for (const ir::PolyConstraint& pc : prog.assumes) {
        if (pc.op != ir::CmpOp::Eq) continue;
        std::vector<ir::PolyTerm> linear;
        bool tie = true;
        for (const ir::PolyTerm& t : pc.poly.terms()) {
            if (t.degree() == 0 && t.coeff == 0.0) continue;
            tie = tie && t.degree() == 1 &&
                  prog.symbol(t.a).role == ir::SymbolRole::ElementCount;
            linear.push_back(t);
        }
        if (!tie || linear.size() != 2 || linear[0].coeff != -linear[1].coeff) continue;
        const SymbolId a = find(linear[0].a);
        const SymbolId b = find(linear[1].a);
        parent[std::max(a, b)] = std::min(a, b);
    }

    std::map<std::pair<SymbolId, std::int64_t>, std::vector<const SizedRow*>> groups;
    for (const SizedRow& r : sized) {
        const ir::RegisterArray& reg = prog.reg(r.reg);
        groups[{find(reg.elems.sym), reg.width}].push_back(&r);
    }
    const std::int64_t S = target.stages;
    const std::int64_t M = target.memory_bits;
    for (const auto& [key, rows] : groups) {
        const auto r_max = static_cast<std::int64_t>(rows.size());
        if (r_max <= S || r_max > 2 * S) continue;
        const std::int64_t w = key.second;
        SymbolId n = prog.reg(rows.front()->reg).elems.sym;
        for (const SizedRow* r : rows) n = std::min(n, prog.reg(r->reg).elems.sym);
        LinExpr e;
        e.add(gen.elem_count.at(n), static_cast<double>(2 * w * (r_max - S)));
        for (const SizedRow* r : rows) {
            for (const auto& [id, c] : r->gate.terms()) {
                e.add(Var{id}, static_cast<double>(M) * c);
            }
        }
        e.normalize();
        m.add_le(std::move(e), static_cast<double>(M * (2 * r_max - S)),
                 "pigeon_" + prog.symbol(n).name + "_w" + std::to_string(w));
    }
}

}  // namespace

GeneratedIlp generate_ilp(const ir::Program& prog, const target::TargetSpec& target,
                          const std::vector<std::int64_t>& bounds, const IlpGenOptions& options) {
    GeneratedIlp gen;
    gen.bounds = bounds;
    gen.graph = analysis::build_dep_graph(prog, target, analysis::instantiate_all(prog, bounds));
    if (gen.graph.infeasible) {
        throw CompileError("program has contradictory dependencies: " +
                           gen.graph.infeasible_reason);
    }
    const DepGraph& g = gen.graph;
    ilp::Model& m = gen.model;
    const int S = target.stages;
    const int n = g.node_count();
    const double bigM = static_cast<double>(target.memory_bits);

    // Instance summaries and per-node aggregates.
    std::vector<AccessSummary> summaries;
    summaries.reserve(g.instances.size());
    for (const Instance& inst : g.instances) summaries.push_back(summarize(prog, target, inst));
    std::vector<NodeCost> cost(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < g.instances.size(); ++i) {
        NodeCost& c = cost[static_cast<std::size_t>(g.node_of[i])];
        c.stateful += summaries[i].stateful_alus;
        c.stateless += summaries[i].stateless_alus;
        c.hash += summaries[i].hash_units;
    }

    // Register-row ownership (row -> node of any instance touching it).
    for (std::size_t i = 0; i < g.instances.size(); ++i) {
        for (const analysis::RegChunk& rc : summaries[i].regs) {
            gen.row_owner.emplace(std::make_pair(rc.reg, rc.instance), g.node_of[i]);
        }
    }

    // Stage windows.
    std::vector<int> earliest;
    std::vector<int> latest;
    if (options.stage_windows) {
        compute_windows(g, S, earliest, latest);
    } else {
        earliest.assign(static_cast<std::size_t>(n), 0);
        latest.assign(static_cast<std::size_t>(n), S - 1);
    }

    // --- x[n,s] -----------------------------------------------------------
    gen.x.assign(static_cast<std::size_t>(n), std::vector<Var>(static_cast<std::size_t>(S)));
    for (int node = 0; node < n; ++node) {
        for (int s = earliest[static_cast<std::size_t>(node)];
             s <= latest[static_cast<std::size_t>(node)]; ++s) {
            const Var xv = m.add_binary(
                "x_n" + std::to_string(node) + "_s" + std::to_string(s));
            m.set_branch_priority(xv, 2);
            gen.x[static_cast<std::size_t>(node)][static_cast<std::size_t>(s)] = xv;
        }
    }
    const auto placed_expr = [&](int node) {
        LinExpr e;
        for (int s = 0; s < S; ++s) {
            const Var v = gen.x[static_cast<std::size_t>(node)][static_cast<std::size_t>(s)];
            if (v.valid()) e.add(v, 1.0);
        }
        return e;
    };
    const auto stage_expr = [&](int node) {
        LinExpr e;
        for (int s = 0; s < S; ++s) {
            const Var v = gen.x[static_cast<std::size_t>(node)][static_cast<std::size_t>(s)];
            if (v.valid() && s > 0) e.add(v, static_cast<double>(s));
        }
        return e;
    };

    // --- y[v,i] and ordering (#16) -----------------------------------------
    for (const SymbolId v : prog.iteration_symbols()) {
        const std::int64_t uv = bounds.at(static_cast<std::size_t>(v));
        for (std::int64_t i = 0; i < uv; ++i) {
            const Var yv = m.add_binary("y_" + prog.symbol(v).name + "_" + std::to_string(i));
            m.set_branch_priority(yv, 4);
            gen.y[{v, i}] = yv;
        }
        for (std::int64_t i = 0; i + 1 < uv; ++i) {
            LinExpr e;
            e.add(gen.y[{v, i + 1}], 1.0).add(gen.y[{v, i}], -1.0);
            m.add_le(std::move(e), 0, "order_" + prog.symbol(v).name + "_" + std::to_string(i));
        }
    }

    // --- conditional / inelastic placement (#7, #15, #17) -------------------
    for (int node = 0; node < n; ++node) {
        std::set<std::pair<SymbolId, std::int64_t>> tied;
        bool inelastic = false;
        for (const int member : g.members[static_cast<std::size_t>(node)]) {
            const Instance& inst = g.instances[static_cast<std::size_t>(member)];
            const ir::CallSite& site = prog.flow[static_cast<std::size_t>(inst.call)];
            if (site.elastic()) {
                tied.insert({site.loop_bound, inst.iter});
            } else {
                inelastic = true;
            }
        }
        if (inelastic) {
            m.add_eq(placed_expr(node), 1, "place_n" + std::to_string(node));
            for (const auto& [v, i] : tied) {
                LinExpr e;
                e.add(gen.y[{v, i}], 1.0);
                m.add_eq(std::move(e), 1);
            }
        } else if (!tied.empty()) {
            for (const auto& [v, i] : tied) {
                LinExpr e = placed_expr(node);
                e.add(gen.y[{v, i}], -1.0);
                m.add_eq(std::move(e), 0,
                         "cond_n" + std::to_string(node) + "_" + prog.symbol(v).name + "_" +
                             std::to_string(i));
            }
        } else {
            m.add_le(placed_expr(node), 1);
        }
    }

    // --- dependence edges (#5, #6) ------------------------------------------
    // Exclusion edges are emitted as clique rows: Σ_{n∈clique} x[n,s] ≤ 1.
    // One row per clique per stage — fewer rows and a tighter relaxation
    // than pairwise constraints.
    for (const std::vector<int>& clique : analysis::exclusion_cliques(g)) {
        for (int s = 0; s < S; ++s) {
            LinExpr e;
            int present = 0;
            for (const int node : clique) {
                const Var xv = gen.x[static_cast<std::size_t>(node)][static_cast<std::size_t>(s)];
                if (xv.valid()) {
                    e.add(xv, 1.0);
                    ++present;
                }
            }
            if (present >= 2) {
                m.add_le(std::move(e), 1, "excl_s" + std::to_string(s));
            }
        }
    }
    const auto add_scaled = [](LinExpr& dst, const LinExpr& src, double scale) {
        for (const auto& [id, c] : src.terms()) dst.add(Var{id}, scale * c);
    };
    const auto add_order_edge = [&](int a, int b, double gap, const char* tag) {
        // stage(b) - stage(a) >= gap - S*(2 - placed(a) - placed(b))
        LinExpr e = stage_expr(b);
        add_scaled(e, stage_expr(a), -1.0);
        add_scaled(e, placed_expr(a), -static_cast<double>(S));
        add_scaled(e, placed_expr(b), -static_cast<double>(S));
        m.add_ge(std::move(e), gap - 2.0 * S,
                 std::string(tag) + "_n" + std::to_string(a) + "_n" + std::to_string(b));
    };
    for (const auto& [a, b] : g.before) add_order_edge(a, b, 1.0, "prec");
    for (const auto& [a, b] : g.not_after) add_order_edge(a, b, 0.0, "war");

    // --- ALU / hash-unit limits (#11, #12) ----------------------------------
    for (int s = 0; s < S; ++s) {
        LinExpr stateful;
        LinExpr stateless;
        LinExpr hash;
        for (int node = 0; node < n; ++node) {
            const Var xv = gen.x[static_cast<std::size_t>(node)][static_cast<std::size_t>(s)];
            if (!xv.valid()) continue;
            const NodeCost& c = cost[static_cast<std::size_t>(node)];
            if (c.stateful > 0) stateful.add(xv, c.stateful);
            if (c.stateless > 0) stateless.add(xv, c.stateless);
            if (c.hash > 0) hash.add(xv, c.hash);
        }
        if (!stateful.terms().empty()) {
            m.add_le(std::move(stateful), target.stateful_alus, "salu_s" + std::to_string(s));
        }
        if (!stateless.terms().empty()) {
            m.add_le(std::move(stateless), target.stateless_alus, "lalu_s" + std::to_string(s));
        }
        if (!hash.terms().empty()) {
            m.add_le(std::move(hash), target.hash_units, "hash_s" + std::to_string(s));
        }
    }

    // --- element counts, row sizes, memory (#8, #9, #10) ---------------------
    for (std::size_t w = 0; w < prog.symbols.size(); ++w) {
        if (prog.symbols[w].role != ir::SymbolRole::ElementCount) continue;
        const SymbolId ws = static_cast<SymbolId>(w);
        std::int64_t max_elems = target.memory_bits;  // refined below per array
        for (const ir::RegisterArray& r : prog.registers) {
            if (r.elems.symbolic() && r.elems.sym == ws) {
                max_elems = std::min(max_elems, target.memory_bits / r.width);
            }
        }
        if (const auto ub = analysis::assume_upper_bound(prog, ws)) {
            max_elems = std::min(max_elems, *ub);
        }
        std::int64_t min_elems = 1;
        if (const auto lb = analysis::assume_lower_bound(prog, ws)) {
            min_elems = std::max<std::int64_t>(1, *lb);
        }
        if (max_elems < min_elems) {
            throw CompileError("element count '" + prog.symbols[w].name +
                               "' cannot satisfy both its assume bounds and the per-stage "
                               "memory limit");
        }
        const Var ne = m.add_integer("n_" + prog.symbols[w].name,
                                     static_cast<double>(min_elems),
                                     static_cast<double>(max_elems));
        // Branch element counts right after iteration indicators: the LP
        // caps them at fractional memory limits (e.g. M/width = 54687.5),
        // and snapping them down collapses the bound onto the integral
        // optimum, closing placement-symmetric subtrees at once.
        m.set_branch_priority(ne, 3);
        gen.elem_count[ws] = ne;
    }

    // Memory per stage, accumulated while creating me / e vars.
    std::vector<LinExpr> stage_mem(static_cast<std::size_t>(S));
    std::vector<SizedRow> sized;  // live rows with a symbolic element count
    for (std::size_t ri = 0; ri < prog.registers.size(); ++ri) {
        const ir::RegisterArray& r = prog.registers[ri];
        const ir::RegisterId rid = static_cast<ir::RegisterId>(ri);
        const std::int64_t rows =
            r.instances.symbolic() ? bounds.at(static_cast<std::size_t>(r.instances.sym))
                                   : r.instances.literal;
        for (std::int64_t row = 0; row < rows; ++row) {
            const auto owner_it = gen.row_owner.find({rid, row});
            const int owner = owner_it != gen.row_owner.end() ? owner_it->second : -1;

            if (!r.elems.symbolic()) {
                // Concrete row size: memory is width·elems when placed.
                if (owner < 0) continue;  // dead row, never allocated
                const double bits = static_cast<double>(r.elems.literal * r.width);
                for (int s = 0; s < S; ++s) {
                    const Var xv =
                        gen.x[static_cast<std::size_t>(owner)][static_cast<std::size_t>(s)];
                    if (xv.valid()) stage_mem[static_cast<std::size_t>(s)].add(xv, bits);
                }
                continue;
            }

            const SymbolId ws = r.elems.sym;
            const Var ne = gen.elem_count.at(ws);
            const double ue = m.upper_bound(ne.id);
            const Var e = m.add_continuous(
                "e_" + r.name + "_" + std::to_string(row), 0, ue);
            gen.row_elems[{rid, row}] = e;

            // Gate: y[v,row] for elastic rows, placed(owner) otherwise.
            LinExpr gate;
            if (r.instances.symbolic()) {
                gate.add(gen.y.at({r.instances.sym, row}), 1.0);
            } else if (owner >= 0) {
                gate = placed_expr(owner);
            }
            if (owner < 0) {
                // Dead row: force zero so utility cannot claim free size.
                m.add_le(LinExpr().add(e, 1.0), 0);
                continue;
            }
            // e <= Ue * gate ; e <= n_e ; e >= n_e - Ue*(1 - gate)
            {
                LinExpr c1;
                c1.add(e, 1.0);
                for (const auto& [id, coeff] : gate.terms()) c1.add(Var{id}, -ue * coeff);
                m.add_le(std::move(c1), 0, "ecap_" + r.name + "_" + std::to_string(row));
            }
            {
                LinExpr c2;
                c2.add(e, 1.0).add(ne, -1.0);
                m.add_le(std::move(c2), 0);
            }
            {
                LinExpr c3;
                c3.add(e, 1.0).add(ne, -1.0);
                for (const auto& [id, coeff] : gate.terms()) c3.add(Var{id}, -ue * coeff);
                m.add_ge(std::move(c3), -ue, "esz_" + r.name + "_" + std::to_string(row));
            }

            // Exact distribution: Σ_s me[r,row,s] = width·e, me ≤ M·x[owner,s].
            // Tighter than a big-M lower bound — the LP relaxation cannot
            // claim element count without paying for it in some stage.
            LinExpr distribute;
            for (int s = 0; s < S; ++s) {
                const Var xv =
                    gen.x[static_cast<std::size_t>(owner)][static_cast<std::size_t>(s)];
                if (!xv.valid()) continue;
                const Var me = m.add_continuous(
                    "me_" + r.name + "_" + std::to_string(row) + "_s" + std::to_string(s), 0,
                    bigM);
                LinExpr cap;
                cap.add(me, 1.0).add(xv, -bigM);
                m.add_le(std::move(cap), 0);
                distribute.add(me, 1.0);
                stage_mem[static_cast<std::size_t>(s)].add(me, 1.0);
            }
            distribute.add(e, -static_cast<double>(r.width));
            m.add_eq(std::move(distribute), 0,
                     "medist_" + r.name + "_" + std::to_string(row));
            sized.push_back({rid, row, e, std::move(gate)});
        }
    }
    for (int s = 0; s < S; ++s) {
        LinExpr& e = stage_mem[static_cast<std::size_t>(s)];
        e.normalize();
        if (!e.terms().empty()) {
            m.add_le(std::move(e), static_cast<double>(target.memory_bits),
                     "mem_s" + std::to_string(s));
        }
    }
    add_equal_size_rows(prog, sized, m);
    add_pigeonhole_rows(prog, target, gen, sized, m);

    // --- PHV (#13, #14) -------------------------------------------------------
    std::map<analysis::MetaChunk, std::set<int>> chunk_nodes;
    for (std::size_t i = 0; i < g.instances.size(); ++i) {
        for (const auto& [chunk, access] : summaries[i].meta) {
            const ir::MetaField& f = prog.meta(chunk.field);
            if (f.is_array() && f.array->symbolic()) {
                chunk_nodes[chunk].insert(g.node_of[i]);
            }
        }
    }
    LinExpr phv;
    for (const auto& [chunk, nodes] : chunk_nodes) {
        const Var d = m.add_binary("d_" + prog.meta(chunk.field).name + "_" +
                                   std::to_string(chunk.index));
        m.set_branch_priority(d, 1);
        gen.d.emplace(chunk, d);
        for (const int node : nodes) {
            LinExpr c = placed_expr(node);
            c.add(d, -1.0);
            m.add_le(std::move(c), 0);
        }
        phv.add(d, static_cast<double>(prog.meta(chunk.field).width));
    }
    if (!phv.terms().empty()) {
        m.add_le(std::move(phv), static_cast<double>(target.phv_bits - prog.fixed_phv_bits()),
                 "phv");
    }

    // --- assume constraints and utility ---------------------------------------
    const auto map_poly = [&](const ir::Polynomial& poly) {
        LinExpr e;
        for (const ir::PolyTerm& t : poly.terms()) {
            if (t.degree() == 0) {
                e.add_constant(t.coeff);
                continue;
            }
            if (t.degree() == 1) {
                const ir::SymbolRole role = prog.symbol(t.a).role;
                if (role == ir::SymbolRole::IterationCount) {
                    const std::int64_t uv = bounds.at(static_cast<std::size_t>(t.a));
                    for (std::int64_t i = 0; i < uv; ++i) e.add(gen.y.at({t.a, i}), t.coeff);
                } else if (role == ir::SymbolRole::ElementCount) {
                    e.add(gen.elem_count.at(t.a), t.coeff);
                }
                // Unused symbols contribute nothing.
                continue;
            }
            // Degree 2: a register-matrix size. Find the matrix.
            bool matched = false;
            for (std::size_t ri = 0; ri < prog.registers.size() && !matched; ++ri) {
                const ir::RegisterArray& r = prog.registers[ri];
                if (!r.elems.symbolic() || !r.instances.symbolic()) continue;
                const SymbolId lo = std::min(r.elems.sym, r.instances.sym);
                const SymbolId hi = std::max(r.elems.sym, r.instances.sym);
                if (lo != t.a || hi != t.b) continue;
                const std::int64_t rows = bounds.at(static_cast<std::size_t>(r.instances.sym));
                for (std::int64_t row = 0; row < rows; ++row) {
                    const auto it = gen.row_elems.find({static_cast<ir::RegisterId>(ri), row});
                    if (it != gen.row_elems.end()) e.add(it->second, t.coeff);
                }
                matched = true;
            }
            if (!matched) {
                throw CompileError("quadratic term has no matching register matrix");
            }
        }
        return e;
    };
    for (const ir::PolyConstraint& pc : prog.assumes) {
        LinExpr e = map_poly(pc.poly);
        const double rhs = -e.constant();
        e.add_constant(-e.constant());
        switch (pc.op) {
            case ir::CmpOp::Le: m.add_le(std::move(e), rhs, "assume"); break;
            case ir::CmpOp::Eq: m.add_eq(std::move(e), rhs, "assume"); break;
            default:
                throw CompileError("internal: unnormalized assume constraint");
        }
    }
    m.set_objective(map_poly(prog.utility));
    return gen;
}

std::vector<double> warm_start_values(const ir::Program& prog, const GeneratedIlp& gen,
                                      const Layout& layout) {
    std::vector<double> values(static_cast<std::size_t>(gen.model.num_vars()), 0.0);
    const auto set = [&](const Var v, double value) {
        if (v.valid()) values[static_cast<std::size_t>(v.id)] = value;
    };

    // y from bindings (contiguous iterations).
    for (const auto& [key, var] : gen.y) {
        set(var, key.second < layout.binding(key.first) ? 1.0 : 0.0);
    }
    // n_e from bindings (clamped into declared bounds so a too-small greedy
    // binding simply fails the feasibility check instead of crashing).
    for (const auto& [w, var] : gen.elem_count) {
        const double lo = gen.model.lower_bound(var.id);
        const double hi = gen.model.upper_bound(var.id);
        set(var, std::clamp(static_cast<double>(layout.binding(w)), lo, hi));
    }
    // x from the node members' placed stages.
    std::vector<int> node_stage(static_cast<std::size_t>(gen.graph.node_count()), -1);
    for (int node = 0; node < gen.graph.node_count(); ++node) {
        for (const int member : gen.graph.members[static_cast<std::size_t>(node)]) {
            const int s = layout.stage_of(gen.graph.instances[static_cast<std::size_t>(member)]);
            if (s >= 0) {
                node_stage[static_cast<std::size_t>(node)] = s;
                break;
            }
        }
        const int s = node_stage[static_cast<std::size_t>(node)];
        if (s >= 0 && s < static_cast<int>(gen.x[static_cast<std::size_t>(node)].size())) {
            set(gen.x[static_cast<std::size_t>(node)][static_cast<std::size_t>(s)], 1.0);
        }
    }
    // e and me from placed register rows.
    for (const auto& [row, var] : gen.row_elems) {
        set(var, static_cast<double>(layout.register_elems(row.first, row.second)));
    }
    for (const auto& [row, owner] : gen.row_owner) {
        const int s = node_stage[static_cast<std::size_t>(owner)];
        if (s < 0) continue;
        const ir::RegisterArray& r = prog.reg(row.first);
        const std::int64_t elems = layout.register_elems(row.first, row.second);
        if (!r.elems.symbolic()) continue;
        // me var names are deterministic; find by name (builder order is not
        // recorded — this is a cold path run once per compile).
        const std::string name =
            "me_" + r.name + "_" + std::to_string(row.second) + "_s" + std::to_string(s);
        for (int id = 0; id < gen.model.num_vars(); ++id) {
            if (gen.model.var_name(id) == name) {
                values[static_cast<std::size_t>(id)] = static_cast<double>(elems * r.width);
                break;
            }
        }
    }
    // d chunks: mark every chunk touched by a placed instance.
    target::TargetSpec probe;
    for (const StagePlan& plan : layout.stages) {
        for (const Instance& inst : plan.actions) {
            const AccessSummary sum = summarize(prog, probe, inst);
            for (const auto& [chunk, access] : sum.meta) {
                const auto it = gen.d.find(chunk);
                if (it != gen.d.end()) set(it->second, 1.0);
            }
        }
    }
    return values;
}

Layout extract_layout(const ir::Program& prog, const target::TargetSpec& target,
                      const GeneratedIlp& gen, const ilp::Solution& solution) {
    (void)target;
    Layout layout;
    layout.stages.resize(gen.x.empty() ? 0 : gen.x.front().size());
    if (layout.stages.empty()) {
        // No nodes: still size stages for consistency.
        layout.stages.resize(1);
    }
    layout.bindings.assign(prog.symbols.size(), 0);

    const auto value_of = [&](const Var v) {
        return v.valid() ? solution.values.at(static_cast<std::size_t>(v.id)) : 0.0;
    };

    // Bindings: iteration symbols from y sums, element symbols from n_e.
    for (const auto& [key, var] : gen.y) {
        if (value_of(var) > 0.5) ++layout.bindings[static_cast<std::size_t>(key.first)];
    }
    for (const auto& [w, var] : gen.elem_count) {
        layout.bindings[static_cast<std::size_t>(w)] =
            static_cast<std::int64_t>(std::llround(value_of(var)));
    }

    // Action placement.
    for (int node = 0; node < gen.graph.node_count(); ++node) {
        int stage = -1;
        for (std::size_t s = 0; s < gen.x[static_cast<std::size_t>(node)].size(); ++s) {
            if (value_of(gen.x[static_cast<std::size_t>(node)][s]) > 0.5) {
                stage = static_cast<int>(s);
                break;
            }
        }
        if (stage < 0) continue;
        for (const int member : gen.graph.members[static_cast<std::size_t>(node)]) {
            layout.stages[static_cast<std::size_t>(stage)].actions.push_back(
                gen.graph.instances[static_cast<std::size_t>(member)]);
        }
    }
    // Stable order within stages (program order).
    for (StagePlan& plan : layout.stages) {
        std::sort(plan.actions.begin(), plan.actions.end());
    }

    // Register rows in the stage of their owner node.
    for (const auto& [row, owner] : gen.row_owner) {
        int stage = -1;
        for (std::size_t s = 0; s < gen.x[static_cast<std::size_t>(owner)].size(); ++s) {
            if (value_of(gen.x[static_cast<std::size_t>(owner)][s]) > 0.5) {
                stage = static_cast<int>(s);
                break;
            }
        }
        if (stage < 0) continue;
        const ir::RegisterArray& r = prog.reg(row.first);
        std::int64_t elems = 0;
        if (r.elems.symbolic()) {
            const auto it = gen.row_elems.find(row);
            elems = it != gen.row_elems.end()
                        ? static_cast<std::int64_t>(std::llround(value_of(it->second)))
                        : 0;
        } else {
            elems = r.elems.literal;
        }
        if (elems <= 0) continue;
        layout.stages[static_cast<std::size_t>(stage)].registers.push_back(
            {row.first, row.second, elems});
    }
    return layout;
}

}  // namespace p4all::compiler
