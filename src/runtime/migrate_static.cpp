// The migration policy table (plan_rows) and its layout-pair front end.
#include "runtime/migrate_static.hpp"

#include <algorithm>
#include <optional>
#include <set>

namespace p4all::runtime {

const char* migration_safety_name(MigrationSafety safety) noexcept {
    switch (safety) {
        case MigrationSafety::Exact: return "exact";
        case MigrationSafety::Invariant: return "invariant";
        case MigrationSafety::Unsafe: return "unsafe";
    }
    return "?";
}

const char* migration_policy_name(MigrationPolicy policy) noexcept {
    switch (policy) {
        case MigrationPolicy::Fresh: return "fresh";
        case MigrationPolicy::Copy: return "copy";
        case MigrationPolicy::ReplicateUp: return "replicate-up";
        case MigrationPolicy::CopyPrefix: return "copy-prefix";
        case MigrationPolicy::FoldSum: return "fold-sum";
        case MigrationPolicy::FoldOr: return "fold-or";
        case MigrationPolicy::Zero: return "zero";
        case MigrationPolicy::Rehash: return "rehash";
    }
    return "?";
}

bool StaticMigrationPlan::invariants_preserved() const noexcept {
    return std::none_of(rows.begin(), rows.end(), [](const StaticRowVerdict& r) {
        return r.safety == MigrationSafety::Unsafe;
    });
}

bool StaticMigrationPlan::all_exact() const noexcept {
    return std::all_of(rows.begin(), rows.end(), [](const StaticRowVerdict& r) {
        return r.safety == MigrationSafety::Exact;
    });
}

std::string StaticMigrationPlan::to_string() const {
    std::string out;
    for (const StaticRowVerdict& r : rows) {
        out += r.reg + "_" + std::to_string(r.instance) + " [" + module_kind_name(r.kind) +
               "] " + r.policy + " " + std::to_string(r.old_elems) + " -> " +
               std::to_string(r.new_elems) + ": " + migration_safety_name(r.safety);
        if (!r.reason.empty()) out += " (" + r.reason + ")";
        out += '\n';
    }
    return out;
}

StaticMigrationPlan plan_rows(const ir::Program& to_prog, const RegisterClassification& cls,
                              const OldRowSizes& old_rows, const NewRowSizes& new_rows) {
    const auto old_row = [&](const std::string& name,
                             std::int64_t inst) -> std::optional<std::int64_t> {
        const auto it = old_rows.find({name, inst});
        if (it == old_rows.end()) return std::nullopt;
        return it->second;
    };
    const auto verdict = [&](ir::RegisterId reg, std::int64_t instance, std::int64_t elems,
                             ModuleKind kind, MigrationPolicy action) {
        StaticRowVerdict v;
        v.reg = to_prog.reg(reg).name;
        v.instance = instance;
        v.kind = kind;
        v.action = action;
        v.policy = migration_policy_name(action);
        v.old_elems = old_row(v.reg, instance).value_or(0);
        v.new_elems = elems;
        return v;
    };

    StaticMigrationPlan plan;
    std::set<std::pair<ir::RegisterId, std::int64_t>> handled;

    // --- key-table groups rehash as a unit; the verdict hinges on whether
    // any old key row exists (entries to move => collisions are possible).
    for (const auto& [key_reg, companions] : cls.groups) {
        const std::string& key_name = to_prog.reg(key_reg).name;
        const ModuleKind kind = cls.kind.at(key_reg);

        bool has_old_entries = false;
        for (const auto& [name_inst, elems] : old_rows) {
            if (name_inst.first == key_name && elems > 0) {
                has_old_entries = true;
                break;
            }
        }

        std::vector<ir::RegisterId> group_regs{key_reg};
        group_regs.insert(group_regs.end(), companions.begin(), companions.end());
        // The key register's rows are the group's ways; an absent key
        // register leaves its companions to the per-row table below.
        for (const auto& [way, way_elems] : new_rows) {
            if (way.first != key_reg) continue;
            const std::int64_t instance = way.second;
            for (const ir::RegisterId r : group_regs) {
                const auto elems_it = new_rows.find({r, instance});
                if (elems_it == new_rows.end()) continue;  // companion row not at this way
                StaticRowVerdict v =
                    verdict(r, instance, elems_it->second, kind, MigrationPolicy::Rehash);
                v.group = key_reg;
                if (has_old_entries) {
                    v.safety = MigrationSafety::Invariant;
                    v.reason = "rehash keeps every surviving entry reachable; collisions may "
                               "drop entries, so exactness is data-dependent";
                } else {
                    v.reason = "no old rows to rehash";
                }
                handled.insert(elems_it->first);
                plan.rows.push_back(std::move(v));
            }
        }
    }

    // --- per-row kinds: counters, Bloom rows, opaque state.
    for (const auto& [row, elems] : new_rows) {
        if (handled.count(row)) continue;
        const auto [reg, instance] = row;
        const auto kind_it = cls.kind.find(reg);
        const ModuleKind kind = kind_it == cls.kind.end() ? ModuleKind::Opaque : kind_it->second;
        const std::optional<std::int64_t> old = old_row(to_prog.reg(reg).name, instance);
        const std::int64_t oe = old.value_or(0);
        const std::int64_t ne = elems;
        const bool foldable = kind == ModuleKind::Counter || kind == ModuleKind::Bloom;
        const bool is_or = kind == ModuleKind::Bloom;

        MigrationPolicy action = MigrationPolicy::Fresh;
        MigrationSafety safety = MigrationSafety::Exact;
        std::string reason;
        if (!old) {
            reason = "row is new in this layout";
        } else if (ne == oe) {
            action = MigrationPolicy::Copy;
            reason = "same geometry";
        } else if (!foldable) {
            action = MigrationPolicy::Zero;
            safety = MigrationSafety::Unsafe;
            reason = std::string(module_kind_name(kind)) +
                     " state cannot be resized; the row resets and loses its invariant";
        } else if (ne > oe) {
            if (ne % oe == 0) {
                action = MigrationPolicy::ReplicateUp;
                reason = "old | new: H mod new mod old == H mod old, estimates preserved";
            } else {
                action = MigrationPolicy::CopyPrefix;
                safety = MigrationSafety::Unsafe;
                reason = "non-divisible grow remaps hash slots; estimates of old keys "
                         "may undercount";
            }
        } else {
            action = is_or ? MigrationPolicy::FoldOr : MigrationPolicy::FoldSum;
            if (oe % ne == 0) {
                safety = MigrationSafety::Invariant;
                reason = is_or ? "divisible fold keeps no-false-negative; false positives grow"
                               : "divisible fold keeps no-undercount; over-estimates grow";
            } else {
                safety = MigrationSafety::Unsafe;
                reason = "non-divisible shrink breaks the fold congruence; the module "
                         "invariant is lost";
            }
        }
        StaticRowVerdict v = verdict(reg, instance, ne, kind, action);
        v.safety = safety;
        v.reason = std::move(reason);
        plan.rows.push_back(std::move(v));
    }

    return plan;
}

StaticMigrationPlan plan_migration(const ir::Program& from_prog,
                                   const compiler::Layout& from_layout,
                                   const ir::Program& to_prog,
                                   const compiler::Layout& to_layout) {
    OldRowSizes old_rows;
    for (const compiler::StagePlan& plan : from_layout.stages) {
        for (const compiler::PlacedRegister& pr : plan.registers) {
            old_rows[{from_prog.reg(pr.reg).name, pr.instance}] = pr.elems;
        }
    }
    NewRowSizes new_rows;
    for (const compiler::StagePlan& plan : to_layout.stages) {
        for (const compiler::PlacedRegister& pr : plan.registers) {
            new_rows[{pr.reg, pr.instance}] = pr.elems;
        }
    }
    return plan_rows(to_prog, classify_registers(to_prog), old_rows, new_rows);
}

// ---------------------------------------------------------------------------
// migration-safety-static lint pass
// ---------------------------------------------------------------------------

namespace {

class MigrationSafetyPass final : public verify::LintPass {
public:
    [[nodiscard]] std::string_view id() const noexcept override {
        return "migration-safety-static";
    }
    [[nodiscard]] std::string_view description() const noexcept override {
        return "a proposed layout change preserves every module's migration invariant "
               "(static verdicts matching the dynamic migrator)";
    }

    void run(verify::LintContext& ctx) override {
        const auto* pair = dynamic_cast<const MigrationPairPayload*>(ctx.payload());
        if (pair == nullptr || pair->from_prog == nullptr || pair->from_layout == nullptr ||
            pair->to_prog == nullptr || pair->to_layout == nullptr) {
            return;  // source-only lint run: nothing to check
        }
        const StaticMigrationPlan plan =
            plan_migration(*pair->from_prog, *pair->from_layout, *pair->to_prog,
                           *pair->to_layout);
        for (const StaticRowVerdict& row : plan.rows) {
            const ir::RegisterId reg = pair->to_prog->find_register(row.reg);
            const support::SourceLoc loc =
                reg == ir::kNoId ? support::SourceLoc{} : pair->to_prog->reg(reg).loc;
            const std::string what = "migrating register " + row.reg + "_" +
                                     std::to_string(row.instance) + " (" + row.policy + " " +
                                     std::to_string(row.old_elems) + " -> " +
                                     std::to_string(row.new_elems) + ")";
            if (row.safety == MigrationSafety::Unsafe) {
                ctx.error(loc, what + " breaks the module invariant: " + row.reason,
                          "resize along the power-of-two lattice so old and new element "
                          "counts divide");
            } else if (row.safety == MigrationSafety::Invariant) {
                ctx.note(loc, what + " is invariant-preserving but inexact: " + row.reason);
            }
        }
    }
};

}  // namespace

void register_runtime_passes(verify::PassRegistry& registry) {
    if (registry.find("migration-safety-static") != nullptr) return;  // already registered
    registry.add(std::make_unique<MigrationSafetyPass>());
}

}  // namespace p4all::runtime
