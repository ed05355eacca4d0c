// Migration planning: the one policy table every state migration runs.
//
// The planner gives each destination register row a policy — from nothing
// but old/new row geometry and the register's module kind
// (classify_registers) — and a three-valued safety verdict:
//
//   Exact      state carries over with estimates/lookups unchanged
//   Invariant  the module's invariant (CMS no-undercount, Bloom
//              no-false-negative, table entries reachable) survives, but
//              values may coarsen
//   Unsafe     the invariant is lost
//
//   policy        applies to                         verdict
//   fresh         a row new in this layout           Exact
//   copy          a row whose size is unchanged      Exact
//   replicate-up  counter/Bloom grow, old | new      Exact: new[j] = old[j mod old], and
//                                                    H mod new mod old == H mod old
//   copy-prefix   counter/Bloom grow otherwise       Unsafe: hash slots remap
//   fold-sum      counter shrink                     Invariant when new | old, else
//   fold-or       Bloom shrink                       Unsafe: new[j] = sum/or old[j + k*new]
//   zero          any other resized row              Unsafe: the row resets
//   rehash        every row of a key-table group     Invariant when old entries exist
//                 (key register + companions         (collisions may drop some), else
//                 sharing its probe index)           Exact
//
// plan_migration evaluates the table on two compiled layouts, before any
// pipeline exists: ElasticRuntime rejects a swap with an Unsafe row here,
// and the migration-safety-static lint pass reports the same verdicts
// through the PassRegistry/SARIF machinery when given a layout pair
// payload. migrate_state (migrate.hpp) runs the same table on two live
// pipelines and executes each verdict's transform, so the plan *is* what
// the migrator does.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compiler/layout.hpp"
#include "runtime/migrate.hpp"
#include "verify/lint.hpp"

namespace p4all::runtime {

enum class MigrationSafety { Exact, Invariant, Unsafe };

[[nodiscard]] const char* migration_safety_name(MigrationSafety safety) noexcept;

/// The data transform a row's policy names.
enum class MigrationPolicy { Fresh, Copy, ReplicateUp, CopyPrefix, FoldSum, FoldOr, Zero, Rehash };

[[nodiscard]] const char* migration_policy_name(MigrationPolicy policy) noexcept;

/// The planned fate of one destination register row.
struct StaticRowVerdict {
    std::string reg;
    std::int64_t instance = 0;
    ModuleKind kind = ModuleKind::Opaque;
    MigrationPolicy action = MigrationPolicy::Fresh;
    std::string policy;          // migration_policy_name(action), as reports print it
    std::int64_t old_elems = 0;  // 0 when the row is new in this layout
    std::int64_t new_elems = 0;
    MigrationSafety safety = MigrationSafety::Exact;
    std::string reason;          // one-line justification of the verdict
    /// Rehash rows: the key register of the table group they move with.
    ir::RegisterId group = ir::kNoId;
};

struct StaticMigrationPlan {
    std::vector<StaticRowVerdict> rows;

    /// No row loses its module invariant (i.e. no Unsafe verdict).
    [[nodiscard]] bool invariants_preserved() const noexcept;
    [[nodiscard]] bool all_exact() const noexcept;
    /// One line per row.
    [[nodiscard]] std::string to_string() const;
};

/// Old rows by (register name, instance) — rows match across layouts by
/// name — and new rows by (register, instance); each maps to its element
/// count.
using OldRowSizes = std::map<std::pair<std::string, std::int64_t>, std::int64_t>;
using NewRowSizes = std::map<std::pair<ir::RegisterId, std::int64_t>, std::int64_t>;

/// The policy table: one verdict per row of `new_rows` (registers of
/// `to_prog`, classified as `cls`). Key-table groups come first, in key
/// register order, way by way; the remaining rows follow in (register,
/// instance) order.
[[nodiscard]] StaticMigrationPlan plan_rows(const ir::Program& to_prog,
                                            const RegisterClassification& cls,
                                            const OldRowSizes& old_rows,
                                            const NewRowSizes& new_rows);

/// Plans the migration `from_layout` -> `to_layout` of the same elastic
/// source. Pure geometry: no pipeline or traffic needed.
[[nodiscard]] StaticMigrationPlan plan_migration(const ir::Program& from_prog,
                                                 const compiler::Layout& from_layout,
                                                 const ir::Program& to_prog,
                                                 const compiler::Layout& to_layout);

/// Payload handing a layout pair to the migration-safety-static lint pass.
/// All pointers are borrowed and must outlive the run.
struct MigrationPairPayload final : verify::LintPayload {
    const ir::Program* from_prog = nullptr;
    const compiler::Layout* from_layout = nullptr;
    const ir::Program* to_prog = nullptr;
    const compiler::Layout* to_layout = nullptr;
};

/// Registers the runtime-layer lint passes (migration-safety-static) into
/// `registry`; idempotent. p4all-lint calls this next to the builtin and
/// audit registrations.
void register_runtime_passes(verify::PassRegistry& registry);

}  // namespace p4all::runtime
