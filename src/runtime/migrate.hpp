// State migration between two compiled layouts of the same elastic program.
//
// When a live reconfiguration changes symbolic sizes (sketch columns, cache
// ways/slots, table geometry), the old pipeline's register state must carry
// over to the new one so the data structures keep their accumulated
// knowledge. Every register is classified by *module kind* — derived
// structurally from the IR (how the row is indexed, updated, and guarded),
// not from names:
//
//   Counter      count-min rows: hash-indexed reg_add (or min/max)
//   Bloom        1-bit rows: hash-indexed query + set
//   Cache        a key row read into a field compared against the packet
//                key, plus value rows sharing its probe index (NetCache KVS)
//   HeavyHitter  the same shape with an in-plane count row (Precision)
//   Opaque       anything else
//
// migrate_state asks the planner (migrate_static.hpp, plan_rows) for each
// destination row's policy and safety verdict, then executes the transform
// the verdict names: copy, replicate-up, fold-sum / fold-or, copy-prefix,
// zero, or — for a key-table group, as one unit — rehash. A rehash
// re-inserts every stored entry at its key's hash slot in the new geometry
// (the keys live in the key register). Collisions resolve per kind: a
// cache keeps the incumbent and drops the incoming entry (dropping cached
// state is always safe); a heavy-hitter table keeps whichever entry carries
// the larger count.
//
// The `runtime.migrate` fault point is checked once per rehashed group and
// once per carried-over row; a firing aborts the migration with
// Error(Errc::FaultInjected). Migration only ever writes the *destination*
// pipeline, so the caller's old pipeline is untouched by any failure (the
// runtime's rollback relies on this).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/pipeline.hpp"

namespace p4all::runtime {

/// Structural classification of a register row's role.
enum class ModuleKind { Counter, Bloom, Cache, HeavyHitter, Opaque };

[[nodiscard]] const char* module_kind_name(ModuleKind kind) noexcept;

/// The full structural classification: per-register kinds plus the key-table
/// groups (key register -> companions sharing its probe index) that rehash
/// as one unit.
struct RegisterClassification {
    std::map<ir::RegisterId, ModuleKind> kind;
    /// key register -> companions sharing its probe-index field.
    std::map<ir::RegisterId, std::vector<ir::RegisterId>> groups;
    /// key register -> the in-plane count companion (kNoId for caches).
    std::map<ir::RegisterId, ir::RegisterId> count_companion;
};

[[nodiscard]] RegisterClassification classify_registers(const ir::Program& prog);

/// What happened to one destination register row.
struct RowMigration {
    std::string reg;
    std::int64_t instance = 0;
    ModuleKind kind = ModuleKind::Opaque;
    std::string policy;  // the planner's policy name (migrate_static.hpp)
    std::int64_t old_elems = 0;  // 0 when the row is new in this layout
    std::int64_t new_elems = 0;
    std::int64_t entries_moved = 0;    // key-table kinds: entries re-inserted
    std::int64_t entries_dropped = 0;  // key-table kinds: collision losses
    /// State semantically preserved exactly (estimates / lookups unchanged
    /// for everything recorded before the migration): the verdict is Exact,
    /// or — for rehash rows — the group dropped no entry.
    bool exact = true;
    /// The module's safety invariant (CMS no-undercount, Bloom
    /// no-false-negative, tables: surviving entries reachable) held: the
    /// verdict is not Unsafe.
    bool invariant_preserved = true;
};

struct MigrationReport {
    std::vector<RowMigration> rows;

    [[nodiscard]] bool exact() const noexcept;
    [[nodiscard]] bool invariants_preserved() const noexcept;
    [[nodiscard]] std::int64_t entries_dropped() const noexcept;
    /// One line per row.
    [[nodiscard]] std::string to_string() const;
};

/// Transfers register state from `from` into `to` (two pipelines compiled
/// from the same source at possibly different sizes; rows are matched by
/// register name + instance) by executing the planner's verdict for every
/// row of `to`, in plan order. Writes only `to`. Throws
/// Error(Errc::MigrationError) on structural impossibilities and
/// Error(Errc::FaultInjected) when the `runtime.migrate` point fires.
[[nodiscard]] MigrationReport migrate_state(const sim::Pipeline& from, sim::Pipeline& to);

}  // namespace p4all::runtime
