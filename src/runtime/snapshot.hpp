// Crash-safe snapshot/restore of data-plane register state.
//
// A Snapshot captures every placed register row of a live sim::Pipeline —
// by register *name* and instance, so it can be re-applied to a pipeline
// compiled from a different layout of the same program (or reloaded after a
// crash). The on-disk format is a single JSON document with hex-encoded row
// data and a whole-state checksum, written with support::atomic_replace so a
// crash mid-write never corrupts the previous good snapshot (docs/RUNTIME.md
// documents the format).
//
// Fault points: `runtime.snapshot` (fires => the save fails before writing
// anything, proving the previous snapshot survives) and
// `runtime.restore` (fires => the load fails cleanly with a structured
// error, proving a fresh-state fallback path).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/pipeline.hpp"

namespace p4all::runtime {

/// One register row's saved state.
struct SnapshotRow {
    std::string reg;           // register name in the program
    std::int64_t instance = 0;
    int width = 32;
    std::vector<std::uint64_t> data;
};

/// A full register-state capture of one pipeline epoch.
struct Snapshot {
    std::string program;       // program name (sanity-checked on apply)
    std::uint64_t epoch = 0;
    std::uint64_t packets = 0; // packets processed when taken
    std::vector<SnapshotRow> rows;

    /// Order- and content-sensitive checksum over every row.
    [[nodiscard]] std::uint64_t checksum() const;

    /// True iff both snapshots carry bit-identical register state (rows,
    /// instances, widths, and every cell). Epoch/packet counters are
    /// metadata and not compared.
    [[nodiscard]] bool state_identical(const Snapshot& other) const;
};

/// Captures every placed register row of `pipe`.
[[nodiscard]] Snapshot take_snapshot(const sim::Pipeline& pipe, std::uint64_t epoch = 0);

/// Writes `snap` back into `pipe`. Every snapshot row must match a placed
/// row exactly (name, instance, element count, width); mismatches throw
/// support::Error(Errc::SnapshotError) without modifying anything — use the
/// state migrator (migrate.hpp) to move state between *different* layouts.
void apply_snapshot(const Snapshot& snap, sim::Pipeline& pipe);

/// Serializes / parses the on-disk JSON format. `parse_snapshot` verifies
/// the embedded checksum and throws Error(Errc::SnapshotError) on any
/// corruption or version mismatch.
[[nodiscard]] std::string serialize_snapshot(const Snapshot& snap);
[[nodiscard]] Snapshot parse_snapshot(const std::string& text);

/// Crash-safe save: support::atomic_replace of `path` (via `path` + ".tmp").
/// Throws Error(Errc::SnapshotError) on I/O failure (or when the
/// `runtime.snapshot` fault point fires); `path` keeps its previous
/// contents in every failure case.
void save_snapshot(const Snapshot& snap, const std::string& path);

/// Loads and verifies a snapshot saved by save_snapshot. Throws
/// Error(Errc::SnapshotError) on missing file, corruption, or when the
/// `runtime.restore` fault point fires.
[[nodiscard]] Snapshot load_snapshot(const std::string& path);

}  // namespace p4all::runtime
