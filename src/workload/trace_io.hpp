// Compact binary packet traces with deterministic record/replay.
//
// The text format in trace.hpp (one decimal key per line) is fine for
// hand-edited fixtures, but chaos and soak runs record millions of packets
// and must survive the recording process dying mid-write. This is the
// crash-tolerant binary format behind `p4all-run --record-trace` /
// `--replay-trace`:
//
//   header   "P4ALLTRC" magic (8) | u32 version=1 | u64 count | u64 checksum
//   records  one little-endian u64 key per packet, append-only
//
// A TraceWriter stamps the header with count = kUnsealed and checksum = 0
// and *seals* the file on close(): it syncs the records to disk
// (support/durable.hpp), then seeks back and writes the final record count
// plus a running checksum over every key, and syncs again.
// A file whose writer crashed before sealing is still fully replayable —
// TraceReader recognises the unsealed sentinel, streams keys to EOF
// (dropping a torn trailing partial record), and reports sealed() == false
// so the caller knows the tail is best-effort. A *sealed* header, by
// contrast, is a promise: any count or checksum mismatch is corruption and
// throws support::Error(Errc::TraceError, "P4ALL-0409"). No input, torn or
// tampered, ever crashes the reader or escapes as an untyped exception.
//
// Replaying the same file twice is bit-identical by construction: the keys
// are the stream, there is no timing or randomness in the format.
#pragma once

#include <cstdint>
#include <string>

#include "workload/trace.hpp"

namespace p4all::workload {

/// Streams keys into a binary trace file. Append-only; seal with close().
class TraceWriter {
public:
    /// Creates/truncates `path` and writes an unsealed header. Throws
    /// Error(Errc::TraceError) when the file cannot be created.
    explicit TraceWriter(const std::string& path);

    /// Seals implicitly (best-effort, errors swallowed) if close() was not
    /// called. Call close() explicitly to observe failures.
    ~TraceWriter();

    TraceWriter(const TraceWriter&) = delete;
    TraceWriter& operator=(const TraceWriter&) = delete;

    /// Appends one packet key. Throws Error(Errc::TraceError) on I/O
    /// failure or after close().
    void append(std::uint64_t key);

    /// Durably flushes the records, then seals the header with the final
    /// count and checksum. Idempotent. Throws Error(Errc::TraceError) when
    /// the seal cannot be made durable.
    void close();

    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

private:
    std::string path_;
    void* file_ = nullptr;  // FILE*, kept out of the header
    std::uint64_t count_ = 0;
    std::uint64_t checksum_ = 0;
};

/// Streams keys back out of a binary trace file.
class TraceReader {
public:
    /// Opens and validates the header. Throws Error(Errc::TraceError) on a
    /// missing file, bad magic, unsupported version, or a sealed header
    /// whose count/checksum disagree with the records actually present.
    explicit TraceReader(const std::string& path);
    ~TraceReader();

    TraceReader(const TraceReader&) = delete;
    TraceReader& operator=(const TraceReader&) = delete;

    /// Fetches the next key; false at end of trace.
    [[nodiscard]] bool next(std::uint64_t& key);

    /// Total keys in the trace (after torn-tail drop for unsealed files).
    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

    /// False when the writer died before sealing: the keys up to the last
    /// complete record are trustworthy, but the true tail is unknown.
    [[nodiscard]] bool sealed() const noexcept { return sealed_; }

private:
    void* file_ = nullptr;  // FILE*
    std::uint64_t count_ = 0;
    std::uint64_t remaining_ = 0;
    bool sealed_ = false;
};

/// Checksum over a key stream as sealed into trace headers (order-sensitive).
[[nodiscard]] std::uint64_t trace_checksum(const std::vector<std::uint64_t>& keys) noexcept;

/// Writes `trace.keys` to a sealed binary file via TraceWriter.
void save_binary_trace(const Trace& trace, const std::string& path);

/// Reads a binary trace (sealed or crash-truncated), rebuilding the
/// exact-count ground truth. Throws Error(Errc::TraceError) on corruption.
[[nodiscard]] Trace load_binary_trace(const std::string& path);

}  // namespace p4all::workload
