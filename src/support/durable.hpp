// Durable storage: the one place that makes bytes survive a crash. The epoch
// journal, fleet.log, register snapshots and binary traces all sit on it.
//
// Record log: an append-only file of checksummed frames behind a header,
// all integers little-endian:
//
//   header  8-byte magic | u32 version
//   frame   u32 payload_len | u64 checksum(payload) | payload
//
// Opening a log for append keeps its longest valid prefix and truncates the
// rest in place, so a record appended after a crash mid-append is never
// stranded behind torn bytes. A missing log is created by atomic_replace.
// Each append writes one frame and syncs it before returning; an append
// that fails part-way truncates its torn bytes before it throws.
//
// Atomic replace: write <path>.tmp, sync it, rename it over <path>, sync
// the directory. A crash leaves the old file or the new one, never a mix.
//
// Every failure throws support::Error with the caller's Errc, so each format
// keeps its own code (P4ALL-0405 snapshots, 0407 journal, 0409 traces, 0506
// fleet log).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace p4all::support {

void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
[[nodiscard]] std::uint32_t get_u32(const char* in) noexcept;
[[nodiscard]] std::uint64_t get_u64(const char* in) noexcept;

/// Flushes `f` and syncs its file to stable storage.
void sync_file(std::FILE* f, const std::string& path, Errc code);
/// Syncs directory `dir` ("" is the current directory), making the entries
/// created or renamed in it durable.
void sync_dir(const std::string& dir, Errc code);

/// Replaces `path` with `bytes` crash-atomically. On failure `path` is
/// unchanged and no temporary file is left behind.
void atomic_replace(const std::string& path, std::string_view bytes, Errc code);

/// Largest record payload; a frame claiming more is damage.
inline constexpr std::size_t kMaxRecordBytes = std::size_t{1} << 20;

struct LogFormat {
    const char* magic = nullptr;  ///< exactly 8 characters
    std::uint32_t version = 1;
    Errc code = Errc::IoError;  ///< carried by every error about this log
    /// Optional decode check after the checksum: a payload it rejects ends
    /// the valid prefix like a torn record, for readers and appenders alike.
    bool (*accepts)(std::string_view payload) = nullptr;
};

/// The longest valid prefix of a record log.
struct LogScan {
    std::vector<std::string> records;  ///< payloads, in append order
    bool clean = true;                 ///< false: a damaged tail follows
    std::string damage;                ///< what ended the prefix (when !clean)
    std::uint64_t valid_bytes = 0;     ///< header + valid frames; 0 if missing
};

/// Reads a log without modifying it; a missing file is empty and clean.
/// Throws Error(format.code) on an absent, foreign or other-version header.
[[nodiscard]] LogScan scan_log(const std::string& path, const LogFormat& format);

class RecordLog {
public:
    /// Opens `path` for append: creates it when missing, truncates a damaged
    /// tail otherwise. `opened`, when given, receives what the file held.
    RecordLog(std::string path, const LogFormat& format, LogScan* opened = nullptr);
    ~RecordLog();
    RecordLog(const RecordLog&) = delete;
    RecordLog& operator=(const RecordLog&) = delete;

    /// Writes one frame and syncs it. A failure part-way cuts the log back
    /// to its acknowledged frames before throwing, so later appends from
    /// this handle stay readable.
    void append(std::string_view payload);

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
    Errc code_;
    std::FILE* file_ = nullptr;  ///< null after a failed append could not reopen
    std::uint64_t size_ = 0;     ///< header + acknowledged frames, in bytes
};

}  // namespace p4all::support
