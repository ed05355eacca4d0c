// Write-ahead epoch journal for crash-consistent elastic reconfiguration.
//
// Every swap attempt of a journaled ElasticRuntime appends a sequence of
// durable records *before* the corresponding in-memory step happens:
//
//   Intent        the attempt exists; detail = the assume-profile text the
//                 candidate epoch compiles with (enough to rebuild it)
//   MigrateDone   state migration old -> new succeeded in memory
//   SnapshotDone  the candidate epoch's register snapshot is durably on
//                 disk (journal_dir/epoch_<N>.json); state_checksum pins it
//   Commit        the swap committed — THE durable commit point; detail
//                 repeats the profile text so recovery can recompile the
//                 epoch without any other metadata
//   Abort         the attempt was cleanly rolled back at runtime
//
// Recovery (ElasticRuntime::recover) classifies the record suffix after the
// last Commit/Abort:
//
//   (nothing)                        -> committed: restore the last Commit
//   Intent [+ MigrateDone]           -> must roll back: the candidate's
//                                       snapshot was never proven durable
//   ... + SnapshotDone               -> roll-forward-safe: the snapshot is
//                                       on disk and pinned; recovery may
//                                       finish the swap and append Commit
//
// On-disk format (journal_dir/journal.bin): a support::RecordLog with magic
// "P4ALLJNL", version 1, and one frame per record:
//
//   u32 payload_len | u64 checksum(payload) | payload
//   payload = u8 type | u64 seq | u64 epoch | u64 state_checksum | detail
//
// Appends are durable before they return. The reader returns the valid
// prefix of a torn tail and reports the damage; reopening the journal for
// append cuts the torn bytes off. Only an unreadable header — a file that
// was never a journal — throws Error(Errc::JournalError).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/durable.hpp"

namespace p4all::runtime {

enum class JournalRecordType : std::uint8_t {
    Intent = 1,
    MigrateDone = 2,
    SnapshotDone = 3,
    Commit = 4,
    Abort = 5,
};

/// Short name, e.g. "intent" (for logs and reports).
[[nodiscard]] const char* journal_record_name(JournalRecordType type) noexcept;

struct JournalRecord {
    JournalRecordType type = JournalRecordType::Intent;
    std::uint64_t seq = 0;             ///< swap-attempt sequence number
    std::uint64_t epoch = 0;           ///< target epoch of the attempt
    std::uint64_t state_checksum = 0;  ///< snapshot checksum (SnapshotDone/Commit)
    std::string detail;                ///< assume-profile text / rollback cause
};

/// Result of reading a journal file.
struct JournalReadResult {
    std::vector<JournalRecord> records;  ///< the longest valid prefix
    bool clean = true;   ///< false: a torn/corrupt tail was dropped
    std::string damage;  ///< what was dropped and why (when !clean)
    /// Byte length of the valid prefix (header + every valid record). When
    /// !clean, JournalWriter truncates the file to this offset on open.
    std::uint64_t valid_bytes = 0;
};

/// Append-only journal writer. Opening creates a missing file, validates the
/// header of an existing one and truncates its torn tail; `prior`, when
/// given, receives what read_journal would have returned before the cut.
/// Every append is durable on return; failures throw
/// Error(Errc::JournalError).
class JournalWriter {
public:
    explicit JournalWriter(std::string path, JournalReadResult* prior = nullptr);

    void append(const JournalRecord& record);

    [[nodiscard]] const std::string& path() const noexcept { return log_->path(); }

private:
    std::unique_ptr<support::RecordLog> log_;
};

/// Reads every valid record. A missing file is an empty clean journal. A
/// torn or tampered tail is dropped and reported via `clean`/`damage` — the
/// crash-recovery contract is that the valid prefix always parses. Throws
/// Error(Errc::JournalError) only when the header itself is unreadable.
[[nodiscard]] JournalReadResult read_journal(const std::string& path);

/// What recovery must do about the journal's tail.
enum class EpochFate : std::uint8_t {
    None,         ///< empty journal (fresh start)
    Committed,    ///< last attempt committed (or cleanly aborted)
    RollForward,  ///< snapshot proven durable; recovery may finish the swap
    RollBack,     ///< snapshot never proven; the attempt must be discarded
};

[[nodiscard]] const char* epoch_fate_name(EpochFate fate) noexcept;

/// One committed epoch as recorded in the journal.
struct CommittedEpoch {
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    std::uint64_t state_checksum = 0;
    std::string extra;  ///< assume-profile text the epoch compiled with
};

/// Digest of a journal: the committed-epoch history plus the classification
/// of the interrupted tail attempt (if any).
struct JournalSummary {
    std::vector<CommittedEpoch> committed;  ///< in commit order
    std::uint64_t next_seq = 0;             ///< first unused attempt seq
    EpochFate tail_fate = EpochFate::None;
    std::uint64_t tail_seq = 0;
    std::uint64_t tail_epoch = 0;           ///< target epoch of the tail attempt
    std::uint64_t tail_state_checksum = 0;  ///< from SnapshotDone (RollForward)
    std::string tail_extra;                 ///< from the tail Intent

    [[nodiscard]] bool has_commit() const noexcept { return !committed.empty(); }
    [[nodiscard]] const CommittedEpoch& last_committed() const { return committed.back(); }
};

/// Classifies `records` (as returned by read_journal).
[[nodiscard]] JournalSummary summarize_journal(const std::vector<JournalRecord>& records);

}  // namespace p4all::runtime
