#include "runtime/journal.hpp"

#include "support/error.hpp"

namespace p4all::runtime {

using support::Errc;

namespace {

// payload = u8 type + 3 * u64 fixed fields + detail
constexpr std::size_t kPayloadFixed = 1 + 3 * sizeof(std::uint64_t);

/// A payload too short for the fixed fields, or with an unknown type, ends
/// the valid prefix like a torn record.
bool decodable(std::string_view payload) {
    if (payload.size() < kPayloadFixed) return false;
    const auto type = static_cast<std::uint8_t>(payload[0]);
    return type >= static_cast<std::uint8_t>(JournalRecordType::Intent) &&
           type <= static_cast<std::uint8_t>(JournalRecordType::Abort);
}

constexpr support::LogFormat kFormat{"P4ALLJNL", 1, Errc::JournalError, &decodable};

std::string encode_payload(const JournalRecord& record) {
    std::string payload;
    payload.reserve(kPayloadFixed + record.detail.size());
    payload += static_cast<char>(record.type);
    support::put_u64(payload, record.seq);
    support::put_u64(payload, record.epoch);
    support::put_u64(payload, record.state_checksum);
    payload += record.detail;
    return payload;
}

JournalReadResult decode(support::LogScan scan) {
    JournalReadResult out;
    for (const std::string& payload : scan.records) {
        out.records.push_back({static_cast<JournalRecordType>(payload[0]),
                               support::get_u64(payload.data() + 1),
                               support::get_u64(payload.data() + 9),
                               support::get_u64(payload.data() + 17),
                               payload.substr(kPayloadFixed)});
    }
    out.clean = scan.clean;
    out.damage = std::move(scan.damage);
    out.valid_bytes = scan.valid_bytes;
    return out;
}

}  // namespace

const char* journal_record_name(JournalRecordType type) noexcept {
    switch (type) {
        case JournalRecordType::Intent: return "intent";
        case JournalRecordType::MigrateDone: return "migrate-done";
        case JournalRecordType::SnapshotDone: return "snapshot-done";
        case JournalRecordType::Commit: return "commit";
        case JournalRecordType::Abort: return "abort";
    }
    return "?";
}

const char* epoch_fate_name(EpochFate fate) noexcept {
    switch (fate) {
        case EpochFate::None: return "none";
        case EpochFate::Committed: return "committed";
        case EpochFate::RollForward: return "roll-forward";
        case EpochFate::RollBack: return "roll-back";
    }
    return "?";
}

JournalWriter::JournalWriter(std::string path, JournalReadResult* prior) {
    support::LogScan scan;
    log_ = std::make_unique<support::RecordLog>(std::move(path), kFormat, &scan);
    if (prior != nullptr) *prior = decode(std::move(scan));
}

void JournalWriter::append(const JournalRecord& record) { log_->append(encode_payload(record)); }

JournalReadResult read_journal(const std::string& path) {
    return decode(support::scan_log(path, kFormat));
}

JournalSummary summarize_journal(const std::vector<JournalRecord>& records) {
    JournalSummary sum;
    // Records after the last Commit/Abort form the (at most one) interrupted
    // attempt. Track them as we scan; a Commit/Abort resets the tail.
    bool tail_intent = false;
    bool tail_snapshot = false;
    for (const JournalRecord& rec : records) {
        if (rec.seq >= sum.next_seq) sum.next_seq = rec.seq + 1;
        switch (rec.type) {
            case JournalRecordType::Intent:
                tail_intent = true;
                tail_snapshot = false;
                sum.tail_seq = rec.seq;
                sum.tail_epoch = rec.epoch;
                sum.tail_extra = rec.detail;
                sum.tail_state_checksum = 0;
                break;
            case JournalRecordType::MigrateDone:
                break;
            case JournalRecordType::SnapshotDone:
                if (tail_intent && rec.seq == sum.tail_seq) {
                    tail_snapshot = true;
                    sum.tail_state_checksum = rec.state_checksum;
                }
                break;
            case JournalRecordType::Commit: {
                CommittedEpoch ce;
                ce.epoch = rec.epoch;
                ce.seq = rec.seq;
                ce.state_checksum = rec.state_checksum;
                ce.extra = rec.detail;
                sum.committed.push_back(std::move(ce));
                tail_intent = tail_snapshot = false;
                break;
            }
            case JournalRecordType::Abort:
                tail_intent = tail_snapshot = false;
                break;
        }
    }
    if (tail_intent) {
        sum.tail_fate = tail_snapshot ? EpochFate::RollForward : EpochFate::RollBack;
    } else {
        sum.tail_fate = records.empty() ? EpochFate::None : EpochFate::Committed;
        sum.tail_seq = 0;
        sum.tail_epoch = 0;
        sum.tail_extra.clear();
        sum.tail_state_checksum = 0;
    }
    return sum;
}

}  // namespace p4all::runtime
