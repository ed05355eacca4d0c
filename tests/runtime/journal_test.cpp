// The write-ahead epoch journal: record round-trips, torn/tampered-tail
// tolerance, attempt classification, the journaled swap pipeline, and the
// full ElasticRuntime::recover() decision table (committed / roll-forward /
// roll-back / degraded / fresh) driven by hand-built crash states.
#include "runtime/journal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/temp_path.hpp"
#include "runtime/runtime.hpp"
#include "runtime/snapshot.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "workload/trace.hpp"

namespace p4all::runtime {
namespace {

using support::Errc;
using support::Error;

Errc code_of(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const Error& e) {
        return e.code();
    } catch (...) {
        return Errc::Internal;
    }
    return Errc::None;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/// Rewrites the journal without its last `drop` records — exactly the file a
/// crash between appends leaves behind (minus the fsync'd prefix).
void drop_tail_records(const std::string& path, std::size_t drop) {
    const JournalReadResult rr = read_journal(path);
    ASSERT_TRUE(rr.clean) << rr.damage;
    ASSERT_GE(rr.records.size(), drop);
    std::filesystem::remove(path);
    JournalWriter w(path);
    for (std::size_t i = 0; i + drop < rr.records.size(); ++i) w.append(rr.records[i]);
}

class JournalFormat : public ::testing::Test {
protected:
    void SetUp() override { std::filesystem::remove(path_); }
    void TearDown() override { std::filesystem::remove(path_); }
    std::string path_ = test_util::temp_path("p4all_journal_fmt.bin");
};

TEST_F(JournalFormat, RecordsRoundTripThroughTheFile) {
    {
        JournalWriter w(path_);
        w.append({JournalRecordType::Intent, 3, 4, 0, "assume cols == 512;\n"});
        w.append({JournalRecordType::MigrateDone, 3, 4, 0, "exact"});
        w.append({JournalRecordType::SnapshotDone, 3, 4, 0xDEADBEEFu, ""});
        w.append({JournalRecordType::Commit, 3, 4, 0xDEADBEEFu, "assume cols == 512;\n"});
        w.append({JournalRecordType::Abort, 5, 6, 0, "why\nmultiline"});
    }
    const JournalReadResult rr = read_journal(path_);
    EXPECT_TRUE(rr.clean) << rr.damage;
    ASSERT_EQ(rr.records.size(), 5u);
    EXPECT_EQ(rr.records[0].type, JournalRecordType::Intent);
    EXPECT_EQ(rr.records[0].seq, 3u);
    EXPECT_EQ(rr.records[0].epoch, 4u);
    EXPECT_EQ(rr.records[0].detail, "assume cols == 512;\n");
    EXPECT_EQ(rr.records[2].state_checksum, 0xDEADBEEFu);
    EXPECT_EQ(rr.records[2].detail, "");
    EXPECT_EQ(rr.records[4].type, JournalRecordType::Abort);
    EXPECT_EQ(rr.records[4].detail, "why\nmultiline");

    // Reopening appends after the existing records, never rewrites.
    {
        JournalWriter w(path_);
        w.append({JournalRecordType::Intent, 6, 7, 0, ""});
    }
    EXPECT_EQ(read_journal(path_).records.size(), 6u);
}

TEST_F(JournalFormat, MissingFileIsAnEmptyCleanJournal) {
    const JournalReadResult rr = read_journal(path_);
    EXPECT_TRUE(rr.clean);
    EXPECT_TRUE(rr.records.empty());
}

TEST_F(JournalFormat, TornTailIsDroppedNotThrown) {
    {
        JournalWriter w(path_);
        w.append({JournalRecordType::Intent, 0, 1, 0, "first"});
        w.append({JournalRecordType::Commit, 0, 1, 7, "second"});
    }
    const std::string bytes = read_file(path_);
    // A cut exactly on a record boundary leaves a shorter but *clean*
    // journal (a crash between appends); any other cut is a torn record
    // that must be dropped and reported — and never thrown.
    const std::size_t header = 12;
    const std::size_t frame1 = header + 12 + 25 + 5;  // payload 25 fixed + "first"
    for (std::size_t cut = header; cut < bytes.size(); ++cut) {
        write_file(path_, bytes.substr(0, cut));
        const JournalReadResult rr = read_journal(path_);
        EXPECT_LE(rr.records.size(), 2u);
        if (cut == header || cut == frame1) {
            EXPECT_TRUE(rr.clean) << "cut at " << cut << ": " << rr.damage;
            EXPECT_EQ(rr.records.size(), cut == header ? 0u : 1u);
        } else {
            EXPECT_FALSE(rr.clean) << "cut at " << cut;
            EXPECT_FALSE(rr.damage.empty());
        }
        for (const JournalRecord& rec : rr.records) {
            EXPECT_EQ(rec.detail, rec.seq == 0 && rec.type == JournalRecordType::Intent
                                      ? "first"
                                      : "second");
        }
    }
}

TEST_F(JournalFormat, AppendAfterATornTailAtEveryOffsetStaysReadable) {
    {
        JournalWriter w(path_);
        w.append({JournalRecordType::Commit, 0, 0, 1, "kept"});
    }
    const std::uintmax_t last_start = std::filesystem::file_size(path_);
    {
        JournalWriter w(path_);
        w.append({JournalRecordType::Commit, 1, 1, 2, "torn by the crash"});
    }
    const std::string bytes = read_file(path_);
    // Reopening the writer cuts the torn record wherever the crash split
    // it, so the record appended next is readable, never stranded.
    for (std::size_t cut = last_start; cut < bytes.size(); ++cut) {
        write_file(path_, bytes.substr(0, cut));
        {
            JournalWriter w(path_);
            w.append({JournalRecordType::Commit, 2, 2, 3, "after"});
        }
        const JournalReadResult rr = read_journal(path_);
        EXPECT_TRUE(rr.clean) << "cut at " << cut << ": " << rr.damage;
        ASSERT_EQ(rr.records.size(), 2u) << "cut at " << cut;
        EXPECT_EQ(rr.records[0].detail, "kept");
        EXPECT_EQ(rr.records[1].detail, "after");
    }
}

TEST_F(JournalFormat, ValidBytesMarksTheCleanPrefix) {
    {
        JournalWriter w(path_);
        w.append({JournalRecordType::Commit, 0, 0, 1, "one"});
        w.append({JournalRecordType::Commit, 1, 1, 2, "two"});
    }
    const std::string bytes = read_file(path_);
    EXPECT_EQ(read_journal(path_).valid_bytes, bytes.size());

    // Tear the last record: valid_bytes points at its frame start, and
    // truncating there restores a clean journal with the surviving prefix.
    write_file(path_, bytes.substr(0, bytes.size() - 3));
    const JournalReadResult torn = read_journal(path_);
    EXPECT_FALSE(torn.clean);
    ASSERT_EQ(torn.records.size(), 1u);
    std::filesystem::resize_file(path_, torn.valid_bytes);
    const JournalReadResult clean = read_journal(path_);
    EXPECT_TRUE(clean.clean) << clean.damage;
    EXPECT_EQ(clean.records.size(), 1u);
    EXPECT_EQ(clean.valid_bytes, torn.valid_bytes);
}

TEST_F(JournalFormat, TamperedRecordStopsTheReplayThere) {
    {
        JournalWriter w(path_);
        w.append({JournalRecordType::Commit, 0, 0, 1, "keep"});
        w.append({JournalRecordType::Commit, 1, 1, 2, "flip"});
        w.append({JournalRecordType::Commit, 2, 2, 3, "lost"});
    }
    std::string bytes = read_file(path_);
    // Flip one payload byte of the middle record (its detail text).
    const std::size_t at = bytes.find("flip");
    ASSERT_NE(at, std::string::npos);
    bytes[at] ^= 0x20;
    write_file(path_, bytes);
    const JournalReadResult rr = read_journal(path_);
    EXPECT_FALSE(rr.clean);
    ASSERT_EQ(rr.records.size(), 1u);
    EXPECT_EQ(rr.records[0].detail, "keep");
    EXPECT_NE(rr.damage.find("checksum"), std::string::npos) << rr.damage;
}

TEST_F(JournalFormat, NonJournalFilesAreRefusedWithStableCode) {
    write_file(path_, "{\"this\": \"is not a journal\"}");
    EXPECT_EQ(code_of([&] { (void)read_journal(path_); }), Errc::JournalError);
    EXPECT_EQ(code_of([&] { JournalWriter w(path_); }), Errc::JournalError);
    try {
        (void)read_journal(path_);
        FAIL();
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("P4ALL-0407"), std::string::npos) << e.what();
    }
}

TEST(JournalSummaryTest, ClassifiesEveryTailShape) {
    using R = JournalRecord;
    const R commit0{JournalRecordType::Commit, 0, 0, 11, "e0"};
    const R commit1{JournalRecordType::Commit, 1, 1, 22, "e1"};
    const R intent{JournalRecordType::Intent, 2, 2, 0, "e2"};
    const R migrated{JournalRecordType::MigrateDone, 2, 2, 0, ""};
    const R snapped{JournalRecordType::SnapshotDone, 2, 2, 33, ""};
    const R aborted{JournalRecordType::Abort, 2, 2, 0, "rolled back"};

    JournalSummary s = summarize_journal({});
    EXPECT_EQ(s.tail_fate, EpochFate::None);
    EXPECT_EQ(s.next_seq, 0u);
    EXPECT_FALSE(s.has_commit());

    s = summarize_journal({commit0, commit1});
    EXPECT_EQ(s.tail_fate, EpochFate::Committed);
    ASSERT_EQ(s.committed.size(), 2u);
    EXPECT_EQ(s.last_committed().epoch, 1u);
    EXPECT_EQ(s.last_committed().state_checksum, 22u);
    EXPECT_EQ(s.last_committed().extra, "e1");
    EXPECT_EQ(s.next_seq, 2u);

    s = summarize_journal({commit0, commit1, intent});
    EXPECT_EQ(s.tail_fate, EpochFate::RollBack);
    EXPECT_EQ(s.tail_seq, 2u);
    EXPECT_EQ(s.tail_epoch, 2u);
    EXPECT_EQ(s.tail_extra, "e2");

    s = summarize_journal({commit0, commit1, intent, migrated});
    EXPECT_EQ(s.tail_fate, EpochFate::RollBack);

    s = summarize_journal({commit0, commit1, intent, migrated, snapped});
    EXPECT_EQ(s.tail_fate, EpochFate::RollForward);
    EXPECT_EQ(s.tail_state_checksum, 33u);
    EXPECT_EQ(s.next_seq, 3u);

    // An Abort resolves the attempt: nothing dangles.
    s = summarize_journal({commit0, commit1, intent, migrated, snapped, aborted});
    EXPECT_EQ(s.tail_fate, EpochFate::Committed);
    EXPECT_EQ(s.last_committed().epoch, 1u);

    // A dangling SnapshotDone without its Intent (possible only if the
    // intent landed in a dropped tail of an older file) must not license a
    // roll-forward on its own.
    s = summarize_journal({commit0, snapped});
    EXPECT_EQ(s.tail_fate, EpochFate::Committed);
}

// ---------------------------------------------------------------------------
// Runtime integration: the journaled swap pipeline and recover().

const char* kCms = R"(
symbolic int rows;
symbolic int cols;
assume rows >= 1 && rows <= 4;
assume cols >= 64;
packet { bit<32> flow_id; }
metadata {
    bit<32>[rows] index;
    bit<32>[rows] count;
    bit<32> min_val;
}
register<bit<32>>[cols][rows] cms;
action init_min() { set(meta.min_val, 4294967295); }
action incr()[int i] {
    hash(meta.index[i], i, pkt.flow_id, cms[i]);
    reg_add(cms[i], meta.index[i], 1, meta.count[i]);
}
action take_min()[int i] { min(meta.min_val, meta.count[i]); }
control hash_inc { apply { init_min(); for (i < rows) { incr()[i]; } } }
control find_min { apply { for (i < rows) { take_min()[i]; } } }
control ingress { apply { hash_inc.apply(); find_min.apply(); } }
optimize rows * cols;
)";

struct FaultGuard {
    explicit FaultGuard(const std::string& spec) {
        support::FaultRegistry::instance().configure(spec);
    }
    ~FaultGuard() { support::FaultRegistry::instance().clear(); }
};

class JournaledRuntime : public ::testing::Test {
protected:
    void SetUp() override { std::filesystem::remove_all(dir_); }
    void TearDown() override {
        support::FaultRegistry::instance().clear();
        std::filesystem::remove_all(dir_);
    }

    RuntimeOptions options() const {
        RuntimeOptions o;
        o.compile.backend = compiler::Backend::Greedy;
        o.auto_reconfigure = false;
        o.journal_dir = dir_;
        return o;
    }

    std::unique_ptr<ElasticRuntime> make_runtime() {
        auto pinned = cols_;
        return std::make_unique<ElasticRuntime>(
            "cms", kCms, options(), [pinned](const workload::Trace&) {
                return "assume rows == 2;\nassume cols == " + std::to_string(*pinned) + ";\n";
            });
    }

    std::unique_ptr<ElasticRuntime> recover_runtime(RecoveryReport& rep) {
        auto pinned = cols_;
        return ElasticRuntime::recover(
            "cms", kCms, options(),
            [pinned](const workload::Trace&) {
                return "assume rows == 2;\nassume cols == " + std::to_string(*pinned) + ";\n";
            },
            &rep);
    }

    void feed(ElasticRuntime& rt, std::uint64_t seed) {
        const workload::Trace trace = workload::zipf_trace(600, 120, 1.1, seed);
        for (const std::uint64_t key : trace.keys) rt.pipeline().process({key});
    }

    std::string journal_path() const { return dir_ + "/journal.bin"; }
    std::string epoch_path(std::uint64_t e) const {
        return dir_ + "/epoch_" + std::to_string(e) + ".json";
    }

    std::shared_ptr<std::int64_t> cols_ = std::make_shared<std::int64_t>(256);
    std::string dir_ = test_util::temp_path("p4all_journal_rt");
};

TEST_F(JournaledRuntime, CommittedSwapWritesTheFullRecordSequence) {
    auto rt = make_runtime();
    feed(*rt, 71);
    *cols_ = 512;
    require_committed(rt->reconfigure("grow"));

    const JournalReadResult rr = read_journal(journal_path());
    EXPECT_TRUE(rr.clean) << rr.damage;
    ASSERT_EQ(rr.records.size(), 5u);  // epoch-0 Commit + the 4-step swap
    EXPECT_EQ(rr.records[0].type, JournalRecordType::Commit);
    EXPECT_EQ(rr.records[0].epoch, 0u);
    EXPECT_EQ(rr.records[1].type, JournalRecordType::Intent);
    EXPECT_EQ(rr.records[2].type, JournalRecordType::MigrateDone);
    EXPECT_EQ(rr.records[3].type, JournalRecordType::SnapshotDone);
    EXPECT_EQ(rr.records[4].type, JournalRecordType::Commit);
    EXPECT_EQ(rr.records[4].epoch, 1u);
    EXPECT_NE(rr.records[4].detail.find("cols == 512"), std::string::npos);

    // The per-epoch snapshots exist and the journaled checksum pins them.
    const Snapshot e1 = load_snapshot(epoch_path(1));
    EXPECT_EQ(e1.checksum(), rr.records[4].state_checksum);
    EXPECT_TRUE(e1.state_identical(take_snapshot(rt->pipeline(), 1)));
    EXPECT_TRUE(std::filesystem::exists(epoch_path(0)));

    const JournalSummary sum = summarize_journal(rr.records);
    EXPECT_EQ(sum.tail_fate, EpochFate::Committed);
    EXPECT_EQ(sum.last_committed().epoch, 1u);
}

TEST_F(JournaledRuntime, RejectedSwapResolvesItsIntentWithAnAbort) {
    auto rt = make_runtime();
    feed(*rt, 73);
    *cols_ = 512;
    {
        FaultGuard guard("runtime.swap:after=1");
        EXPECT_FALSE(rt->reconfigure("faulted").committed);
    }
    const JournalSummary sum = summarize_journal(read_journal(journal_path()).records);
    EXPECT_EQ(sum.tail_fate, EpochFate::Committed) << "dangling intent after clean rollback";
    EXPECT_EQ(sum.last_committed().epoch, 0u);

    // The runtime remains fully usable and the retry commits.
    require_committed(rt->reconfigure("retry"));
    EXPECT_EQ(rt->epoch(), 1u);
}

TEST_F(JournaledRuntime, EveryJournalFaultPointRejectsWithoutStatePerturbation) {
    for (const char* point : {"runtime.journal.intent", "runtime.journal.migrate",
                              "runtime.journal.snapshot", "runtime.journal.commit"}) {
        std::filesystem::remove_all(dir_);
        *cols_ = 256;
        auto rt = make_runtime();
        feed(*rt, 79);
        const Snapshot before = take_snapshot(rt->pipeline());
        *cols_ = 512;
        {
            FaultGuard guard(std::string(point) + ":after=1");
            const SwapEvent event = rt->reconfigure("journal-fault");
            EXPECT_FALSE(event.committed) << point;
            EXPECT_NE(event.detail.find("journal"), std::string::npos) << event.detail;
        }
        EXPECT_EQ(rt->epoch(), 0u) << point;
        EXPECT_TRUE(before.state_identical(take_snapshot(rt->pipeline()))) << point;
        require_committed(rt->reconfigure("retry"));
        EXPECT_EQ(rt->epoch(), 1u) << point;
    }
}

TEST_F(JournaledRuntime, RecoverRestoresTheLastCommittedEpoch) {
    {
        auto rt = make_runtime();
        feed(*rt, 83);
        *cols_ = 512;
        require_committed(rt->reconfigure("grow"));
        // Packets fed after the commit are in-memory only: recovery's
        // contract is the state as of the last committed swap.
        feed(*rt, 84);
    }
    RecoveryReport rep;
    auto rt = recover_runtime(rep);
    EXPECT_EQ(rep.outcome, RecoveryReport::Outcome::Committed) << rep.to_string();
    EXPECT_EQ(rep.epoch, 1u);
    EXPECT_TRUE(rep.journal_clean);
    EXPECT_EQ(rt->epoch(), 1u);
    EXPECT_TRUE(
        load_snapshot(epoch_path(1)).state_identical(take_snapshot(rt->pipeline(), 1)));
}

TEST_F(JournaledRuntime, RecoverRollsForwardWhenSnapshotWasProven) {
    {
        auto rt = make_runtime();
        feed(*rt, 89);
        *cols_ = 512;
        require_committed(rt->reconfigure("grow"));
    }
    // A crash between SnapshotDone and Commit leaves exactly this journal.
    drop_tail_records(journal_path(), 1);

    RecoveryReport rep;
    auto rt = recover_runtime(rep);
    EXPECT_EQ(rep.outcome, RecoveryReport::Outcome::RolledForward) << rep.to_string();
    EXPECT_EQ(rt->epoch(), 1u);
    EXPECT_TRUE(
        load_snapshot(epoch_path(1)).state_identical(take_snapshot(rt->pipeline(), 1)));

    // The recovery appended the Commit: a second recovery is a plain restore.
    RecoveryReport again;
    auto rt2 = recover_runtime(again);
    EXPECT_EQ(again.outcome, RecoveryReport::Outcome::Committed) << again.to_string();
    EXPECT_EQ(rt2->epoch(), 1u);
}

TEST_F(JournaledRuntime, RecoverRollsBackWhenSnapshotWasNeverProven) {
    {
        auto rt = make_runtime();
        feed(*rt, 97);
        *cols_ = 512;
        require_committed(rt->reconfigure("grow"));
    }
    // Drop Commit + SnapshotDone: the crash happened mid-snapshot, so the
    // candidate must be discarded even though epoch_1.json exists on disk.
    drop_tail_records(journal_path(), 2);

    RecoveryReport rep;
    auto rt = recover_runtime(rep);
    EXPECT_EQ(rep.outcome, RecoveryReport::Outcome::RolledBack) << rep.to_string();
    EXPECT_EQ(rt->epoch(), 0u);
    EXPECT_TRUE(
        load_snapshot(epoch_path(0)).state_identical(take_snapshot(rt->pipeline(), 0)));
}

TEST_F(JournaledRuntime, RecoverDegradesPastACorruptEpochSnapshot) {
    {
        auto rt = make_runtime();
        feed(*rt, 101);
        *cols_ = 512;
        require_committed(rt->reconfigure("grow"));
    }
    // Corrupt the newest committed epoch's snapshot: recovery must fall
    // back one committed epoch, loudly.
    write_file(epoch_path(1), "garbage, not a snapshot");

    RecoveryReport rep;
    auto rt = recover_runtime(rep);
    EXPECT_EQ(rep.outcome, RecoveryReport::Outcome::Degraded) << rep.to_string();
    EXPECT_EQ(rt->epoch(), 0u);
    EXPECT_FALSE(rep.notes.empty());
    bool noted = false;
    for (const std::string& note : rep.notes) {
        noted = noted || note.find("epoch 1") != std::string::npos;
    }
    EXPECT_TRUE(noted) << rep.to_string();
    EXPECT_TRUE(
        load_snapshot(epoch_path(0)).state_identical(take_snapshot(rt->pipeline(), 0)));
}

TEST_F(JournaledRuntime, RecoverRejectsATamperedSnapshotViaTheJournalChecksum) {
    {
        auto rt = make_runtime();
        feed(*rt, 103);
        *cols_ = 512;
        require_committed(rt->reconfigure("grow"));
    }
    // Replace epoch 1's snapshot with a *valid* snapshot of different state
    // (the empty pre-feed epoch-1 layout would not match; reuse epoch 0's
    // file). parse_snapshot alone accepts it — only the journaled checksum
    // can tell it is not the committed state.
    const Snapshot wrong = load_snapshot(epoch_path(0));
    save_snapshot(wrong, epoch_path(1));

    RecoveryReport rep;
    auto rt = recover_runtime(rep);
    EXPECT_NE(rep.outcome, RecoveryReport::Outcome::Committed) << rep.to_string();
    bool noted = false;
    for (const std::string& note : rep.notes) {
        noted = noted || note.find("checksum") != std::string::npos;
    }
    EXPECT_TRUE(noted) << rep.to_string();
}

TEST_F(JournaledRuntime, RecoverSurvivesAGarbageJournalAndStartsFresh) {
    std::filesystem::create_directories(dir_);
    write_file(journal_path(), "this was never a journal");
    RecoveryReport rep;
    auto rt = recover_runtime(rep);
    EXPECT_EQ(rep.outcome, RecoveryReport::Outcome::FreshStart) << rep.to_string();
    EXPECT_EQ(rt->epoch(), 0u);
    EXPECT_FALSE(rep.journal_clean);
    EXPECT_TRUE(std::filesystem::exists(journal_path() + ".corrupt"));
    // The rotated-in journal pins the fresh baseline for the next crash.
    const JournalSummary sum = summarize_journal(read_journal(journal_path()).records);
    EXPECT_EQ(sum.tail_fate, EpochFate::Committed);
    EXPECT_EQ(sum.last_committed().epoch, 0u);
}

TEST_F(JournaledRuntime, RecoverWithoutAJournalDirIsRefused) {
    RuntimeOptions o;
    EXPECT_EQ(code_of([&] { (void)ElasticRuntime::recover("cms", kCms, o); }),
              Errc::RecoveryError);
}

TEST_F(JournaledRuntime, RecoverToleratesATornJournalTail) {
    {
        auto rt = make_runtime();
        feed(*rt, 107);
        *cols_ = 512;
        require_committed(rt->reconfigure("grow"));
    }
    // Tear the file mid-record (a crash during an append).
    const std::string bytes = read_file(journal_path());
    write_file(journal_path(), bytes.substr(0, bytes.size() - 7));

    RecoveryReport rep;
    auto rt = recover_runtime(rep);
    EXPECT_FALSE(rep.journal_clean);
    // The torn record was the epoch-1 Commit; its SnapshotDone survived, so
    // recovery still reaches epoch 1 (rolled forward).
    EXPECT_EQ(rt->epoch(), 1u) << rep.to_string();
}

TEST_F(JournaledRuntime, TornTailRecoveryDoesNotHideLaterCommits) {
    {
        auto rt = make_runtime();
        feed(*rt, 109);
        *cols_ = 512;
        require_committed(rt->reconfigure("grow"));
    }
    // Tear the journal mid-record, then recover. Recovery must cut the torn
    // bytes before reopening for append — otherwise every record it (and
    // the revived runtime) writes lands after bytes no reader can parse,
    // and fsynced Commits are silently lost on the next crash.
    const std::string bytes = read_file(journal_path());
    write_file(journal_path(), bytes.substr(0, bytes.size() - 7));

    RecoveryReport rep;
    auto rt = recover_runtime(rep);
    EXPECT_EQ(rt->epoch(), 1u) << rep.to_string();

    // The file reads back clean: the torn bytes are gone, not papered over.
    const JournalReadResult after = read_journal(journal_path());
    EXPECT_TRUE(after.clean) << after.damage;

    // A swap committed after the torn-tail recovery must survive the NEXT
    // crash — the durable-commit-point contract.
    *cols_ = 1024;
    require_committed(rt->reconfigure("grow-again"));
    rt.reset();

    RecoveryReport again;
    auto rt2 = recover_runtime(again);
    EXPECT_EQ(again.outcome, RecoveryReport::Outcome::Committed) << again.to_string();
    EXPECT_EQ(rt2->epoch(), 2u) << again.to_string();
    EXPECT_TRUE(again.journal_clean);
}

TEST_F(JournaledRuntime, FreshStartOverATornJournalTruncatesBeforeAppending) {
    {
        auto rt = make_runtime();
        feed(*rt, 113);
        *cols_ = 512;
        require_committed(rt->reconfigure("grow"));
    }
    const std::string bytes = read_file(journal_path());
    write_file(journal_path(), bytes.substr(0, bytes.size() - 7));

    // The operator chose a fresh start (plain constructor) over recover():
    // the seed Commit it appends must still be readable afterwards.
    *cols_ = 256;
    make_runtime().reset();
    const JournalReadResult rr = read_journal(journal_path());
    EXPECT_TRUE(rr.clean) << rr.damage;
    const JournalSummary sum = summarize_journal(rr.records);
    EXPECT_EQ(sum.tail_fate, EpochFate::Committed);
    EXPECT_EQ(sum.last_committed().epoch, 0u);
}

}  // namespace
}  // namespace p4all::runtime
