#include "runtime/runtime.hpp"

#include <filesystem>
#include <utility>

#include "audit/audit.hpp"
#include "compiler/resilient.hpp"
#include "runtime/journal.hpp"
#include "runtime/migrate_static.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"

namespace p4all::runtime {

using support::Errc;
using support::Error;

void require_committed(const SwapEvent& event) {
    if (event.committed) return;
    throw Error(Errc::SwapRejected, "runtime: reconfiguration rolled back: " + event.detail);
}

std::string RecoveryReport::to_string() const {
    const char* name = "?";
    switch (outcome) {
        case Outcome::FreshStart: name = "fresh-start"; break;
        case Outcome::Committed: name = "committed"; break;
        case Outcome::RolledForward: name = "rolled-forward"; break;
        case Outcome::RolledBack: name = "rolled-back"; break;
        case Outcome::Degraded: name = "degraded"; break;
    }
    std::string out = std::string("recovery: ") + name + " -> epoch " + std::to_string(epoch) +
                      " (" + std::to_string(journal_records) + " journal record(s), " +
                      (journal_clean ? "clean" : "damaged tail") + ")";
    for (const std::string& note : notes) {
        out += "\n  - ";
        out += note;
    }
    return out;
}

/// One compiled generation: the immutable compile result (possibly shared
/// with other runtimes through an EpochCache) plus this runtime's own
/// pipeline over it, which borrows the result's program and layout. The
/// runtime swaps whole epochs, never mutates one.
struct ElasticRuntime::Epoch {
    std::shared_ptr<const compiler::CompileResult> compiled;
    sim::Pipeline pipe;

    explicit Epoch(std::shared_ptr<const compiler::CompileResult> r)
        : compiled(std::move(r)),
          // Proved register-bounds facts from the artifacts let the pipeline
          // run its proved fast path.
          pipe(compiled->program, compiled->layout,
               std::span<const verify::ProofFact>(compiled->artifacts->proofs)) {}
};

namespace {

/// The audit-gated compile of `source`, or the result options.epochs holds
/// for it. Only a result that passed the gate is cached: a failed compile
/// throws before the insert.
std::shared_ptr<const compiler::CompileResult> compile_epoch(const std::string& source,
                                                             const std::string& name,
                                                             const RuntimeOptions& options) {
    if (options.epochs != nullptr) {
        if (auto cached = options.epochs->find(name, source)) return cached;
    }
    compiler::ResilienceOptions res;
    res.budget_seconds = options.recompile_budget_seconds;
    res.external_gate = audit::make_resilience_gate();
    // exact_portfolio alone picks the first rung; compile.backend is ignored.
    compiler::CompileOptions compile = options.compile;
    compile.backend = options.exact_portfolio ? compiler::Backend::Ilp : compiler::Backend::Greedy;
    auto result = std::make_shared<const compiler::CompileResult>(
        compiler::compile_resilient_source(source, compile, res, name));
    if (options.epochs != nullptr) options.epochs->insert(name, source, result);
    return result;
}

}  // namespace

ElasticRuntime::ElasticRuntime(std::string name, std::string source, RuntimeOptions options,
                               ProfileFn profile)
    : name_(std::move(name)),
      source_(std::move(source)),
      options_(std::move(options)),
      profile_(std::move(profile)),
      drift_(options_.drift) {
    // Epoch 0 compiles with the profile of an empty window, so every epoch
    // (initial and reconfigured) sits on the same assume lattice and
    // migrations stay on the exact divisible paths.
    const std::string extra = initial_extra();
    std::string initial = source_;
    if (!extra.empty()) initial += "\n" + extra;
    current_ = std::make_unique<Epoch>(
        compile_epoch(initial, name_, options_));
    if (!options_.journal_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options_.journal_dir, ec);
        const std::string journal_path = options_.journal_dir + "/journal.bin";
        JournalReadResult prior;
        journal_ = std::make_unique<JournalWriter>(journal_path, &prior);  // cuts a torn tail
        // Seed the journal with the epoch-0 baseline: a crash before the
        // first swap recovers here. Appending to a surviving journal means
        // the operator chose a fresh start over recover(); the new Commit
        // supersedes the old history.
        journal_seq_ = summarize_journal(prior.records).next_seq;
        const Snapshot snap0 = take_snapshot(current_->pipe, 0);
        save_snapshot(snap0, epoch_snapshot_path(0));
        journal_->append({JournalRecordType::Commit, journal_seq_++, 0, snap0.checksum(), extra});
    }
}

ElasticRuntime::ElasticRuntime(RecoverTag, std::string name, std::string source,
                               RuntimeOptions options, ProfileFn profile)
    : name_(std::move(name)),
      source_(std::move(source)),
      options_(std::move(options)),
      profile_(std::move(profile)),
      drift_(options_.drift) {}

ElasticRuntime::~ElasticRuntime() = default;

std::string ElasticRuntime::epoch_snapshot_path(std::uint64_t epoch) const {
    return options_.journal_dir + "/epoch_" + std::to_string(epoch) + ".json";
}

std::string ElasticRuntime::initial_extra() const {
    return profile_ ? profile_(workload::Trace{}) : std::string();
}

sim::Pipeline& ElasticRuntime::pipeline() noexcept { return current_->pipe; }
const sim::Pipeline& ElasticRuntime::pipeline() const noexcept { return current_->pipe; }
const compiler::CompileResult& ElasticRuntime::compiled() const noexcept {
    return *current_->compiled;
}
const ir::Program& ElasticRuntime::program() const noexcept {
    return current_->compiled->program;
}

std::string HealthProbe::to_string() const {
    return std::string(serving ? "serving" : "DOWN") + " epoch " + std::to_string(epoch) + " (" +
           std::to_string(packets) + " pkts, " + std::to_string(swaps_committed) + " swaps, " +
           std::to_string(swaps_rolled_back) + " rollbacks)";
}

HealthProbe ElasticRuntime::heartbeat() const noexcept {
    HealthProbe probe;
    probe.epoch = epoch_;
    probe.packets = packets_;
    probe.swaps_committed = swaps_committed();
    probe.swaps_rolled_back = history_.size() - probe.swaps_committed;
    probe.serving = current_ != nullptr;
    return probe;
}

std::size_t ElasticRuntime::swaps_committed() const noexcept {
    std::size_t n = 0;
    for (const SwapEvent& e : history_) n += e.committed ? 1 : 0;
    return n;
}

void ElasticRuntime::note_packet(std::uint64_t key, int hit) {
    ++packets_;
    drift_.observe(key, hit);
    if (!drift_.window_full()) return;
    const DriftSignal signal = drift_.sample();
    if (!signal.drifted || !options_.auto_reconfigure || reconfiguring_) return;
    const std::string extra =
        profile_ ? profile_(drift_.last_window()) : std::string();
    const SwapEvent event = attempt_swap(extra, "drift: " + signal.reason);
    if (event.committed) drift_.rebaseline();
}

SwapEvent ElasticRuntime::reconfigure(const std::string& trigger) {
    const std::string extra =
        profile_ ? profile_(drift_.last_window()) : std::string();
    const SwapEvent event = attempt_swap(extra, trigger);
    if (event.committed) drift_.rebaseline();
    return event;
}

SwapEvent ElasticRuntime::attempt_swap(const std::string& extra, const std::string& trigger) {
    reconfiguring_ = true;
    SwapEvent event;
    event.from_epoch = epoch_;
    event.to_epoch = epoch_;
    event.at_packet = packets_;
    event.trigger = trigger;
    event.old_utility = current_->compiled->utility;

    // The serving epoch's state, captured up front: migration never writes
    // it, and failure paths verify the guarantee before declaring rollback.
    const Snapshot pre = take_snapshot(current_->pipe, epoch_);

    const std::uint64_t seq = journal_ ? journal_seq_++ : 0;
    bool intent_journaled = false;

    const auto reject = [&](const std::string& why) -> SwapEvent {
        event.detail = why;
        const Snapshot post = take_snapshot(current_->pipe, epoch_);
        if (!pre.state_identical(post)) {
            // Unreachable by construction; surfaced loudly rather than
            // silently serving perturbed state.
            event.detail += " [serving state diverged during rollback]";
        }
        if (journal_ != nullptr && intent_journaled) {
            // Resolve the dangling Intent so a later crash does not make
            // recovery roll forward an attempt the runtime already rolled
            // back. Best-effort: an unresolved Intent alone still
            // classifies as roll-back.
            try {
                journal_->append({JournalRecordType::Abort, seq, epoch_ + 1, 0, why});
            } catch (const std::exception&) {
            }
        }
        history_.push_back(event);
        reconfiguring_ = false;
        return event;
    };

    // Write-ahead intent: the attempt becomes visible to recovery before
    // any work happens. Each journaling fault point sits immediately
    // before its append, so a crash at the point provably leaves the
    // record unwritten.
    if (journal_ != nullptr) {
        if (support::fault_fires("runtime.journal.intent")) {
            return reject("injected journal failure before the intent record");
        }
        try {
            journal_->append({JournalRecordType::Intent, seq, epoch_ + 1, 0, extra});
            intent_journaled = true;
        } catch (const std::exception& e) {
            return reject(std::string("journal intent append failed: ") + e.what());
        }
    }

    std::string source = source_;
    if (!extra.empty()) source += "\n" + extra;

    std::unique_ptr<Epoch> candidate;
    try {
        candidate = std::make_unique<Epoch>(compile_epoch(source, name_, options_));
    } catch (const std::exception& e) {
        return reject(std::string("recompile failed: ") + e.what());
    }
    event.new_utility = candidate->compiled->utility;

    // The one invariant gate: migrate_state executes this same plan, so a
    // swap the plan passes cannot break a module invariant, and an unsafe
    // one is rejected before the migrator touches the candidate (and before
    // any traffic).
    const StaticMigrationPlan plan =
        plan_migration(current_->compiled->program, current_->compiled->layout,
                       candidate->compiled->program, candidate->compiled->layout);
    if (!plan.invariants_preserved()) {
        event.migration_exact = false;
        event.invariants_preserved = false;
        return reject(
            "static migration plan: swap would break a module invariant (rejected before "
            "migration):\n" +
            plan.to_string());
    }

    MigrationReport migration;
    try {
        migration = migrate_state(current_->pipe, candidate->pipe);
    } catch (const std::exception& e) {
        return reject(std::string("migration failed: ") + e.what());
    }
    event.migration_exact = migration.exact();
    event.invariants_preserved = migration.invariants_preserved();
    event.entries_dropped = migration.entries_dropped();

    if (journal_ != nullptr) {
        if (support::fault_fires("runtime.journal.migrate")) {
            return reject("injected journal failure before the migrate-done record");
        }
        try {
            journal_->append(
                {JournalRecordType::MigrateDone, seq, epoch_ + 1, 0, migration.to_string()});
        } catch (const std::exception& e) {
            return reject(std::string("journal migrate-done append failed: ") + e.what());
        }
    }

    // Persist the new epoch's state before committing: a swap whose snapshot
    // cannot be written is not crash-safe and must not commit. With a
    // journal, SnapshotDone lands only after the epoch snapshot is durable
    // — it is the record that licenses recovery to roll the swap forward.
    std::uint64_t candidate_checksum = 0;
    if (!options_.snapshot_path.empty() || journal_ != nullptr) {
        const Snapshot cand = take_snapshot(candidate->pipe, epoch_ + 1);
        candidate_checksum = cand.checksum();
        try {
            if (!options_.snapshot_path.empty()) save_snapshot(cand, options_.snapshot_path);
            if (journal_ != nullptr) save_snapshot(cand, epoch_snapshot_path(epoch_ + 1));
        } catch (const std::exception& e) {
            return reject(std::string("snapshot failed: ") + e.what());
        }
    }
    if (journal_ != nullptr) {
        if (support::fault_fires("runtime.journal.snapshot")) {
            return reject("injected journal failure before the snapshot-done record");
        }
        try {
            journal_->append(
                {JournalRecordType::SnapshotDone, seq, epoch_ + 1, candidate_checksum, ""});
        } catch (const std::exception& e) {
            return reject(std::string("journal snapshot-done append failed: ") + e.what());
        }
    }

    if (support::fault_fires("runtime.swap")) {
        return reject("injected failure at the swap commit point");
    }

    // The Commit record is the durable commit point: once it is on disk the
    // swap happened, crash or no crash. An append failure rejects the swap.
    if (journal_ != nullptr) {
        if (support::fault_fires("runtime.journal.commit")) {
            return reject("injected journal failure before the commit record");
        }
        try {
            journal_->append({JournalRecordType::Commit, seq, epoch_ + 1, candidate_checksum,
                              extra});
        } catch (const std::exception& e) {
            return reject(std::string("journal commit append failed: ") + e.what());
        }
    }

    // Commit: one pointer swap adopts the new epoch.
    ++epoch_;
    event.to_epoch = epoch_;
    event.committed = true;
    event.detail = migration.to_string();
    current_ = std::move(candidate);
    history_.push_back(event);
    reconfiguring_ = false;
    return event;
}

void ElasticRuntime::save(const std::string& path) {
    const std::string& target = path.empty() ? options_.snapshot_path : path;
    if (target.empty()) {
        throw Error(Errc::SnapshotError, "runtime: no snapshot path configured");
    }
    save_snapshot(take_snapshot(current_->pipe, epoch_), target);
}

void ElasticRuntime::restore(const std::string& path) {
    const std::string& target = path.empty() ? options_.snapshot_path : path;
    if (target.empty()) {
        throw Error(Errc::SnapshotError, "runtime: no snapshot path configured");
    }
    apply_snapshot(load_snapshot(target), current_->pipe);
}

std::unique_ptr<ElasticRuntime> ElasticRuntime::recover(std::string name, std::string source,
                                                        RuntimeOptions options, ProfileFn profile,
                                                        RecoveryReport* report) {
    RecoveryReport local;
    RecoveryReport& rep = report != nullptr ? *report : local;
    rep = RecoveryReport{};
    if (options.journal_dir.empty()) {
        throw Error(Errc::RecoveryError, "recover: options.journal_dir is not set");
    }
    std::unique_ptr<ElasticRuntime> rt(new ElasticRuntime(
        RecoverTag{}, std::move(name), std::move(source), std::move(options), std::move(profile)));
    const std::string journal_path = rt->options_.journal_dir + "/journal.bin";

    // 1. Replay. Opening the journal drops a torn/tampered tail; a file
    // that was never a journal is rotated aside so a fresh one can start.
    JournalReadResult replay;
    bool rotate_journal = false;
    try {
        rt->journal_ = std::make_unique<JournalWriter>(journal_path, &replay);
    } catch (const std::exception& e) {
        rep.notes.push_back(std::string("journal unreadable: ") + e.what());
        replay.clean = false;
        rotate_journal = true;
    }
    rep.journal_records = replay.records.size();
    rep.journal_clean = replay.clean;
    if (!replay.damage.empty()) {
        rep.notes.push_back("journal damage: " + replay.damage);
        rep.notes.push_back("truncated damaged journal tail to " +
                            std::to_string(replay.valid_bytes) + " byte(s)");
    }

    const JournalSummary sum = summarize_journal(replay.records);

    // Brings up epoch `target` exactly as journaled: recompile its source
    // (or take the cached audited epoch), restore its snapshot, verify
    // against the journaled checksum, and prove the applied state
    // round-trips bit-identically.
    const auto try_restore = [&](std::uint64_t target, const std::string& extra,
                                 std::uint64_t expect_checksum,
                                 std::string& why) -> std::unique_ptr<Epoch> {
        std::string full = rt->source_;
        if (!extra.empty()) full += "\n" + extra;
        std::unique_ptr<Epoch> ep;
        try {
            ep = std::make_unique<Epoch>(compile_epoch(full, rt->name_, rt->options_));
        } catch (const std::exception& e) {
            why = std::string("recompile failed: ") + e.what();
            return nullptr;
        }
        const std::string snap_path = rt->epoch_snapshot_path(target);
        if (!std::filesystem::exists(snap_path)) {
            // A journaled epoch whose snapshot file vanished is a recovery
            // failure in its own right — the journal proved the epoch
            // durable, so the report carries a typed P4ALL-0408 detail
            // instead of whatever the generic restore path would throw.
            why = Error(Errc::RecoveryError, "epoch snapshot '" + snap_path + "' is missing")
                      .what();
            return nullptr;
        }
        try {
            const Snapshot snap = load_snapshot(snap_path);
            if (expect_checksum != 0 && snap.checksum() != expect_checksum) {
                why = "snapshot checksum does not match the journaled state";
                return nullptr;
            }
            apply_snapshot(snap, ep->pipe);
            if (!snap.state_identical(take_snapshot(ep->pipe, target))) {
                why = "restored state failed the bit-identical round-trip check";
                return nullptr;
            }
        } catch (const std::exception& e) {
            why = std::string("snapshot restore failed: ") + e.what();
            return nullptr;
        }
        return ep;
    };

    std::unique_ptr<Epoch> restored;
    std::uint64_t restored_epoch = 0;
    bool rolled_forward = false;
    bool degraded = false;

    // 2. Roll forward: the tail attempt's snapshot was journaled durable,
    // so recovery may finish the swap — but only after re-proving the
    // migration invariants the crashed process had established.
    if (sum.tail_fate == EpochFate::RollForward) {
        std::string why;
        std::unique_ptr<Epoch> cand =
            try_restore(sum.tail_epoch, sum.tail_extra, sum.tail_state_checksum, why);
        if (cand != nullptr && sum.has_commit()) {
            const CommittedEpoch& prev = sum.last_committed();
            std::string prev_full = rt->source_;
            if (!prev.extra.empty()) prev_full += "\n" + prev.extra;
            try {
                const auto from = compile_epoch(prev_full, rt->name_, rt->options_);
                const StaticMigrationPlan plan =
                    plan_migration(from->program, from->layout, cand->compiled->program,
                                   cand->compiled->layout);
                if (!plan.invariants_preserved()) {
                    why = "roll-forward would break a module invariant";
                    cand.reset();
                }
            } catch (const std::exception& e) {
                why = std::string("cannot re-verify migration invariants: ") + e.what();
                cand.reset();
            }
        }
        if (cand != nullptr) {
            restored = std::move(cand);
            restored_epoch = sum.tail_epoch;
            rolled_forward = true;
            rep.notes.push_back("rolled interrupted swap forward to epoch " +
                                std::to_string(sum.tail_epoch) +
                                " (snapshot was journaled durable)");
        } else {
            degraded = true;
            rep.notes.push_back("roll-forward of epoch " + std::to_string(sum.tail_epoch) +
                                " abandoned: " + why);
        }
    } else if (sum.tail_fate == EpochFate::RollBack) {
        rep.notes.push_back("rolling back interrupted swap to epoch " +
                            std::to_string(sum.tail_epoch) +
                            " (snapshot never proven durable)");
    }

    // 3. Degradation ladder: newest committed epoch first, one step back
    // per unrecoverable epoch.
    if (restored == nullptr) {
        for (std::size_t i = sum.committed.size(); i-- > 0;) {
            const CommittedEpoch& ce = sum.committed[i];
            std::string why;
            restored = try_restore(ce.epoch, ce.extra, ce.state_checksum, why);
            if (restored != nullptr) {
                restored_epoch = ce.epoch;
                if (i + 1 != sum.committed.size()) degraded = true;
                break;
            }
            degraded = true;
            rep.notes.push_back("committed epoch " + std::to_string(ce.epoch) +
                                " unrecoverable: " + why);
        }
    }

    // 4. Last rung: a fresh epoch 0 with empty state.
    bool fresh = false;
    if (restored == nullptr) {
        const std::string extra = rt->initial_extra();
        std::string initial = rt->source_;
        if (!extra.empty()) initial += "\n" + extra;
        try {
            restored =
                std::make_unique<Epoch>(compile_epoch(initial, rt->name_, rt->options_));
        } catch (const std::exception& e) {
            throw Error(Errc::RecoveryError,
                        "recover: no journaled epoch is restorable and a fresh compile failed: " +
                            std::string(e.what()));
        }
        restored_epoch = 0;
        fresh = true;
        if (sum.has_commit() || degraded) {
            rep.notes.push_back("no journaled epoch restorable — fresh epoch 0, state lost");
        }
    }

    // 5. Rotate a non-journal file aside and start a fresh journal, then
    // pin the recovered state so a repeat crash recovers here
    // deterministically.
    if (rotate_journal) {
        std::error_code ec;
        std::filesystem::rename(journal_path, journal_path + ".corrupt", ec);
        if (ec) {
            throw Error(Errc::RecoveryError,
                        "recover: cannot rotate unreadable journal '" + journal_path +
                            "' aside: " + ec.message());
        }
        rep.notes.push_back("rotated unreadable journal to journal.bin.corrupt");
        try {
            rt->journal_ = std::make_unique<JournalWriter>(journal_path);
        } catch (const std::exception& e) {
            throw Error(Errc::RecoveryError,
                        "recover: cannot start a fresh journal: " + std::string(e.what()));
        }
    }
    rt->current_ = std::move(restored);
    rt->epoch_ = restored_epoch;
    rt->journal_seq_ = sum.next_seq;
    try {
        if (rolled_forward) {
            rt->journal_->append({JournalRecordType::Commit, sum.tail_seq, sum.tail_epoch,
                                  sum.tail_state_checksum, sum.tail_extra});
        } else if (sum.tail_fate == EpochFate::RollForward || sum.tail_fate == EpochFate::RollBack) {
            rt->journal_->append({JournalRecordType::Abort, sum.tail_seq, sum.tail_epoch, 0,
                                  "resolved by crash recovery"});
        }
        if (fresh) {
            const Snapshot snap0 = take_snapshot(rt->current_->pipe, 0);
            save_snapshot(snap0, rt->epoch_snapshot_path(0));
            rt->journal_->append({JournalRecordType::Commit, rt->journal_seq_++, 0,
                                  snap0.checksum(), rt->initial_extra()});
        }
    } catch (const std::exception& e) {
        throw Error(Errc::RecoveryError,
                    "recover: restored epoch " + std::to_string(restored_epoch) +
                        " but could not journal the resolution: " + e.what());
    }

    rep.epoch = restored_epoch;
    if (degraded) {
        rep.outcome = RecoveryReport::Outcome::Degraded;
    } else if (rolled_forward) {
        rep.outcome = RecoveryReport::Outcome::RolledForward;
    } else if (sum.tail_fate == EpochFate::RollBack) {
        rep.outcome = RecoveryReport::Outcome::RolledBack;
    } else if (sum.has_commit()) {
        rep.outcome = RecoveryReport::Outcome::Committed;
    } else {
        rep.outcome = RecoveryReport::Outcome::FreshStart;
    }
    return rt;
}

}  // namespace p4all::runtime
