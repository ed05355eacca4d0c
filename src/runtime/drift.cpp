#include "runtime/drift.hpp"

#include <algorithm>
#include <set>

namespace p4all::runtime {

DriftDetector::DriftDetector(DriftOptions options) : options_(options) {
    if (options_.window == 0) options_.window = 1;
    if (options_.top_k == 0) options_.top_k = 1;
}

void DriftDetector::observe(std::uint64_t key, int hit) {
    current_.keys.push_back(key);  // sample() counts the window once
    if (hit >= 0) {
        ++lookups_;
        if (hit > 0) ++hits_;
    }
}

bool DriftDetector::window_full() const noexcept {
    return current_.keys.size() >= options_.window;
}

DriftSignal DriftDetector::sample() {
    DriftSignal signal;

    // Count the window once, from its sorted keys.
    std::vector<std::uint64_t> sorted = current_.keys;
    std::sort(sorted.begin(), sorted.end());
    for (auto run = sorted.begin(); run != sorted.end();) {
        const auto end = std::upper_bound(run, sorted.end(), *run);
        current_.counts.emplace_hint(current_.counts.end(), *run,
                                     static_cast<std::uint64_t>(end - run));
        run = end;
    }
    const std::vector<std::uint64_t> cur_top = workload::top_keys(current_, options_.top_k);
    if (lookups_ >= options_.min_hit_samples) {
        signal.hit_rate = static_cast<double>(hits_) / static_cast<double>(lookups_);
    }
    signal.baseline_hit_rate = ref_hit_rate_;

    // An empty window carries no signal: comparing it against the reference
    // would read as 100% top-k churn and trigger a spurious swap on an idle
    // link (a shutdown flush or an early manual reconfigure samples such
    // windows routinely).
    if (have_reference_ && !ref_top_.empty() && !cur_top.empty()) {
        const std::set<std::uint64_t> cur(cur_top.begin(), cur_top.end());
        std::size_t kept = 0;
        for (const std::uint64_t key : ref_top_) kept += cur.count(key);
        signal.churn =
            1.0 - static_cast<double>(kept) / static_cast<double>(ref_top_.size());
        if (signal.churn >= options_.churn_threshold) {
            signal.drifted = true;
            signal.reason = "top-" + std::to_string(options_.top_k) + " churn " +
                            std::to_string(signal.churn);
        }
        if (ref_hit_rate_ >= 0.0 && signal.hit_rate >= 0.0 &&
            ref_hit_rate_ - signal.hit_rate >= options_.hit_drop_threshold) {
            signal.drifted = true;
            if (!signal.reason.empty()) signal.reason += "; ";
            signal.reason += "hit rate " + std::to_string(signal.hit_rate) + " down from " +
                             std::to_string(ref_hit_rate_);
        }
    }

    last_ = std::move(current_);
    current_ = workload::Trace{};
    last_hit_rate_ = signal.hit_rate;
    hits_ = 0;
    lookups_ = 0;
    ++sampled_;

    if (!have_reference_ && !cur_top.empty()) {
        // The first *non-empty* window is the baseline; nothing to compare
        // against yet. An empty cold-start window must not become the
        // reference — every later window would read as fully churned.
        ref_top_ = cur_top;
        ref_hit_rate_ = last_hit_rate_;
        have_reference_ = true;
    }
    return signal;
}

void DriftDetector::rebaseline() {
    if (last_.keys.empty()) return;
    ref_top_ = workload::top_keys(last_, options_.top_k);
    ref_hit_rate_ = last_hit_rate_;
    have_reference_ = true;
}

}  // namespace p4all::runtime
