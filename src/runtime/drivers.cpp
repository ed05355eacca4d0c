#include "runtime/drivers.hpp"

#include <memory>

#include "apps/applications.hpp"
#include "apps/modules.hpp"
#include "apps/netcache.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace p4all::runtime {

namespace {

/// Promotion threshold for the streaming NetCache controller (lower than
/// the batch default so caches warm within one drift window).
constexpr std::uint64_t kPromoteThreshold = 16;

/// Smallest power of two >= `v`, clamped to [lo, hi]. Keeping every pinned
/// size on the power-of-two lattice makes consecutive epochs mutually
/// divisible, so counter/Bloom migrations stay on the exact replicate-up /
/// fold-sum paths (migrate_static.hpp) and the plan gate accepts the swap.
std::int64_t pow2_clamp(std::size_t v, std::int64_t lo, std::int64_t hi) {
    std::int64_t p = lo;
    while (p < hi && p < static_cast<std::int64_t>(v)) p <<= 1;
    return p;
}

std::string assume_eq(const std::string& sym, std::int64_t value) {
    return "assume " + sym + " == " + std::to_string(value) + ";\n";
}

/// A driver's reusable packet. Field ids are resolved again only when the
/// serving program changes; every epoch a driver serves compiles its one
/// source, so the declared packet fields never differ between them.
struct PacketBuffer {
    const char* key_field = nullptr;
    const ir::Program* prog = nullptr;
    sim::Packet pkt;
    std::size_t key = 0;
    ir::PacketFieldId dst = ir::kNoId;

    const sim::Packet& fill(const ir::Program& serving, std::uint64_t value) {
        if (&serving != prog) {
            prog = &serving;
            pkt.assign(serving.packet_fields.size(), 0);
            key = static_cast<std::size_t>(serving.find_packet(key_field));
            dst = serving.find_packet("dst");
        }
        pkt[key] = value;
        if (dst != ir::kNoId) pkt[static_cast<std::size_t>(dst)] = value & 0xFF;
        return pkt;
    }
};

std::int64_t placed_ways(const sim::Pipeline& pipe, const char* reg) {
    std::int64_t w = 0;
    while (pipe.reg_size(reg, w) > 0) ++w;
    return w;
}

AppDriver netcache_driver() {
    AppDriver d;
    d.name = "netcache";
    d.source = apps::netcache_source();
    d.profile = [](const workload::Trace& window) {
        const std::size_t distinct = window.counts.size();
        return assume_eq("cms_rows", 2) +
               assume_eq("cms_cols", pow2_clamp(4 * distinct, 256, 8192)) +
               assume_eq("kv_slots", pow2_clamp(distinct, 128, 2048));
    };
    auto packet = std::make_shared<PacketBuffer>("key");
    d.step = [packet](ElasticRuntime& rt, std::uint64_t raw_key) {
        sim::Pipeline& pipe = rt.pipeline();
        const std::uint64_t key = raw_key + 1;  // 0 is the empty-slot sentinel
        pipe.process(packet->fill(pipe.program(), key));
        const bool hit = pipe.meta("kv_hit") == 1;
        const std::uint64_t estimate = pipe.meta("cms_min");
        if (!hit && estimate >= kPromoteThreshold) {
            // NetCache controller promotion (netcache.cpp's policy, one
            // packet at a time): claim an empty probe slot, else evict the
            // resident with the lowest current sketch estimate.
            const std::int64_t ways = placed_ways(pipe, "kv_keys");
            const auto estimate_of = [&](std::uint64_t k) {
                std::uint64_t best = ~0ULL;
                for (std::int64_t row = 0;; ++row) {
                    const std::int64_t cols = pipe.reg_size("cms_cms", row);
                    if (cols == 0) break;
                    const std::uint64_t idx = support::hash_index(
                        k, apps::kCmsSeedBase + static_cast<std::uint64_t>(row),
                        static_cast<std::uint64_t>(cols));
                    best = std::min(
                        best, pipe.reg_read("cms_cms", row, static_cast<std::int64_t>(idx)));
                }
                return best;
            };
            int victim_way = -1;
            std::uint64_t victim_est = ~0ULL;
            std::uint64_t victim_key = 0;
            for (std::int64_t w = 0; w < ways; ++w) {
                const std::uint64_t resident = pipe.meta("kv_stored", w);
                if (resident == 0) {
                    victim_way = static_cast<int>(w);
                    victim_est = 0;
                    victim_key = 0;
                    break;
                }
                const std::uint64_t est = estimate_of(resident);
                if (est < victim_est) {
                    victim_est = est;
                    victim_way = static_cast<int>(w);
                    victim_key = resident;
                }
            }
            if (victim_way >= 0 && (victim_key == 0 || estimate > victim_est)) {
                const auto idx = static_cast<std::int64_t>(pipe.meta("kv_idx", victim_way));
                pipe.reg_write("kv_keys", victim_way, idx, key);
                pipe.reg_write("kv_vals", victim_way, idx, key * 31 + 7);
            }
        }
        rt.note_packet(raw_key, hit ? 1 : 0);  // may swap epochs — last call
    };
    return d;
}

AppDriver sketchlearn_driver() {
    AppDriver d;
    d.name = "sketchlearn";
    d.source = apps::sketchlearn_source();
    d.profile = [](const workload::Trace& window) {
        // The inter-level equality assumes propagate the lvl0 pins.
        return assume_eq("lvl0_rows", 2) +
               assume_eq("lvl0_cols", pow2_clamp(2 * window.counts.size(), 64, 2048));
    };
    auto packet = std::make_shared<PacketBuffer>("flow_id");
    d.step = [packet](ElasticRuntime& rt, std::uint64_t key) {
        sim::Pipeline& pipe = rt.pipeline();
        pipe.process(packet->fill(pipe.program(), key));
        rt.note_packet(key);  // pure sketch: churn is the only drift signal
    };
    return d;
}

AppDriver precision_driver() {
    AppDriver d;
    d.name = "precision";
    d.source = apps::precision_source();
    d.profile = [](const workload::Trace& window) {
        return assume_eq("hh_ways", 3) +
               assume_eq("hh_slots", pow2_clamp(window.counts.size() / 2, 64, 2048));
    };
    // The admission lottery's RNG persists across packets and epochs.
    auto rng = std::make_shared<support::Xoshiro256>(42);
    auto packet = std::make_shared<PacketBuffer>("flow_id");
    d.step = [rng, packet](ElasticRuntime& rt, std::uint64_t raw_key) {
        sim::Pipeline& pipe = rt.pipeline();
        const std::uint64_t key = raw_key + 1;  // 0 is the empty-slot sentinel
        pipe.process(packet->fill(pipe.program(), key));
        const bool matched = pipe.meta("hh_matched") == 1;
        if (!matched) {
            // Precision admission (applications.cpp's policy): claim an
            // empty way, else evict the min-count way with P = 1/(count+1).
            const std::int64_t ways = placed_ways(pipe, "hh_keys");
            std::int64_t best_way = -1;
            std::uint64_t best_count = ~0ULL;
            for (std::int64_t w = 0; w < ways; ++w) {
                const auto idx = static_cast<std::int64_t>(pipe.meta("hh_idx", w));
                if (pipe.reg_read("hh_keys", w, idx) == 0) {
                    best_way = w;
                    best_count = 0;
                    break;
                }
                const std::uint64_t count = pipe.reg_read("hh_cnts", w, idx);
                if (count < best_count) {
                    best_count = count;
                    best_way = w;
                }
            }
            if (best_way >= 0 &&
                (best_count == 0 || rng->next_below(best_count + 1) == 0)) {
                const auto idx = static_cast<std::int64_t>(pipe.meta("hh_idx", best_way));
                pipe.reg_write("hh_keys", best_way, idx, key);
                pipe.reg_write("hh_cnts", best_way, idx, best_count + 1);
            }
        }
        rt.note_packet(raw_key, matched ? 1 : 0);
    };
    return d;
}

AppDriver conquest_driver() {
    AppDriver d;
    d.name = "conquest";
    d.source = apps::conquest_source();
    d.profile = [](const workload::Trace& window) {
        // Snapshot geometries are tied by equality assumes, as with
        // SketchLearn's levels.
        return assume_eq("snap0_rows", 2) +
               assume_eq("snap0_cols", pow2_clamp(2 * window.counts.size(), 64, 2048));
    };
    auto packet = std::make_shared<PacketBuffer>("flow_id");
    d.step = [packet](ElasticRuntime& rt, std::uint64_t key) {
        sim::Pipeline& pipe = rt.pipeline();
        pipe.process(packet->fill(pipe.program(), key));
        rt.note_packet(key);
    };
    return d;
}

}  // namespace

AppDriver make_driver(std::string_view app) {
    if (app == "netcache") return netcache_driver();
    if (app == "sketchlearn") return sketchlearn_driver();
    if (app == "precision") return precision_driver();
    if (app == "conquest") return conquest_driver();
    throw support::Error(support::Errc::SimUnknownName,
                         "runtime: no driver for application '" + std::string(app) + "'");
}

const std::vector<std::string>& driver_names() {
    static const std::vector<std::string> names = {"netcache", "sketchlearn", "precision",
                                                   "conquest"};
    return names;
}

}  // namespace p4all::runtime
