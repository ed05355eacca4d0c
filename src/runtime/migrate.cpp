#include "runtime/migrate.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "runtime/migrate_static.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/hash.hpp"

namespace p4all::runtime {

using support::Errc;
using support::Error;

namespace {

/// Enumeration cap for affine instance/seed evaluation (far above any
/// realistic way count; the unroll bounds cap instance counts much lower).
constexpr std::int64_t kMaxIter = 256;

struct RegTraits {
    std::set<ir::MetaFieldId> index_fields;  // meta fields used as reg_index
    std::set<ir::MetaFieldId> read_dsts;     // dst fields of RegRead ops
    bool has_add = false;
    bool has_read = false;
    bool has_minmax = false;
};

std::map<ir::RegisterId, RegTraits> collect_traits(const ir::Program& prog) {
    std::map<ir::RegisterId, RegTraits> traits;
    for (const ir::Action& action : prog.actions) {
        for (const ir::PrimOp& op : action.ops) {
            if (!op.reg) continue;
            RegTraits& t = traits[op.reg->reg];
            if (op.reg_index) {
                if (const auto* m = std::get_if<ir::MetaRef>(&*op.reg_index)) {
                    t.index_fields.insert(m->field);
                }
            }
            switch (op.kind) {
                case ir::PrimKind::RegAdd: t.has_add = true; break;
                case ir::PrimKind::RegRead:
                    t.has_read = true;
                    if (op.dst) t.read_dsts.insert(op.dst->field);
                    break;
                case ir::PrimKind::RegMin:
                case ir::PrimKind::RegMax: t.has_minmax = true; break;
                default: break;
            }
        }
    }
    return traits;
}

/// Meta fields compared for equality against a packet field in any guard —
/// the structural signature of a stored-key match (kv / heavy-hitter probe).
std::set<ir::MetaFieldId> key_match_fields(const ir::Program& prog) {
    std::set<ir::MetaFieldId> fields;
    for (const ir::CallSite& site : prog.flow) {
        for (const ir::Cond& guard : site.guards) {
            if (guard.op != ir::CmpOp::Eq) continue;
            const auto* lm = std::get_if<ir::MetaRef>(&guard.lhs);
            const auto* rm = std::get_if<ir::MetaRef>(&guard.rhs);
            const bool lp = std::holds_alternative<ir::PacketRef>(guard.lhs);
            const bool rp = std::holds_alternative<ir::PacketRef>(guard.rhs);
            if (lm != nullptr && rp) fields.insert(lm->field);
            if (rm != nullptr && lp) fields.insert(rm->field);
        }
    }
    return fields;
}

/// Per-instance hash seed of every register used as a hash modulus with a
/// single source word (the probe pattern `hash(idx, seed+i, key, reg[i])`).
///
/// The optimizer's strength-reduce-modulus rewrite replaces a pinned RegRef
/// modulus with its literal extent, which erases that direct linkage. A
/// second pass recovers it through the dataflow instead: a single-source
/// hash writing field `idx` with a literal modulus equal to the placed
/// extent still seeds any register op indexed by that same `idx` element.
std::map<ir::RegisterId, std::map<std::int64_t, std::uint64_t>> collect_seeds(
    const ir::Program& prog, const NewRowSizes& placed) {
    std::map<ir::RegisterId, std::map<std::int64_t, std::uint64_t>> seeds;
    // (index field, element) -> (seed, literal modulus) from folded hashes.
    std::map<std::pair<ir::MetaFieldId, std::int64_t>, std::pair<std::uint64_t, std::int64_t>>
        by_index_field;
    for (const ir::Action& action : prog.actions) {
        for (const ir::PrimOp& op : action.ops) {
            if (op.kind != ir::PrimKind::Hash || !op.modulus || op.srcs.size() != 1) continue;
            if (const auto* r = std::get_if<ir::RegRef>(&*op.modulus)) {
                for (std::int64_t p = 0; p < kMaxIter; ++p) {
                    const std::int64_t inst = r->instance.at(p);
                    if (!placed.count({r->reg, inst})) {
                        if (r->instance.is_literal()) break;  // one shot for literals
                        continue;
                    }
                    seeds[r->reg][inst] = static_cast<std::uint64_t>(op.seed.at(p));
                    if (r->instance.is_literal()) break;
                }
            } else if (op.dst) {
                const std::int64_t mod = std::get<std::int64_t>(*op.modulus);
                for (std::int64_t p = 0; p < kMaxIter; ++p) {
                    by_index_field[{op.dst->field, op.dst->index.at(p)}] = {
                        static_cast<std::uint64_t>(op.seed.at(p)), mod};
                    if (op.dst->index.is_literal()) break;
                }
            }
        }
    }
    for (const ir::Action& action : prog.actions) {
        for (const ir::PrimOp& op : action.ops) {
            if (!op.reg || !op.reg_index) continue;
            const auto* m = std::get_if<ir::MetaRef>(&*op.reg_index);
            if (m == nullptr) continue;
            for (std::int64_t p = 0; p < kMaxIter; ++p) {
                const std::int64_t inst = op.reg->instance.at(p);
                const auto row = placed.find({op.reg->reg, inst});
                if (row != placed.end() && !seeds[op.reg->reg].count(inst)) {
                    const auto it = by_index_field.find({m->field, m->index.at(p)});
                    if (it != by_index_field.end() && it->second.second == row->second)
                        seeds[op.reg->reg][inst] = it->second.first;
                }
                if (op.reg->instance.is_literal()) break;
            }
        }
    }
    return seeds;
}

void check_migrate_fault(const std::string& what) {
    if (support::fault_fires("runtime.migrate")) {
        throw Error(Errc::FaultInjected, "migrate: injected failure while migrating " + what);
    }
}

/// Old register state by (register name, instance).
using OldRowData = std::map<std::pair<std::string, std::int64_t>, std::vector<std::uint64_t>>;
using SeedsByWay = std::map<std::int64_t, std::uint64_t>;

/// The cells a per-row policy makes of `old` in a row of `new_elems`.
std::vector<std::uint64_t> transform_row(MigrationPolicy policy,
                                         const std::vector<std::uint64_t>& old,
                                         std::int64_t new_elems) {
    std::vector<std::uint64_t> data(static_cast<std::size_t>(new_elems), 0);
    switch (policy) {
        case MigrationPolicy::Copy:
        case MigrationPolicy::CopyPrefix:
            std::copy(old.begin(), old.end(), data.begin());
            break;
        case MigrationPolicy::ReplicateUp:
            for (std::size_t j = 0; j < data.size(); ++j) data[j] = old[j % old.size()];
            break;
        case MigrationPolicy::FoldSum:
            for (std::size_t i = 0; i < old.size(); ++i) data[i % data.size()] += old[i];
            break;
        case MigrationPolicy::FoldOr:
            for (std::size_t i = 0; i < old.size(); ++i) data[i % data.size()] |= old[i];
            break;
        case MigrationPolicy::Zero:
        case MigrationPolicy::Fresh:
        case MigrationPolicy::Rehash:
            break;
    }
    return data;
}

struct RehashCount {
    std::int64_t moved = 0;
    std::int64_t dropped = 0;
};

/// Re-inserts every stored entry of the key-table group `key_reg` at its
/// key's hash slot in the group's destination rows (the plan's rehash
/// verdicts for the group) and commits those rows to `to`.
RehashCount rehash_group(const ir::Program& tp, const RegisterClassification& cls,
                         ir::RegisterId key_reg, const std::vector<StaticRowVerdict>& plan,
                         const OldRowData& old_rows, const SeedsByWay& way_seeds,
                         sim::Pipeline& to) {
    const std::string& key_name = tp.reg(key_reg).name;
    const std::vector<ir::RegisterId>& companions = cls.groups.at(key_reg);
    const ir::RegisterId count_reg = cls.count_companion.at(key_reg);
    const bool heavy_hitter = cls.kind.at(key_reg) == ModuleKind::HeavyHitter;

    // Destination arrays, zero-initialized; the key register's rows are the
    // candidate ways.
    struct Way {
        std::int64_t instance = 0;
        std::int64_t elems = 0;
    };
    std::map<std::pair<ir::RegisterId, std::int64_t>, std::vector<std::uint64_t>> dest;
    std::vector<Way> ways;
    for (const StaticRowVerdict& v : plan) {
        if (v.action != MigrationPolicy::Rehash || v.group != key_reg) continue;
        const ir::RegisterId r = tp.find_register(v.reg);
        dest[{r, v.instance}].assign(static_cast<std::size_t>(v.new_elems), 0);
        if (r == key_reg) ways.push_back({v.instance, v.new_elems});
    }

    // Collect old entries (key + companion values), deterministic order.
    struct Entry {
        std::uint64_t key = 0;
        std::int64_t src_way = 0;
        std::map<ir::RegisterId, std::uint64_t> values;
    };
    std::vector<Entry> entries;
    for (const auto& [nameinst, data] : old_rows) {
        if (nameinst.first != key_name) continue;
        const std::int64_t way = nameinst.second;
        for (std::size_t s = 0; s < data.size(); ++s) {
            if (data[s] == 0) continue;
            Entry e;
            e.key = data[s];
            e.src_way = way;
            for (const ir::RegisterId c : companions) {
                const auto comp = old_rows.find({tp.reg(c).name, way});
                e.values[c] =
                    comp != old_rows.end() && s < comp->second.size() ? comp->second[s] : 0;
            }
            entries.push_back(std::move(e));
        }
    }

    RehashCount n;
    const auto count_of = [&](const Entry& e) {
        return count_reg == ir::kNoId ? 0 : static_cast<std::int64_t>(e.values.at(count_reg));
    };
    for (const Entry& e : entries) {
        // Candidate ways: the entry's old way first, then the rest.
        std::vector<const Way*> candidates;
        for (const Way& w : ways) {
            if (w.instance == e.src_way) candidates.insert(candidates.begin(), &w);
            else candidates.push_back(&w);
        }
        bool placed_entry = false;
        const Way* weakest_way = nullptr;
        std::size_t weakest_idx = 0;
        std::int64_t weakest_count = 0;
        for (const Way* w : candidates) {
            const std::int64_t instance = w->instance;
            const auto seed_it = way_seeds.find(instance);
            if (seed_it == way_seeds.end()) continue;  // way not rehashable
            // Matches the simulator's Hash lowering for single-source
            // probes: hash_words({key}, seed) % elems.
            const std::size_t idx = static_cast<std::size_t>(
                support::hash_word(e.key, seed_it->second) % static_cast<std::uint64_t>(w->elems));
            std::vector<std::uint64_t>& keys = dest.at({key_reg, instance});
            if (keys[idx] == 0) {
                keys[idx] = e.key;
                for (const auto& [c, v] : e.values) {
                    const auto d = dest.find({c, instance});
                    if (d != dest.end() && idx < d->second.size()) d->second[idx] = v;
                }
                ++n.moved;
                placed_entry = true;
                break;
            }
            if (keys[idx] == e.key) {  // duplicate of an already-moved entry
                if (count_reg != ir::kNoId) {
                    auto& cnts = dest.at({count_reg, instance});
                    if (idx < cnts.size()) {
                        cnts[idx] += e.values.count(count_reg) ? e.values.at(count_reg) : 0;
                    }
                }
                ++n.moved;
                placed_entry = true;
                break;
            }
            // Occupied by another key: remember the weakest incumbent for
            // heavy-hitter displacement.
            if (count_reg != ir::kNoId) {
                const auto& cnts = dest.at({count_reg, instance});
                const std::int64_t incumbent =
                    idx < cnts.size() ? static_cast<std::int64_t>(cnts[idx]) : 0;
                if (weakest_way == nullptr || incumbent < weakest_count) {
                    weakest_way = w;
                    weakest_idx = idx;
                    weakest_count = incumbent;
                }
            }
        }
        if (placed_entry) continue;
        if (heavy_hitter && weakest_way != nullptr && count_of(e) > weakest_count) {
            // Displace the weakest incumbent (Precision keeps the heavier
            // flow); the displaced entry is lost.
            dest.at({key_reg, weakest_way->instance})[weakest_idx] = e.key;
            for (const auto& [c, v] : e.values) {
                const auto d = dest.find({c, weakest_way->instance});
                if (d != dest.end() && weakest_idx < d->second.size()) d->second[weakest_idx] = v;
            }
            ++n.moved;
            ++n.dropped;  // the displaced incumbent
        } else {
            ++n.dropped;  // cache collision / no slot: incoming entry is lost
        }
    }

    for (const auto& [reginst, data] : dest) to.reg_row_assign(reginst.first, reginst.second, data);
    return n;
}

}  // namespace

const char* module_kind_name(ModuleKind kind) noexcept {
    switch (kind) {
        case ModuleKind::Counter: return "counter";
        case ModuleKind::Bloom: return "bloom";
        case ModuleKind::Cache: return "cache";
        case ModuleKind::HeavyHitter: return "heavy-hitter";
        case ModuleKind::Opaque: return "opaque";
    }
    return "?";
}

RegisterClassification classify_registers(const ir::Program& prog) {
    const std::map<ir::RegisterId, RegTraits> traits = collect_traits(prog);
    const std::set<ir::MetaFieldId> match_fields = key_match_fields(prog);

    RegisterClassification cls;
    // Key registers: read into a meta field that some guard compares against
    // the packet key. (Bloom rows are 1-bit and read into a field compared
    // against a literal, so they never qualify.)
    for (const auto& [reg, t] : traits) {
        if (!t.has_read || prog.reg(reg).width <= 1) continue;
        const bool is_key = std::any_of(t.read_dsts.begin(), t.read_dsts.end(),
                                        [&](ir::MetaFieldId f) { return match_fields.count(f); });
        if (!is_key) continue;
        std::vector<ir::RegisterId> companions;
        ir::RegisterId counts = ir::kNoId;
        for (const auto& [other, ot] : traits) {
            if (other == reg) continue;
            const bool shares_index =
                std::any_of(ot.index_fields.begin(), ot.index_fields.end(),
                            [&](ir::MetaFieldId f) { return t.index_fields.count(f); });
            if (!shares_index) continue;
            companions.push_back(other);
            if (ot.has_add) counts = other;
        }
        cls.groups[reg] = companions;
        cls.count_companion[reg] = counts;
        const ModuleKind kind =
            counts != ir::kNoId ? ModuleKind::HeavyHitter : ModuleKind::Cache;
        cls.kind[reg] = kind;
        for (const ir::RegisterId c : companions) cls.kind[c] = kind;
    }
    for (const auto& [reg, t] : traits) {
        if (cls.kind.count(reg)) continue;
        if (prog.reg(reg).width == 1) cls.kind[reg] = ModuleKind::Bloom;
        else if (t.has_add || t.has_minmax) cls.kind[reg] = ModuleKind::Counter;
        else cls.kind[reg] = ModuleKind::Opaque;
    }
    return cls;
}

bool MigrationReport::exact() const noexcept {
    return std::all_of(rows.begin(), rows.end(), [](const RowMigration& r) { return r.exact; });
}

bool MigrationReport::invariants_preserved() const noexcept {
    return std::all_of(rows.begin(), rows.end(),
                       [](const RowMigration& r) { return r.invariant_preserved; });
}

std::int64_t MigrationReport::entries_dropped() const noexcept {
    std::int64_t total = 0;
    for (const RowMigration& r : rows) total += r.entries_dropped;
    return total;
}

std::string MigrationReport::to_string() const {
    std::string out;
    for (const RowMigration& r : rows) {
        out += r.reg + "_" + std::to_string(r.instance) + " [" + module_kind_name(r.kind) +
               "] " + r.policy + " " + std::to_string(r.old_elems) + " -> " +
               std::to_string(r.new_elems);
        if (r.entries_moved > 0 || r.entries_dropped > 0) {
            out += " (moved " + std::to_string(r.entries_moved) + ", dropped " +
                   std::to_string(r.entries_dropped) + ")";
        }
        if (!r.exact) out += r.invariant_preserved ? " [inexact]" : " [inexact, lossy]";
        out += '\n';
    }
    return out;
}

MigrationReport migrate_state(const sim::Pipeline& from, sim::Pipeline& to) {
    const ir::Program& fp = from.program();
    const ir::Program& tp = to.program();
    if (fp.name != tp.name) {
        throw Error(Errc::MigrationError, "migrate: cannot migrate state from program '" +
                                              fp.name + "' into program '" + tp.name + "'");
    }

    OldRowData old_rows;
    OldRowSizes old_sizes;
    for (const sim::RegRowInfo& info : from.reg_rows()) {
        const auto data = from.reg_row_data(info.reg, info.instance);
        const std::pair<std::string, std::int64_t> row{fp.reg(info.reg).name, info.instance};
        old_rows[row].assign(data.begin(), data.end());
        old_sizes[row] = static_cast<std::int64_t>(data.size());
    }
    NewRowSizes new_sizes;
    for (const sim::RegRowInfo& info : to.reg_rows()) {
        new_sizes[{info.reg, info.instance}] = info.elems;
    }

    const RegisterClassification cls = classify_registers(tp);
    const StaticMigrationPlan plan = plan_rows(tp, cls, old_sizes, new_sizes);
    const auto seeds = collect_seeds(tp, new_sizes);

    MigrationReport report;
    std::map<ir::RegisterId, std::int64_t> group_dropped;  // per group already rehashed
    for (const StaticRowVerdict& v : plan.rows) {
        RowMigration rm;
        rm.reg = v.reg;
        rm.instance = v.instance;
        rm.kind = v.kind;
        rm.policy = v.policy;
        rm.old_elems = v.old_elems;
        rm.new_elems = v.new_elems;
        rm.exact = v.safety == MigrationSafety::Exact;
        rm.invariant_preserved = v.safety != MigrationSafety::Unsafe;
        if (v.action == MigrationPolicy::Rehash) {
            // The whole group moves when its first row comes up; that row
            // carries the group's entry counts.
            if (!group_dropped.count(v.group)) {
                check_migrate_fault("table group '" + tp.reg(v.group).name + "'");
                const auto way_seeds = seeds.find(v.group);
                const RehashCount n =
                    rehash_group(tp, cls, v.group, plan.rows, old_rows,
                                 way_seeds == seeds.end() ? SeedsByWay{} : way_seeds->second, to);
                rm.entries_moved = n.moved;
                rm.entries_dropped = n.dropped;
                group_dropped[v.group] = n.dropped;
            }
            rm.exact = group_dropped.at(v.group) == 0;
        } else if (v.action != MigrationPolicy::Fresh) {
            check_migrate_fault("row " + v.reg + "_" + std::to_string(v.instance));
            to.reg_row_assign(tp.find_register(v.reg), v.instance,
                              transform_row(v.action, old_rows.at({v.reg, v.instance}),
                                            v.new_elems));
        }
        report.rows.push_back(std::move(rm));
    }
    return report;
}

}  // namespace p4all::runtime
