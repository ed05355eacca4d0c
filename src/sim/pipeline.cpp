#include "sim/pipeline.hpp"

#include <algorithm>
#include <tuple>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace p4all::sim {

using analysis::Instance;
using ir::Affine;
using ir::MetaRef;
using ir::PacketRef;
using ir::PrimKind;
using ir::RegRef;
using support::CompileError;

namespace {
std::uint64_t mask_for(int width) noexcept {
    return width >= 64 ? ~0ULL : ((1ULL << width) - 1);
}
}  // namespace

int Pipeline::meta_slot(ir::MetaFieldId field, std::int64_t index) const {
    const auto it = meta_slots_.find({field, index});
    if (it == meta_slots_.end()) {
        throw CompileError("simulator: metadata chunk " + prog_.meta(field).name + "[" +
                           std::to_string(index) + "] not materialized in this layout");
    }
    return it->second;
}

Pipeline::Operand Pipeline::resolve(const ir::Value& v, std::int64_t param) const {
    Operand out;
    if (const auto* m = std::get_if<MetaRef>(&v)) {
        out.kind = Operand::Kind::Meta;
        out.slot = meta_slot(m->field, m->index.at(param));
        return out;
    }
    if (const auto* p = std::get_if<PacketRef>(&v)) {
        out.kind = Operand::Kind::PacketField;
        out.slot = p->field;
        return out;
    }
    if (const auto* a = std::get_if<Affine>(&v)) {
        out.kind = Operand::Kind::Literal;
        out.literal = a->at(param);
        return out;
    }
    throw CompileError("simulator: register reference used as a data operand");
}

Pipeline::Pipeline(const ir::Program& prog, const compiler::Layout& layout,
                   std::span<const verify::ProofFact> proofs)
    : prog_(prog) {
    // Proved facts by (call, iter, op index); only proved facts matter here.
    std::map<std::tuple<std::int32_t, std::int64_t, std::int32_t>, const verify::ProofFact*>
        proved;
    for (const verify::ProofFact& fact : proofs) {
        if (fact.proved) proved[{fact.call, fact.iter, fact.op}] = &fact;
    }

    // Materialize register rows with their placed sizes.
    for (const compiler::StagePlan& plan : layout.stages) {
        for (const compiler::PlacedRegister& pr : plan.registers) {
            RegState state;
            state.elems = pr.elems;
            state.mask = mask_for(prog.reg(pr.reg).width);
            state.data.assign(static_cast<std::size_t>(pr.elems), 0);
            reg_index_[{pr.reg, pr.instance}] = static_cast<int>(reg_rows_.size());
            reg_rows_.push_back(std::move(state));
        }
    }

    // Materialize metadata slots: scalars always; elastic chunks on demand
    // (every chunk any placed instance touches).
    for (std::size_t f = 0; f < prog.meta_fields.size(); ++f) {
        const ir::MetaField& field = prog.meta_fields[f];
        if (!field.is_array()) {
            meta_slots_[{static_cast<ir::MetaFieldId>(f), 0}] =
                static_cast<int>(meta_masks_.size());
            meta_masks_.push_back(mask_for(field.width));
        } else if (!field.array->symbolic()) {
            for (std::int64_t i = 0; i < field.array->literal; ++i) {
                meta_slots_[{static_cast<ir::MetaFieldId>(f), i}] =
                    static_cast<int>(meta_masks_.size());
                meta_masks_.push_back(mask_for(field.width));
            }
        }
    }
    target::TargetSpec probe;  // cost model irrelevant here
    for (const compiler::StagePlan& plan : layout.stages) {
        for (const Instance& inst : plan.actions) {
            const analysis::AccessSummary sum = analysis::summarize(prog, probe, inst);
            for (const auto& [chunk, access] : sum.meta) {
                if (meta_slots_.count({chunk.field, chunk.index}) != 0) continue;
                meta_slots_[{chunk.field, chunk.index}] = static_cast<int>(meta_masks_.size());
                meta_masks_.push_back(mask_for(prog.meta(chunk.field).width));
            }
        }
    }

    // Compile stages.
    stages_.resize(layout.stages.size());
    for (std::size_t s = 0; s < layout.stages.size(); ++s) {
        for (const Instance& inst : layout.stages[s].actions) {
            const ir::CallSite& site = prog.flow.at(static_cast<std::size_t>(inst.call));
            const ir::Action& action = prog.action(site.action);
            const std::int64_t param = site.iter_arg.at(inst.iter);

            CompiledInstance ci;
            for (const ir::Cond& guard : site.guards) {
                CompiledGuard cg;
                cg.op = guard.op;
                cg.lhs = resolve(guard.lhs, inst.iter);
                cg.rhs = resolve(guard.rhs, inst.iter);
                ci.guards.push_back(cg);
            }
            for (std::size_t oi = 0; oi < action.ops.size(); ++oi) {
                const ir::PrimOp& op = action.ops[oi];
                CompiledOp co;
                co.kind = op.kind;
                if (op.dst) {
                    co.dst_slot = meta_slot(op.dst->field, op.dst->index.at(param));
                    co.dst_mask = mask_for(prog.meta(op.dst->field).width);
                }
                if (op.reg) {
                    const std::pair<ir::RegisterId, std::int64_t> row{
                        op.reg->reg, op.reg->instance.at(param)};
                    const auto it = reg_index_.find(row);
                    if (it == reg_index_.end()) {
                        throw CompileError("simulator: action uses register row " +
                                           prog.reg(row.first).name + "_" +
                                           std::to_string(row.second) +
                                           " absent from the layout");
                    }
                    co.reg = it->second;

                    // Bring the per-packet index wrap down: to a mask for
                    // power-of-two rows, and away entirely when a proved
                    // fact for this exact access and row geometry exists.
                    const std::int64_t elems =
                        reg_rows_[static_cast<std::size_t>(co.reg)].elems;
                    if (elems > 0 && (elems & (elems - 1)) == 0) {
                        co.wrap = IndexWrap::Mask;
                        co.wrap_mask = static_cast<std::uint64_t>(elems) - 1;
                    }
                    const auto pit = proved.find({inst.call, inst.iter, static_cast<int>(oi)});
                    if (pit != proved.end() && pit->second->reg == row.first &&
                        pit->second->instance == row.second && pit->second->elems == elems) {
                        co.wrap = IndexWrap::None;
                        ++elided_;
                    }
                }
                if (op.reg_index) co.reg_index = resolve(*op.reg_index, param);
                for (const ir::Value& src : op.srcs) co.srcs.push_back(resolve(src, param));
                if (op.kind == PrimKind::Hash) {
                    co.seed = static_cast<std::uint64_t>(op.seed.at(param));
                    hash_words_.resize(std::max(hash_words_.size(), co.srcs.size()));
                    if (const auto* r = std::get_if<RegRef>(&*op.modulus)) {
                        const std::pair<ir::RegisterId, std::int64_t> row{
                            r->reg, r->instance.at(param)};
                        const auto it = reg_index_.find(row);
                        if (it == reg_index_.end()) {
                            throw CompileError(
                                "simulator: hash range register row absent from layout");
                        }
                        co.modulus = static_cast<std::uint64_t>(
                            reg_rows_[static_cast<std::size_t>(it->second)].elems);
                    } else {
                        co.modulus = static_cast<std::uint64_t>(std::get<std::int64_t>(*op.modulus));
                    }
                    if (co.modulus == 0) throw CompileError("simulator: zero hash range");
                    if ((co.modulus & (co.modulus - 1)) == 0) {
                        co.modulus_mask = co.modulus - 1;
                    }
                }
                ci.ops.push_back(std::move(co));
            }
            stages_[s].instances.push_back(std::move(ci));
        }
    }

    // Size the per-packet buffers now, so process() never allocates.
    phv_.assign(meta_masks_.size(), 0);
    overlay_ = phv_;
    writes_.resize(compiled_op_count());  // bounds any one stage's writes
}

std::uint64_t Pipeline::read(const Operand& op, const std::vector<std::uint64_t>& phv,
                             const Packet& pkt) const {
    // process() has checked the packet's shape, so a field id indexes it.
    switch (op.kind) {
        case Operand::Kind::Meta: return phv[static_cast<std::size_t>(op.slot)];
        case Operand::Kind::PacketField: return pkt[static_cast<std::size_t>(op.slot)];
        case Operand::Kind::Literal: return static_cast<std::uint64_t>(op.literal);
    }
    return 0;
}

void Pipeline::process(const Packet& pkt) {
    if (pkt.size() != prog_.packet_fields.size()) {
        throw support::Error(support::Errc::SimPacketShape,
                             "simulator: packet has " + std::to_string(pkt.size()) +
                                 " fields, program '" + prog_.name + "' declares " +
                                 std::to_string(prog_.packet_fields.size()));
    }
    std::fill(phv_.begin(), phv_.end(), 0);
    std::fill(overlay_.begin(), overlay_.end(), 0);

    for (const Stage& stage : stages_) {
        std::size_t logged = 0;  // this stage's writes land in writes_; reads see `phv_`
        for (const CompiledInstance& ci : stage.instances) {
            bool fire = true;
            for (const CompiledGuard& g : ci.guards) {
                const std::uint64_t lhs = read(g.lhs, phv_, pkt);
                const std::uint64_t rhs = read(g.rhs, phv_, pkt);
                switch (g.op) {
                    case ir::CmpOp::Lt: fire = lhs < rhs; break;
                    case ir::CmpOp::Le: fire = lhs <= rhs; break;
                    case ir::CmpOp::Gt: fire = lhs > rhs; break;
                    case ir::CmpOp::Ge: fire = lhs >= rhs; break;
                    case ir::CmpOp::Eq: fire = lhs == rhs; break;
                    case ir::CmpOp::Ne: fire = lhs != rhs; break;
                }
                if (!fire) break;
            }
            if (!fire) continue;

            // Intra-instance forwarding: ops see earlier ops' writes via the
            // overlay, which equals the pre-stage PHV between instances.
            const std::size_t first_write = logged;
            for (const CompiledOp& op : ci.ops) {
                const auto src = [&](std::size_t i) { return read(op.srcs[i], overlay_, pkt); };
                std::uint64_t result = 0;
                bool writes_meta = op.dst_slot >= 0;
                switch (op.kind) {
                    case PrimKind::Hash: {
                        for (std::size_t i = 0; i < op.srcs.size(); ++i) hash_words_[i] = src(i);
                        const std::uint64_t h = support::hash_words(
                            std::span(hash_words_.data(), op.srcs.size()), op.seed);
                        result = op.modulus_mask != 0 ? (h & op.modulus_mask) : (h % op.modulus);
                        break;
                    }
                    case PrimKind::RegAdd:
                    case PrimKind::RegMin:
                    case PrimKind::RegMax:
                    case PrimKind::RegRead:
                    case PrimKind::RegWrite: {
                        RegState& reg = reg_rows_[static_cast<std::size_t>(op.reg)];
                        std::uint64_t idx = read(op.reg_index, overlay_, pkt);
                        switch (op.wrap) {
                            case IndexWrap::Mask: idx &= op.wrap_mask; break;
                            case IndexWrap::Modulo:
                                idx %= static_cast<std::uint64_t>(reg.elems);
                                break;
                            case IndexWrap::None: break;  // proved in bounds
                        }
                        std::uint64_t& cell = reg.data[idx];
                        switch (op.kind) {
                            case PrimKind::RegAdd:
                                cell = (cell + src(0)) & reg.mask;
                                result = cell;
                                break;
                            case PrimKind::RegMin:
                                cell = std::min(cell, src(0) & reg.mask);
                                result = cell;
                                break;
                            case PrimKind::RegMax:
                                cell = std::max(cell, src(0) & reg.mask);
                                result = cell;
                                break;
                            case PrimKind::RegRead:
                                result = cell;
                                break;
                            case PrimKind::RegWrite:
                                cell = src(0) & reg.mask;
                                writes_meta = false;
                                break;
                            default: break;
                        }
                        break;
                    }
                    case PrimKind::Set: result = src(0); break;
                    case PrimKind::Add: result = src(0) + src(1); break;
                    case PrimKind::Sub: result = src(0) - src(1); break;
                    case PrimKind::Min:
                        result = std::min(overlay_[static_cast<std::size_t>(op.dst_slot)], src(0));
                        break;
                    case PrimKind::Max:
                        result = std::max(overlay_[static_cast<std::size_t>(op.dst_slot)], src(0));
                        break;
                }
                if (writes_meta && op.dst_slot >= 0) {
                    const std::size_t slot = static_cast<std::size_t>(op.dst_slot);
                    overlay_[slot] = result & op.dst_mask;
                    writes_[logged++] = {slot, overlay_[slot]};
                }
            }
            for (std::size_t w = first_write; w < logged; ++w) {
                overlay_[writes_[w].first] = phv_[writes_[w].first];  // back to pre-stage
            }
        }
        // Stage barrier: the log applies in the order the writes ran, so the
        // last writer of a slot wins.
        for (std::size_t w = 0; w < logged; ++w) {
            const auto [slot, value] = writes_[w];
            phv_[slot] = overlay_[slot] = value;
        }
    }
    ++packets_;
}

std::uint64_t Pipeline::meta(std::string_view field, std::int64_t index) const {
    const ir::MetaFieldId f = prog_.find_meta(field);
    if (f == ir::kNoId) {
        throw support::Error(support::Errc::SimUnknownName,
                             "simulator: unknown metadata field '" + std::string(field) + "'");
    }
    const auto it = meta_slots_.find({f, index});
    if (it == meta_slots_.end()) {
        throw support::Error(support::Errc::SimOutOfRange, prog_.meta(f).loc,
                             "simulator: metadata chunk " + prog_.meta(f).name + "[" +
                                 std::to_string(index) + "] not materialized in this layout");
    }
    return phv_.at(static_cast<std::size_t>(it->second));
}

bool Pipeline::meta_materialized(std::string_view field, std::int64_t index) const {
    const ir::MetaFieldId f = prog_.find_meta(field);
    if (f == ir::kNoId) {
        throw support::Error(support::Errc::SimUnknownName,
                             "simulator: unknown metadata field '" + std::string(field) + "'");
    }
    return meta_slots_.count({f, index}) > 0;
}

std::size_t Pipeline::compiled_instance_count() const noexcept {
    std::size_t n = 0;
    for (const Stage& stage : stages_) n += stage.instances.size();
    return n;
}

std::size_t Pipeline::compiled_op_count() const noexcept {
    std::size_t n = 0;
    for (const Stage& stage : stages_) {
        for (const CompiledInstance& inst : stage.instances) n += inst.ops.size();
    }
    return n;
}

const Pipeline::RegState& Pipeline::checked_row(std::string_view reg, std::int64_t instance,
                                                std::int64_t index) const {
    const ir::RegisterId r = prog_.find_register(reg);
    if (r == ir::kNoId) {
        throw support::Error(support::Errc::SimUnknownName,
                             "simulator: unknown register '" + std::string(reg) + "'");
    }
    const auto it = reg_index_.find({r, instance});
    if (it == reg_index_.end()) {
        throw support::Error(support::Errc::SimOutOfRange, prog_.reg(r).loc,
                             "simulator: register row " + prog_.reg(r).name + "_" +
                                 std::to_string(instance) + " not in this layout");
    }
    const RegState& state = reg_rows_[static_cast<std::size_t>(it->second)];
    if (index < 0 || index >= state.elems) {
        throw support::Error(support::Errc::SimOutOfRange, prog_.reg(r).loc,
                             "simulator: index " + std::to_string(index) + " out of range for " +
                                 prog_.reg(r).name + "_" + std::to_string(instance) + " (" +
                                 std::to_string(state.elems) + " elements)");
    }
    return state;
}

std::uint64_t Pipeline::reg_read(std::string_view reg, std::int64_t instance,
                                 std::int64_t index) const {
    return checked_row(reg, instance, index).data[static_cast<std::size_t>(index)];
}

void Pipeline::reg_write(std::string_view reg, std::int64_t instance, std::int64_t index,
                         std::uint64_t value) {
    // checked_row validates; the const_cast writes into our own state.
    auto& state = const_cast<RegState&>(checked_row(reg, instance, index));
    state.data[static_cast<std::size_t>(index)] = value & state.mask;
}

std::int64_t Pipeline::reg_size(std::string_view reg, std::int64_t instance) const {
    const ir::RegisterId r = prog_.find_register(reg);
    if (r == ir::kNoId) {
        throw support::Error(support::Errc::SimUnknownName,
                             "simulator: unknown register '" + std::string(reg) + "'");
    }
    const auto it = reg_index_.find({r, instance});
    return it == reg_index_.end() ? 0
                                  : reg_rows_[static_cast<std::size_t>(it->second)].elems;
}

void Pipeline::clear_registers() {
    for (RegState& reg : reg_rows_) std::fill(reg.data.begin(), reg.data.end(), 0);
}

std::vector<RegRowInfo> Pipeline::reg_rows() const {
    std::vector<RegRowInfo> rows;
    rows.reserve(reg_index_.size());
    for (const auto& [key, idx] : reg_index_) {  // map order: (register id, instance)
        rows.push_back({key.first, key.second,
                        reg_rows_[static_cast<std::size_t>(idx)].elems,
                        prog_.reg(key.first).width});
    }
    return rows;
}

std::span<const std::uint64_t> Pipeline::reg_row_data(ir::RegisterId reg,
                                                      std::int64_t instance) const {
    const auto it = reg_index_.find({reg, instance});
    if (it == reg_index_.end()) {
        throw support::Error(support::Errc::SimOutOfRange,
                             "simulator: register row not in this layout");
    }
    const RegState& state = reg_rows_[static_cast<std::size_t>(it->second)];
    return {state.data.data(), state.data.size()};
}

void Pipeline::reg_row_assign(ir::RegisterId reg, std::int64_t instance,
                              std::span<const std::uint64_t> values) {
    const auto it = reg_index_.find({reg, instance});
    if (it == reg_index_.end()) {
        throw support::Error(support::Errc::SimOutOfRange,
                             "simulator: register row not in this layout");
    }
    RegState& state = reg_rows_[static_cast<std::size_t>(it->second)];
    if (static_cast<std::int64_t>(values.size()) != state.elems) {
        throw support::Error(support::Errc::SimOutOfRange,
                             "simulator: row assignment of " + std::to_string(values.size()) +
                                 " values to a row of " + std::to_string(state.elems) +
                                 " elements");
    }
    for (std::size_t i = 0; i < values.size(); ++i) state.data[i] = values[i] & state.mask;
}

}  // namespace p4all::sim
