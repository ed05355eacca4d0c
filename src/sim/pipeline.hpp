// PISA behavioral simulator.
//
// Executes a compiled Layout packet-by-packet with faithful stage
// semantics: within a stage every action instance reads the pre-stage PHV
// (guards included) and writes take effect at the end of the stage, while
// the primitive ops *inside* one action instance execute sequentially with
// intra-stage forwarding (a hash result feeds the register access in the
// same action, as on real hardware). Register state persists across
// packets. Stage parallelism is sound because the compiler's exclusion /
// precedence constraints guarantee no two same-stage instances conflict.
//
// This simulator stands in for the Barefoot Tofino switch in the paper's
// evaluation: it lets us measure data-structure behaviour (sketch accuracy,
// cache hit rate) of the exact layouts the compiler emits.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/layout.hpp"
#include "ir/program.hpp"
#include "verify/dataflow.hpp"

namespace p4all::sim {

/// A packet: one value per declared packet field, by PacketFieldId.
using Packet = std::vector<std::uint64_t>;

/// One placed register row, as enumerated by Pipeline::reg_rows() (the
/// elastic runtime's migration and snapshot layers walk these).
struct RegRowInfo {
    ir::RegisterId reg = ir::kNoId;
    std::int64_t instance = 0;
    std::int64_t elems = 0;
    int width = 32;
};

/// Executable pipeline compiled from a program + layout.
///
/// External inputs (packets via process(), controller reads/writes via
/// meta()/reg_read()/reg_write()) are validated: a wrong packet shape, an
/// unknown field or register name, or an out-of-range instance/index raises
/// a structured support::Error in the P4ALL-04xx range, never an
/// out-of-bounds access.
class Pipeline {
public:
    /// Builds the executable form. Throws support::CompileError if the
    /// layout references rows or chunks inconsistently (which audit_layout
    /// would also flag).
    ///
    /// `proofs` are register-bounds ProofFacts derived against this exact
    /// layout (CompileArtifacts::proofs): a register access whose proved
    /// fact matches the placed row runs without its per-packet bounds wrap.
    /// Pass an empty span for the fully checked interpreter.
    Pipeline(const ir::Program& prog, const compiler::Layout& layout,
             std::span<const verify::ProofFact> proofs = {});

    /// Processes one packet; returns the final PHV metadata (access values
    /// with meta()). Throws Error(Errc::SimPacketShape) if the packet's
    /// field count differs from the program's declaration.
    void process(const Packet& pkt);

    /// Value of a metadata field after the last process() call. For array
    /// fields pass the element index.
    [[nodiscard]] std::uint64_t meta(std::string_view field, std::int64_t index = 0) const;

    /// Whether a metadata chunk was materialized by this layout (meta()
    /// throws on unmaterialized chunks). Differential tests use this to
    /// compare only the slots both pipelines carry.
    [[nodiscard]] bool meta_materialized(std::string_view field, std::int64_t index = 0) const;

    /// Direct register-state access, for controller logic (e.g. NetCache
    /// cache insertion) and tests.
    [[nodiscard]] std::uint64_t reg_read(std::string_view reg, std::int64_t instance,
                                         std::int64_t index) const;
    void reg_write(std::string_view reg, std::int64_t instance, std::int64_t index,
                   std::uint64_t value);
    /// Element count of a placed register row (0 if the instance is absent;
    /// unknown register names throw).
    [[nodiscard]] std::int64_t reg_size(std::string_view reg, std::int64_t instance) const;
    /// Resets all register state to zero.
    void clear_registers();

    /// Every placed register row, ordered by (register id, instance) — the
    /// deterministic walk order used by snapshots and state migration.
    [[nodiscard]] std::vector<RegRowInfo> reg_rows() const;
    /// Read-only view of one row's cells.
    [[nodiscard]] std::span<const std::uint64_t> reg_row_data(ir::RegisterId reg,
                                                              std::int64_t instance) const;
    /// Replaces one row's cells (values are masked to the register width).
    /// `values` must match the placed element count exactly.
    void reg_row_assign(ir::RegisterId reg, std::int64_t instance,
                        std::span<const std::uint64_t> values);

    [[nodiscard]] std::uint64_t packets_processed() const noexcept { return packets_; }
    [[nodiscard]] const ir::Program& program() const noexcept { return prog_; }

    /// Static register accesses running without a per-packet bounds wrap
    /// because a matching proved ProofFact covered them.
    [[nodiscard]] std::size_t bounds_checks_elided() const noexcept { return elided_; }

    /// Size of the compiled per-packet program: placed action instances and
    /// total primitive ops executed per packet. The optimizer's wins show up
    /// here (fewer ops, same behavior); benches and tests assert on it.
    [[nodiscard]] std::size_t compiled_instance_count() const noexcept;
    [[nodiscard]] std::size_t compiled_op_count() const noexcept;

private:
    struct RegState {
        std::int64_t elems = 0;
        std::uint64_t mask = ~0ULL;
        std::vector<std::uint64_t> data;
    };

    /// Resolved operand: where a value comes from at execution time.
    struct Operand {
        enum class Kind { Meta, PacketField, Literal } kind = Kind::Literal;
        int slot = 0;               // meta slot or packet field id
        std::int64_t literal = 0;
    };

    /// How a register index is brought in range per packet: `Modulo` is the
    /// checked interpreter; `Mask` is the power-of-two strength reduction
    /// (applied to checked and proved engines alike, keeping the proved-vs-
    /// checked comparison honest); `None` means a proved ProofFact showed
    /// the wrap can never fire.
    enum class IndexWrap { Modulo, Mask, None };

    struct CompiledOp {
        ir::PrimKind kind = ir::PrimKind::Set;
        int dst_slot = -1;
        int reg = -1;  // index into reg_rows_
        Operand reg_index;
        std::vector<Operand> srcs;
        std::uint64_t seed = 0;
        std::uint64_t modulus = 0;       // resolved hash range
        std::uint64_t modulus_mask = 0;  // modulus - 1 when it is a power of two
        std::uint64_t dst_mask = ~0ULL;
        IndexWrap wrap = IndexWrap::Modulo;
        std::uint64_t wrap_mask = 0;     // elems - 1 when wrap == Mask
    };

    struct CompiledGuard {
        ir::CmpOp op = ir::CmpOp::Eq;
        Operand lhs;
        Operand rhs;
    };

    struct CompiledInstance {
        std::vector<CompiledGuard> guards;
        std::vector<CompiledOp> ops;
    };

    struct Stage {
        std::vector<CompiledInstance> instances;
    };

    [[nodiscard]] int meta_slot(ir::MetaFieldId field, std::int64_t index) const;
    /// Validates name + instance + index, throwing the 04xx-range errors.
    [[nodiscard]] const RegState& checked_row(std::string_view reg, std::int64_t instance,
                                              std::int64_t index) const;
    [[nodiscard]] Operand resolve(const ir::Value& v, std::int64_t param) const;
    [[nodiscard]] std::uint64_t read(const Operand& op, const std::vector<std::uint64_t>& phv,
                                     const Packet& pkt) const;

    const ir::Program& prog_;
    std::vector<Stage> stages_;
    std::map<std::pair<ir::MetaFieldId, std::int64_t>, int> meta_slots_;
    std::vector<std::uint64_t> meta_masks_;   // per slot
    std::map<std::pair<ir::RegisterId, std::int64_t>, int> reg_index_;
    std::vector<RegState> reg_rows_;
    // Per-packet buffers, sized at construction (process() never allocates):
    std::vector<std::uint64_t> phv_;          // pre-stage PHV; last packet's metadata
    std::vector<std::uint64_t> overlay_;      // phv_ plus the running instance's writes
    std::vector<std::pair<std::size_t, std::uint64_t>> writes_;  // stage write log (slot, value)
    std::vector<std::uint64_t> hash_words_;   // hash operands
    std::uint64_t packets_ = 0;
    std::size_t elided_ = 0;
};

}  // namespace p4all::sim
