// The end-to-end P4All compiler driver (Figure 8).
//
//   P4All source ──parse──▶ AST ──elaborate──▶ IR
//       ──unroll bounds (§4.2)──▶ U_v
//       ──generate ILP (§4.3, Figure 10)──▶ MILP
//       ──branch & bound──▶ optimal symbolic assignment + stage mapping
//       ──codegen──▶ concrete P4 + Layout
//
// The driver also records the statistics reported in the paper's Figure 11
// (compile time, ILP variable/constraint counts).
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "analysis/unroll.hpp"
#include "compiler/artifacts.hpp"
#include "compiler/ilpgen.hpp"
#include "compiler/layout.hpp"
#include "ilp/solver.hpp"
#include "ir/elaborate.hpp"
#include "target/spec.hpp"

namespace p4all::compiler {

enum class Backend {
    Ilp,         // exact: Figure 10 MILP via branch-and-bound
    Greedy,      // heuristic: list scheduling + element stretching
    Exhaustive,  // reference: full integer enumeration (tiny models only)
};

struct CompileOptions {
    target::TargetSpec target = target::tofino_like();
    analysis::UnrollOptions unroll;
    ilp::SolveOptions solve;
    IlpGenOptions ilpgen;
    Backend backend = Backend::Ilp;
    /// Whole-pipeline cooperative cutoff: merged into the solve deadline and
    /// also checked by the greedy backend and codegen, so every phase — not
    /// just the MILP search — honors a caller's budget or cancel request.
    support::Deadline deadline;
    /// Combination cap for Backend::Exhaustive; larger domains yield a
    /// structured DomainTooLarge failure (the portfolio driver's cue to skip).
    std::int64_t exhaustive_max_combinations = 4096;
    /// IR optimization level: 0 compiles the elaborated IR as-is, 1 (the
    /// default) runs the certificate-carrying optimizer (src/opt/) between
    /// elaboration and layout generation. The certificate chain rides in
    /// the artifacts and is replayed by the rewrite-validity audit pass.
    int opt_level = 1;
};

struct CompileStats {
    std::vector<std::int64_t> unroll_bounds;  // indexed by SymbolId
    int ilp_vars = 0;
    int ilp_constraints = 0;
    std::int64_t bb_nodes = 0;
    std::int64_t lp_iterations = 0;
    double elaborate_seconds = 0.0;
    double opt_seconds = 0.0;
    double bounds_seconds = 0.0;
    double ilpgen_seconds = 0.0;
    double solve_seconds = 0.0;
    double total_seconds = 0.0;
};

struct CompileResult {
    ir::Program program;     // elaborated IR (bindings index into its symbols)
    Layout layout;
    double utility = 0.0;    // achieved value of the optimize expression
    std::string p4_source;   // generated concrete P4
    CompileStats stats;
    /// The compiler's auditable claims (model, incumbent, certificate, usage)
    /// for the independent audit layer (src/audit/); every compile records
    /// them. Shared so callers can keep it alive past the result (the audit
    /// passes borrow it).
    std::shared_ptr<const CompileArtifacts> artifacts;
    /// Fallback-portfolio account; empty unless compile_resilient produced
    /// this result (compiler/resilient.hpp).
    ResilienceReport resilience;
};

/// Compiles a parsed P4All program. Throws support::CompileError when the
/// program is malformed or cannot fit the target at any size satisfying its
/// assume constraints. Every layout is checked against every constraint
/// (audit_layout) before it ships; a violation throws Errc::AuditRejected
/// (a compiler bug, not a user error).
[[nodiscard]] CompileResult compile(const lang::Program& ast, const CompileOptions& options = {},
                                    const std::string& name = "program");

/// Parses and compiles source text.
[[nodiscard]] CompileResult compile_source(std::string_view source,
                                           const CompileOptions& options = {},
                                           const std::string& name = "program");

}  // namespace p4all::compiler
