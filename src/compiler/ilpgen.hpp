// ILP generation (Figure 10): lowers the unrolled program + target limits
// to a MILP whose optimum is the best feasible layout and symbolic-value
// assignment under the program's utility function.
//
// Variables
//   x[n,s]    binary   node n (register-sharing group of action instances)
//                      placed in stage s   (#1, grouped by constraint #4)
//   y[v,i]    binary   iteration i of loops over symbol v instantiated (#3)
//   n_e[w]    integer  element count of element-symbol w
//   e[r,i]    cont.    elements of register row (r,i): n_e[w]·(instantiated)
//   me[r,i,s] cont.    memory bits of row (r,i) charged to stage s (#2)
//   d[c]      binary   elastic metadata chunk c carried in the PHV (#3)
//
// Constraints (numbers from the paper's Figure 10)
//   #4  register-sharing instances share a node (structural, via grouping)
//   #5  exclusion:      x[n1,s] + x[n2,s] ≤ 1
//   #6  precedence:     stage(n2) ≥ stage(n1) + 1 − S·(2 − placed1 − placed2)
//       (plus weak ≥ 0 variant for write-after-read edges — extension)
//   #7  conditional:    Σ_s x[n,s] = y[v,i] for each elastic member
//   #8  memory/stage:   Σ me[·,s] + Σ const·x ≤ M
//   #9  co-location:    me[r,i,s] ≥ w·e[r,i] − M·(1 − x[n,s])
//   #10 equal row size: e[r,i] pinned to the shared n_e[w]
//   #11 stateful ALUs:  Σ H_f(n)·x[n,s] ≤ F
//   #12 stateless ALUs: Σ H_l(n)·x[n,s] ≤ L  (plus hash units ≤ H)
//   #13 PHV budget:     Σ bits(c)·d[c] ≤ P − P_fixed
//   #14 PHV use:        d[c] ≥ placed[n] for nodes touching chunk c
//   #15 place once:     Σ_s x[n,s] ≤ 1 (implied by #7 / #17)
//   #16 iteration order: y[v,i+1] ≤ y[v,i]
//   #17 inelastic:      Σ_s x[n,s] = 1
//   plus every `assume` constraint and the `optimize` objective, lowered
//   through the symbol mapping v ↦ Σ_i y[v,i], w ↦ n_e[w],
//   v·w ↦ Σ_i e[r,i] (register-matrix size).
//
// Derived rows (valid for every integer point of the rows above; they only
// tighten the LP relaxation, and the ilp-formulation-rows audit pass
// re-derives each one from the IR)
//   eqsize_*  e[r1,i] = e[r2,i] for register rows sharing an element symbol
//             and a gate: both equal n_e when the gate is 1, both 0 when not.
//   pigeon_*  for a group of R_max live rows of width w whose element symbols
//             are tied by `assume a == b` (one count n), with S < R_max ≤ 2S:
//             2w(R_max−S)·n + M·Σ gates ≤ M·(2R_max − S). Once more than S
//             rows are placed some stage holds two of them, so 2·w·n ≤ M;
//             the row interpolates n ≤ M/w at S rows and n ≤ M/(2w) at R_max.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "analysis/depgraph.hpp"
#include "ilp/model.hpp"
#include "ilp/solver.hpp"
#include "compiler/layout.hpp"

namespace p4all::compiler {

struct IlpGenOptions {
    /// Restrict x[n,s] to the stage window implied by precedence depth —
    /// a presolve that shrinks the model without cutting any feasible
    /// layout. Ablated in bench/ablate_presolve.
    bool stage_windows = true;
};

/// The generated model plus the bookkeeping needed to read a layout back
/// out of a solution.
struct GeneratedIlp {
    ilp::Model model;
    analysis::DepGraph graph;
    std::vector<std::int64_t> bounds;  // U_v used, indexed by SymbolId

    /// x[node][stage]; invalid Var outside the node's window.
    std::vector<std::vector<ilp::Var>> x;
    /// y[(v, iteration)].
    std::map<std::pair<ir::SymbolId, std::int64_t>, ilp::Var> y;
    /// n_e[w] for element symbols.
    std::map<ir::SymbolId, ilp::Var> elem_count;
    /// e[(register, row)] for rows with symbolic element counts.
    std::map<std::pair<ir::RegisterId, std::int64_t>, ilp::Var> row_elems;
    /// Register rows owned by each node (row -> owning node id).
    std::map<std::pair<ir::RegisterId, std::int64_t>, int> row_owner;
    /// d[chunk] PHV indicators for elastic metadata chunks.
    std::map<analysis::MetaChunk, ilp::Var> d;
};

/// Builds the MILP for `prog` on `target` with unroll bounds `bounds`
/// (indexed by SymbolId, from analysis::unroll_bounds_all). Throws
/// support::CompileError for programs whose dependence structure is
/// contradictory.
[[nodiscard]] GeneratedIlp generate_ilp(const ir::Program& prog,
                                        const target::TargetSpec& target,
                                        const std::vector<std::int64_t>& bounds,
                                        const IlpGenOptions& options = {});

/// Reads the optimal layout out of a solved model.
[[nodiscard]] Layout extract_layout(const ir::Program& prog, const target::TargetSpec& target,
                                    const GeneratedIlp& gen, const ilp::Solution& solution);

/// Maps a known-feasible layout (e.g. from the greedy backend) onto the
/// generated model's variables, for use as a branch-and-bound warm start.
/// The result is only used if it passes the model's feasibility check.
[[nodiscard]] std::vector<double> warm_start_values(const ir::Program& prog,
                                                    const GeneratedIlp& gen,
                                                    const Layout& layout);

}  // namespace p4all::compiler
