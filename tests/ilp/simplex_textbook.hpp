// LP oracle for the differential tests: the textbook two-phase tableau
// simplex with explicit upper-bound rows. Much slower than the production
// engine in src/ilp; shares none of its code, so an agreement between it and
// solve_lp_sparse is a check by an independent implementation.
#pragma once

#include <vector>

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"

namespace p4all::ilp {

/// Same contract as solve_lp_sparse (statuses, values, duals, deadline, the
/// simplex.pivot fault point); ignores warm starts and basis capture.
[[nodiscard]] LpResult solve_lp_textbook(const Model& model,
                                         const std::vector<double>* lb = nullptr,
                                         const std::vector<double>* ub = nullptr,
                                         const LpOptions& options = {});

}  // namespace p4all::ilp
