// Reference generic branch-and-bound ILP on top of the simplex LP (test
// oracle).
//
// All variables are required to be non-negative integers.  The solver
// performs best-first branch and bound: each node's LP relaxation gives a
// lower bound; a fractional variable is branched into floor/ceil children
// by appending bound constraints to a copy of the problem.
// ilp/branch_and_bound.cpp specializes this search to the round problem;
// the differential tests require it to reproduce this one node for node.
#pragma once

#include "ilp/branch_and_bound.hpp"
#include "ilp/reference/lp.hpp"

namespace bofl::ilp::reference {

/// Minimize problem.objective over non-negative integer vectors satisfying
/// problem.constraints, with the production IlpOptions semantics.  The
/// continuous relaxation must be bounded (the schedule problems always are
/// because of the job-count equality).
[[nodiscard]] IlpSolution solve_ilp(const LpProblem& problem,
                                    const IlpOptions& options = {});

}  // namespace bofl::ilp::reference
