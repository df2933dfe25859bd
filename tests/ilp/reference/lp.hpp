// Reference dense linear programming via the two-phase primal simplex
// method (test oracle).
//
// The round-schedule branch and bound (ilp/branch_and_bound.cpp) replays
// this solver's arithmetic on the round problem; the differential tests
// compare the two.  Problems are tiny (a handful of constraints, tens of
// variables), so a dense tableau with Bland's anti-cycling rule is simple
// and exact enough.
//
// Canonical form accepted:   minimize c^T x
//                            s.t.  a_i^T x  {<=, ==, >=}  b_i   for each row
//                                  x >= 0
#pragma once

#include <vector>

namespace bofl::ilp::reference {

enum class Relation { kLessEqual, kEqual, kGreaterEqual };

struct LpConstraint {
  std::vector<double> coefficients;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

struct LpProblem {
  /// Objective coefficients (minimization).
  std::vector<double> objective;
  std::vector<LpConstraint> constraints;

  [[nodiscard]] std::size_t num_variables() const { return objective.size(); }
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  std::vector<double> x;       ///< valid iff status == kOptimal
  double objective = 0.0;      ///< valid iff status == kOptimal
};

/// Solve with two-phase primal simplex.  Right-hand sides may be negative
/// (rows are normalized internally).  Throws std::invalid_argument on
/// malformed input (mismatched row widths).
[[nodiscard]] LpSolution solve_lp(const LpProblem& problem);

}  // namespace bofl::ilp::reference
