#include "ilp/reference/branch_and_bound.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace bofl::ilp::reference {
namespace {

TEST(BranchAndBound, IntegralRelaxationNeedsNoBranching) {
  LpProblem p;
  p.objective = {1.0, 1.0};
  p.constraints.push_back({{1.0, 1.0}, Relation::kEqual, 4.0});
  const IlpSolution s = solve_ilp(p);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_EQ(s.x[0] + s.x[1], 4);
  EXPECT_NEAR(s.objective, 4.0, 1e-9);
}

TEST(BranchAndBound, FractionalRelaxationGetsRounded) {
  // minimize -x - y s.t. 2x + y <= 5, x + 2y <= 5: LP optimum (5/3, 5/3),
  // integer optimum value -3 (e.g. (2,1) or (1,2)).
  LpProblem p;
  p.objective = {-1.0, -1.0};
  p.constraints.push_back({{2.0, 1.0}, Relation::kLessEqual, 5.0});
  p.constraints.push_back({{1.0, 2.0}, Relation::kLessEqual, 5.0});
  const IlpSolution s = solve_ilp(p);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -3.0, 1e-9);
  EXPECT_EQ(s.x[0] + s.x[1], 3);
}

TEST(BranchAndBound, KnapsackAgainstBruteForce) {
  // minimize -(values) with one weight constraint: a knapsack.
  const std::vector<double> value{6.0, 10.0, 12.0};
  const std::vector<double> weight{1.0, 2.0, 3.0};
  const double capacity = 5.0;
  LpProblem p;
  p.objective = {-value[0], -value[1], -value[2]};
  p.constraints.push_back({weight, Relation::kLessEqual, capacity});
  // Also bound each variable to <= 3 to keep brute force tiny.
  for (std::size_t i = 0; i < 3; ++i) {
    LpConstraint c;
    c.coefficients.assign(3, 0.0);
    c.coefficients[i] = 1.0;
    c.relation = Relation::kLessEqual;
    c.rhs = 3.0;
    p.constraints.push_back(c);
  }
  const IlpSolution s = solve_ilp(p);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);

  double best = 0.0;
  for (int a = 0; a <= 3; ++a) {
    for (int b = 0; b <= 3; ++b) {
      for (int c = 0; c <= 3; ++c) {
        if (a * weight[0] + b * weight[1] + c * weight[2] <= capacity) {
          best = std::min(best,
                          -(a * value[0] + b * value[1] + c * value[2]));
        }
      }
    }
  }
  EXPECT_NEAR(s.objective, best, 1e-9);
}

TEST(BranchAndBound, DetectsInfeasible) {
  LpProblem p;
  p.objective = {1.0};
  p.constraints.push_back({{2.0}, Relation::kEqual, 3.0});  // x = 1.5 only
  // The LP relaxation is feasible (x = 1.5) but no integer solution exists.
  const IlpSolution s = solve_ilp(p);
  EXPECT_EQ(s.status, IlpStatus::kInfeasible);
}

TEST(BranchAndBound, InfeasibleLpPropagates) {
  LpProblem p;
  p.objective = {1.0};
  p.constraints.push_back({{1.0}, Relation::kLessEqual, 1.0});
  p.constraints.push_back({{1.0}, Relation::kGreaterEqual, 2.0});
  EXPECT_EQ(solve_ilp(p).status, IlpStatus::kInfeasible);
}

TEST(BranchAndBound, NodeLimitReported) {
  // A problem engineered to branch: tiny node budget must be respected.
  LpProblem p;
  p.objective = {-1.0, -1.0, -1.0};
  p.constraints.push_back(
      {{3.0, 5.0, 7.0}, Relation::kLessEqual, 19.0});
  IlpOptions options;
  options.max_nodes = 1;
  const IlpSolution s = solve_ilp(p, options);
  EXPECT_LE(s.nodes_explored, 1u);
}

TEST(BranchAndBound, FeasibleWarmStartBoundsTheSearch) {
  // minimize x + y s.t. x + y == 6: warm start at the optimum means the
  // search never needs to find a better incumbent.
  LpProblem p;
  p.objective = {1.0, 1.0};
  p.constraints.push_back({{1.0, 1.0}, Relation::kEqual, 6.0});
  IlpOptions options;
  options.warm_start = {2, 4};
  const IlpSolution s = solve_ilp(p, options);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 6.0, 1e-9);
}

TEST(BranchAndBound, InfeasibleWarmStartIsIgnored) {
  LpProblem p;
  p.objective = {1.0};
  p.constraints.push_back({{1.0}, Relation::kEqual, 3.0});
  IlpOptions options;
  options.warm_start = {99};  // violates the equality
  const IlpSolution s = solve_ilp(p, options);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_EQ(s.x[0], 3);
}

TEST(BranchAndBound, WarmStartSurvivesWhenSearchCannotBeatIt) {
  // Node budget zero: only the warm start can provide the answer.
  LpProblem p;
  p.objective = {-1.0, -1.0};
  p.constraints.push_back({{2.0, 1.0}, Relation::kLessEqual, 5.0});
  p.constraints.push_back({{1.0, 2.0}, Relation::kLessEqual, 5.0});
  IlpOptions options;
  options.warm_start = {1, 1};  // feasible, value -2 (true optimum is -3)
  options.max_nodes = 0;
  const IlpSolution s = solve_ilp(p, options);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-9);
}

TEST(BranchAndBound, RelativeGapAcceptsNearOptimalIncumbent) {
  // With a huge relative gap, the warm start is accepted immediately and
  // no nodes are needed to certify it.
  LpProblem p;
  p.objective = {1.0, 1.000001};
  p.constraints.push_back({{1.0, 1.0}, Relation::kEqual, 10.0});
  IlpOptions options;
  options.warm_start = {0, 10};  // within 1e-5 of the optimum
  options.relative_gap = 1e-3;
  const IlpSolution s = solve_ilp(p, options);
  ASSERT_EQ(s.status, IlpStatus::kOptimal);
  EXPECT_LE(s.nodes_explored, 1u);
}

// Randomized cross-validation against brute force on 2-variable problems.
class BnbRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BnbRandomized, MatchesBruteForce) {
  Rng rng(GetParam() * 97 + 13);
  const double c0 = rng.uniform(0.5, 5.0);
  const double c1 = rng.uniform(0.5, 5.0);
  const double a0 = rng.uniform(0.5, 3.0);
  const double a1 = rng.uniform(0.5, 3.0);
  const double cap = rng.uniform(5.0, 20.0);
  const auto total = static_cast<double>(rng.uniform_int(3, 12));

  LpProblem p;
  p.objective = {c0, c1};
  p.constraints.push_back({{1.0, 1.0}, Relation::kEqual, total});
  p.constraints.push_back({{a0, a1}, Relation::kLessEqual, cap});
  const IlpSolution s = solve_ilp(p);

  double best = std::numeric_limits<double>::infinity();
  const auto n = static_cast<int>(total);
  for (int x = 0; x <= n; ++x) {
    const int y = n - x;
    if (a0 * x + a1 * y <= cap + 1e-9) {
      best = std::min(best, c0 * x + c1 * y);
    }
  }
  if (std::isinf(best)) {
    EXPECT_EQ(s.status, IlpStatus::kInfeasible);
  } else {
    ASSERT_EQ(s.status, IlpStatus::kOptimal);
    EXPECT_NEAR(s.objective, best, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbRandomized,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace bofl::ilp::reference
