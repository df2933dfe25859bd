#include "ilp/reference/lp.hpp"

#include <gtest/gtest.h>

namespace bofl::ilp::reference {
namespace {

LpProblem two_var_problem() {
  // minimize -x - 2y  s.t. x + y <= 4, x <= 2, y <= 3, x,y >= 0.
  LpProblem p;
  p.objective = {-1.0, -2.0};
  p.constraints.push_back({{1.0, 1.0}, Relation::kLessEqual, 4.0});
  p.constraints.push_back({{1.0, 0.0}, Relation::kLessEqual, 2.0});
  p.constraints.push_back({{0.0, 1.0}, Relation::kLessEqual, 3.0});
  return p;
}

TEST(SimplexLp, SolvesBasicMaximization) {
  const LpSolution s = solve_lp(two_var_problem());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 1.0, 1e-9);
  EXPECT_NEAR(s.x[1], 3.0, 1e-9);
  EXPECT_NEAR(s.objective, -7.0, 1e-9);
}

TEST(SimplexLp, HandlesEqualityConstraints) {
  // minimize x + 2y s.t. x + y == 5, x <= 3.
  LpProblem p;
  p.objective = {1.0, 2.0};
  p.constraints.push_back({{1.0, 1.0}, Relation::kEqual, 5.0});
  p.constraints.push_back({{1.0, 0.0}, Relation::kLessEqual, 3.0});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
  EXPECT_NEAR(s.x[1], 2.0, 1e-9);
  EXPECT_NEAR(s.objective, 7.0, 1e-9);
}

TEST(SimplexLp, HandlesGreaterEqual) {
  // minimize 3x + 2y s.t. x + y >= 4, x >= 1.
  LpProblem p;
  p.objective = {3.0, 2.0};
  p.constraints.push_back({{1.0, 1.0}, Relation::kGreaterEqual, 4.0});
  p.constraints.push_back({{1.0, 0.0}, Relation::kGreaterEqual, 1.0});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 1.0, 1e-9);
  EXPECT_NEAR(s.x[1], 3.0, 1e-9);
  EXPECT_NEAR(s.objective, 9.0, 1e-9);
}

TEST(SimplexLp, DetectsInfeasible) {
  LpProblem p;
  p.objective = {1.0};
  p.constraints.push_back({{1.0}, Relation::kLessEqual, 1.0});
  p.constraints.push_back({{1.0}, Relation::kGreaterEqual, 2.0});
  EXPECT_EQ(solve_lp(p).status, LpStatus::kInfeasible);
}

TEST(SimplexLp, DetectsUnbounded) {
  LpProblem p;
  p.objective = {-1.0};  // minimize -x with x unbounded above
  p.constraints.push_back({{1.0}, Relation::kGreaterEqual, 0.0});
  EXPECT_EQ(solve_lp(p).status, LpStatus::kUnbounded);
}

TEST(SimplexLp, NegativeRhsNormalization) {
  // x >= 2 written as -x <= -2.
  LpProblem p;
  p.objective = {1.0};
  p.constraints.push_back({{-1.0}, Relation::kLessEqual, -2.0});
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
}

TEST(SimplexLp, DegenerateConstraintsDoNotCycle) {
  // Classic degeneracy: multiple constraints active at the optimum.
  LpProblem p;
  p.objective = {-0.75, 150.0, -0.02, 6.0};
  p.constraints.push_back(
      {{0.25, -60.0, -0.04, 9.0}, Relation::kLessEqual, 0.0});
  p.constraints.push_back(
      {{0.5, -90.0, -0.02, 3.0}, Relation::kLessEqual, 0.0});
  p.constraints.push_back({{0.0, 0.0, 1.0, 0.0}, Relation::kLessEqual, 1.0});
  const LpSolution s = solve_lp(p);
  // Beale's cycling example: Bland's rule must terminate at optimum -0.05.
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-9);
}

TEST(SimplexLp, RedundantEqualityRows) {
  LpProblem p;
  p.objective = {1.0, 1.0};
  p.constraints.push_back({{1.0, 1.0}, Relation::kEqual, 2.0});
  p.constraints.push_back({{2.0, 2.0}, Relation::kEqual, 4.0});  // redundant
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(SimplexLp, RejectsMalformedInput) {
  LpProblem p;
  p.objective = {1.0, 1.0};
  p.constraints.push_back({{1.0}, Relation::kLessEqual, 1.0});
  EXPECT_THROW((void)solve_lp(p), std::invalid_argument);
  EXPECT_THROW((void)solve_lp(LpProblem{}), std::invalid_argument);
}

TEST(SimplexLp, SchedulerShapedProblem) {
  // The exact LP shape BoFL solves: job-count equality + latency budget.
  LpProblem p;
  p.objective = {4.0, 3.5, 3.2};                       // energy per job
  p.constraints.push_back({{1.0, 1.0, 1.0}, Relation::kEqual, 100.0});
  p.constraints.push_back(
      {{0.2, 0.3, 0.4}, Relation::kLessEqual, 26.0});  // deadline
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  // All-jobs constraint must hold exactly.
  EXPECT_NEAR(s.x[0] + s.x[1] + s.x[2], 100.0, 1e-9);
  EXPECT_LE(0.2 * s.x[0] + 0.3 * s.x[1] + 0.4 * s.x[2], 26.0 + 1e-9);
  // LP optimum mixes the fastest and the middle config (40 jobs at 0.2s/4J,
  // 60 jobs at 0.3s/3.5J): energy 370, beating the fast/cheap mix (376).
  EXPECT_NEAR(s.objective, 4.0 * 40.0 + 3.5 * 60.0, 1e-6);
}

}  // namespace
}  // namespace bofl::ilp::reference
