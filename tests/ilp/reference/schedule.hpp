// Reference round-schedule path (test oracle): the schedule solver built
// on the generic LP and branch and bound — the O(k^2) pairwise dominance
// prune, and the round problem handed to solve_ilp as dense rows.
// Production (ilp/schedule_solver.hpp) must reproduce it bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "ilp/reference/lp.hpp"
#include "ilp/schedule_solver.hpp"

namespace bofl::ilp::reference {

/// The round problem as dense rows: sum x = W, then t.x <= D.
[[nodiscard]] LpProblem round_problem(const std::vector<ConfigProfile>& profiles,
                                      std::int64_t num_jobs,
                                      double deadline_seconds);

/// Pairwise O(k^2) definition of prune_dominated_profiles.
[[nodiscard]] PrunedProfiles prune_dominated_profiles(
    const std::vector<ConfigProfile>& profiles);

/// solve_round_schedule_pruned with every node solved by the generic
/// solve_ilp.
[[nodiscard]] Schedule solve_round_schedule_pruned(
    const std::vector<ConfigProfile>& pruned, std::int64_t num_jobs,
    double deadline_seconds, const IlpOptions& options = {});

}  // namespace bofl::ilp::reference
