#include "ilp/reference/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "ilp/reference/branch_and_bound.hpp"

namespace bofl::ilp::reference {

namespace {

/// Indices of profiles not Pareto-dominated in (energy, latency).
std::vector<std::size_t> efficient_profiles(
    const std::vector<ConfigProfile>& profiles) {
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < profiles.size() && !dominated; ++j) {
      if (i == j) {
        continue;
      }
      const bool no_worse =
          profiles[j].energy_per_job <= profiles[i].energy_per_job &&
          profiles[j].latency_per_job <= profiles[i].latency_per_job;
      const bool strictly_better =
          profiles[j].energy_per_job < profiles[i].energy_per_job ||
          profiles[j].latency_per_job < profiles[i].latency_per_job;
      // Tie-break exact duplicates by index so exactly one survives.
      const bool duplicate_priority =
          profiles[j].energy_per_job == profiles[i].energy_per_job &&
          profiles[j].latency_per_job == profiles[i].latency_per_job && j < i;
      dominated = (no_worse && strictly_better) || duplicate_priority;
    }
    if (!dominated) {
      kept.push_back(i);
    }
  }
  return kept;
}

Schedule finalize(const std::vector<ConfigProfile>& profiles,
                  const std::vector<std::size_t>& kept,
                  const std::vector<std::int64_t>& counts) {
  Schedule schedule;
  schedule.feasible = true;
  for (std::size_t k = 0; k < kept.size(); ++k) {
    if (counts[k] > 0) {
      const std::size_t original = kept[k];
      schedule.assignments.emplace_back(original, counts[k]);
      const auto jobs = static_cast<double>(counts[k]);
      schedule.total_energy += jobs * profiles[original].energy_per_job;
      schedule.total_latency += jobs * profiles[original].latency_per_job;
    }
  }
  return schedule;
}

}  // namespace

LpProblem round_problem(const std::vector<ConfigProfile>& profiles,
                        std::int64_t num_jobs, double deadline_seconds) {
  const std::size_t k = profiles.size();
  LpProblem problem;
  problem.objective.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    problem.objective[i] = profiles[i].energy_per_job;
  }
  LpConstraint all_jobs;
  all_jobs.coefficients.assign(k, 1.0);
  all_jobs.relation = Relation::kEqual;
  all_jobs.rhs = static_cast<double>(num_jobs);
  problem.constraints.push_back(std::move(all_jobs));
  LpConstraint deadline;
  deadline.coefficients.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    deadline.coefficients[i] = profiles[i].latency_per_job;
  }
  deadline.relation = Relation::kLessEqual;
  deadline.rhs = deadline_seconds;
  problem.constraints.push_back(std::move(deadline));
  return problem;
}

PrunedProfiles prune_dominated_profiles(
    const std::vector<ConfigProfile>& profiles) {
  PrunedProfiles pruned;
  pruned.kept = efficient_profiles(profiles);
  pruned.profiles.reserve(pruned.kept.size());
  for (std::size_t i : pruned.kept) {
    pruned.profiles.push_back(profiles[i]);
  }
  return pruned;
}

Schedule solve_round_schedule_pruned(const std::vector<ConfigProfile>& pruned,
                                     std::int64_t num_jobs,
                                     double deadline_seconds,
                                     const IlpOptions& options) {
  BOFL_REQUIRE(!pruned.empty(), "need at least one configuration profile");
  BOFL_REQUIRE(num_jobs >= 0, "job count must be non-negative");
  BOFL_REQUIRE(deadline_seconds >= 0.0, "deadline must be non-negative");
  for (const ConfigProfile& p : pruned) {
    BOFL_REQUIRE(p.energy_per_job >= 0.0 && p.latency_per_job > 0.0,
                 "profiles need non-negative energy and positive latency");
  }
  if (num_jobs == 0) {
    Schedule empty;
    empty.feasible = true;
    return empty;
  }

  const std::vector<ConfigProfile>& profiles = pruned;
  const std::size_t k = profiles.size();

  // Quick feasibility check: the fastest profile bounds what any schedule
  // can achieve.
  double fastest = std::numeric_limits<double>::infinity();
  for (const ConfigProfile& p : profiles) {
    fastest = std::min(fastest, p.latency_per_job);
  }
  if (fastest * static_cast<double>(num_jobs) > deadline_seconds + 1e-9) {
    return {};
  }

  const LpProblem problem =
      round_problem(profiles, num_jobs, deadline_seconds);
  IlpOptions tuned = options;
  if (tuned.relative_gap == 0.0) {
    // 0.01 % energy tolerance — two orders of magnitude below the power
    // sensor's noise floor.  Without it the branch-and-bound burns
    // thousands of nodes certifying the last hundredth of a joule on dense
    // Pareto fronts (the warm start below is already optimal or within a
    // whisker of it).
    tuned.relative_gap = 1e-4;
  }
  if (tuned.warm_start.empty()) {
    // Warm start with the best two-profile mix, found exactly in O(k^2):
    // the LP optimum of a 2-constraint problem mixes at most two profiles,
    // so this incumbent is almost always the true integer optimum and the
    // branch-and-bound merely certifies it.
    double best_energy = std::numeric_limits<double>::infinity();
    std::vector<std::int64_t> best(k, 0);
    bool found = false;
    const auto jobs = static_cast<double>(num_jobs);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        const double ti = profiles[i].latency_per_job;
        const double tj = profiles[j].latency_per_job;
        const double ei = profiles[i].energy_per_job;
        const double ej = profiles[j].energy_per_job;
        // n jobs at profile i, the rest at j; the deadline needs
        //   n * ti + (W - n) * tj <= D.
        std::int64_t n = 0;
        if (i == j) {
          if (ti * jobs > deadline_seconds + 1e-9) {
            continue;
          }
          n = num_jobs;
        } else if (ti < tj) {
          // Need enough fast jobs: n >= (W * tj - D) / (tj - ti).
          const double lower = (jobs * tj - deadline_seconds) / (tj - ti);
          n = std::max<std::int64_t>(
              0, static_cast<std::int64_t>(std::ceil(lower - 1e-9)));
          if (n > num_jobs) {
            continue;
          }
          // Energy is linear in n: take the cheaper end of [n, W].
          if (ei < ej) {
            n = num_jobs;
          }
        } else {
          continue;  // covered by the symmetric (j, i) case
        }
        const auto n_d = static_cast<double>(n);
        const double energy = ei * n_d + ej * (jobs - n_d);
        if (energy < best_energy) {
          best_energy = energy;
          std::fill(best.begin(), best.end(), 0);
          best[i] += n;
          best[j] += num_jobs - n;
          found = true;
        }
      }
    }
    if (found) {
      tuned.warm_start = std::move(best);  // validated inside solve_ilp
    }
  }

  const IlpSolution ilp = solve_ilp(problem, tuned);
  if (ilp.status != IlpStatus::kOptimal) {
    return {};
  }
  std::vector<std::size_t> identity(k);
  for (std::size_t i = 0; i < k; ++i) {
    identity[i] = i;
  }
  return finalize(profiles, identity, ilp.x);
}

}  // namespace bofl::ilp::reference
