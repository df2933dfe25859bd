#include "ilp/schedule_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace bofl::ilp {

namespace {

/// Indices of profiles not Pareto-dominated in (energy, latency), in input
/// order.  In (energy, latency, index) order every profile that could
/// dominate a profile — or precede it as an exact duplicate — comes before
/// it, so a profile survives iff its latency is strictly below the running
/// minimum.  A profile with a NaN field dominates nothing and is never
/// dominated; it is kept and left out of the sweep.
std::vector<std::size_t> efficient_profiles(
    const std::vector<ConfigProfile>& profiles) {
  std::vector<char> keep(profiles.size(), 0);
  std::vector<std::size_t> order;
  order.reserve(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (std::isnan(profiles[i].energy_per_job) ||
        std::isnan(profiles[i].latency_per_job)) {
      keep[i] = 1;
    } else {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const ConfigProfile& pa = profiles[a];
    const ConfigProfile& pb = profiles[b];
    if (pa.energy_per_job != pb.energy_per_job) {
      return pa.energy_per_job < pb.energy_per_job;
    }
    if (pa.latency_per_job != pb.latency_per_job) {
      return pa.latency_per_job < pb.latency_per_job;
    }
    return a < b;
  });
  double fastest = std::numeric_limits<double>::infinity();
  for (std::size_t i : order) {
    if (profiles[i].latency_per_job < fastest) {
      fastest = profiles[i].latency_per_job;
      keep[i] = 1;
    }
  }
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (keep[i] != 0) {
      kept.push_back(i);
    }
  }
  return kept;
}

Schedule finalize(const std::vector<ConfigProfile>& profiles,
                  const std::vector<std::int64_t>& counts) {
  Schedule schedule;
  schedule.feasible = true;
  for (std::size_t k = 0; k < profiles.size(); ++k) {
    if (counts[k] > 0) {
      schedule.assignments.emplace_back(k, counts[k]);
      const auto jobs = static_cast<double>(counts[k]);
      schedule.total_energy += jobs * profiles[k].energy_per_job;
      schedule.total_latency += jobs * profiles[k].latency_per_job;
    }
  }
  return schedule;
}

}  // namespace

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

Schedule solve_round_schedule(const std::vector<ConfigProfile>& profiles,
                              std::int64_t num_jobs, double deadline_seconds,
                              const IlpOptions& options) {
  // Validate the full input (including profiles the prune would discard).
  BOFL_REQUIRE(!profiles.empty(), "need at least one configuration profile");
  BOFL_REQUIRE(num_jobs >= 0, "job count must be non-negative");
  BOFL_REQUIRE(deadline_seconds >= 0.0, "deadline must be non-negative");
  for (const ConfigProfile& p : profiles) {
    BOFL_REQUIRE(p.energy_per_job >= 0.0 && p.latency_per_job > 0.0,
                 "profiles need non-negative energy and positive latency");
  }
  if (num_jobs == 0) {
    Schedule empty;
    empty.feasible = true;
    return empty;
  }
  const PrunedProfiles pruned = prune_dominated_profiles(profiles);
  Schedule schedule = solve_round_schedule_pruned(pruned.profiles, num_jobs,
                                                  deadline_seconds, options);
  for (auto& assignment : schedule.assignments) {
    assignment.first = pruned.kept[assignment.first];
  }
  return schedule;
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
      tuned.warm_start = std::move(best);  // validated by solve_round_ilp
    }
  }

  const IlpSolution ilp =
      solve_round_ilp(profiles, num_jobs, deadline_seconds, tuned);
  if (ilp.status != IlpStatus::kOptimal) {
    return {};
  }
  return finalize(profiles, ilp.x);
}

Schedule solve_round_schedule_exhaustive(
    const std::vector<ConfigProfile>& profiles, std::int64_t num_jobs,
    double deadline_seconds) {
  BOFL_REQUIRE(!profiles.empty(), "need at least one configuration profile");
  const std::size_t k = profiles.size();
  // Guard the exponential enumeration (tests use small instances only).
  double space = 1.0;
  for (std::size_t i = 1; i < k; ++i) {
    space *= static_cast<double>(num_jobs + static_cast<std::int64_t>(i)) /
             static_cast<double>(i);
  }
  BOFL_REQUIRE(space < 2e6, "exhaustive schedule search space too large");

  std::vector<std::int64_t> counts(k, 0);
  std::vector<std::int64_t> best_counts;
  double best_energy = std::numeric_limits<double>::infinity();

  // Recursive composition enumeration.
  auto recurse = [&](auto&& self, std::size_t index,
                     std::int64_t remaining) -> void {
    if (index + 1 == k) {
      counts[index] = remaining;
      double energy = 0.0;
      double latency = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        energy += static_cast<double>(counts[i]) * profiles[i].energy_per_job;
        latency += static_cast<double>(counts[i]) * profiles[i].latency_per_job;
      }
      if (latency <= deadline_seconds + 1e-9 && energy < best_energy) {
        best_energy = energy;
        best_counts = counts;
      }
      return;
    }
    for (std::int64_t c = 0; c <= remaining; ++c) {
      counts[index] = c;
      self(self, index + 1, remaining - c);
    }
  };
  recurse(recurse, 0, num_jobs);

  if (best_counts.empty()) {
    return {};
  }
  return finalize(profiles, best_counts);
}

}  // namespace bofl::ilp
