// Differential tests: the production round-schedule branch and bound
// (ilp/branch_and_bound.hpp) and skyline prune against the generic
// reference solver and pairwise prune they replaced (tests/ilp/reference).
// The production search must reproduce the reference node for node — same
// status, same integer point, same node count, same objective bits — on
// every instance, because the reference's rounding decides which variable
// it branches on.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ilp/branch_and_bound.hpp"
#include "ilp/crawl_fixture.hpp"
#include "ilp/reference/branch_and_bound.hpp"
#include "ilp/reference/schedule.hpp"
#include "ilp/schedule_solver.hpp"

namespace bofl::ilp {
namespace {

struct Instance {
  std::vector<ConfigProfile> profiles;
  std::int64_t jobs = 0;
  double deadline = 0.0;
  IlpOptions options;
};

std::string describe(const Instance& instance) {
  return "k=" + std::to_string(instance.profiles.size()) +
         " jobs=" + std::to_string(instance.jobs) +
         " deadline=" + std::to_string(instance.deadline) +
         " max_nodes=" + std::to_string(instance.options.max_nodes) +
         " gap=" + std::to_string(instance.options.relative_gap) +
         " warm_start=" + std::to_string(instance.options.warm_start.size());
}

/// A staircase of `k` profiles in one of four shapes: a noisy convex front,
/// one with exact duplicates and dominated points mixed in (as the
/// controller's raw aggregates look), a near-collinear front (energies on a
/// line in latency, perturbed in the last bits), and an exactly collinear
/// one with small-integer data (ties everywhere in the LP).
std::vector<ConfigProfile> random_profiles(Rng& rng, std::size_t k, int shape) {
  std::vector<ConfigProfile> profiles;
  for (std::size_t i = 0; i < k; ++i) {
    const double t = rng.uniform(0.05, 1.0);
    double e = 0.0;
    switch (shape) {
      case 2:
        e = 8.0 - 4.0 * t + rng.uniform(-1e-12, 1e-12);
        break;
      case 3: {
        const double step = static_cast<double>(rng.uniform_int(1, 8));
        profiles.push_back({i, 10.0 - step, 0.125 * step});
        continue;
      }
      default:
        e = 1.0 + 5.0 / (t + 0.2) * rng.uniform(0.8, 1.2);
    }
    profiles.push_back({i, e, t});
  }
  if (shape == 1) {
    for (std::size_t d = 0; d < 1 + k / 4; ++d) {
      const ConfigProfile base = profiles[rng.uniform_index(profiles.size())];
      profiles.push_back({k + d, base.energy_per_job, base.latency_per_job});
      profiles.push_back({k + d + 100, base.energy_per_job + 0.5,
                          base.latency_per_job + 0.01});
    }
  }
  return profiles;
}

double min_latency(const std::vector<ConfigProfile>& profiles) {
  double fastest = std::numeric_limits<double>::infinity();
  for (const ConfigProfile& p : profiles) {
    fastest = std::min(fastest, p.latency_per_job);
  }
  return fastest;
}

double max_latency(const std::vector<ConfigProfile>& profiles) {
  double slowest = 0.0;
  for (const ConfigProfile& p : profiles) {
    slowest = std::max(slowest, p.latency_per_job);
  }
  return slowest;
}

Instance random_instance(Rng& rng) {
  Instance instance;
  // Deep searches replay slowly in the dense reference (its tableau grows
  // a row per level), so one trial in ten gets the 1000-node cap, on a
  // front of controller size (the device-paper benchmark's pruned fronts
  // have at most 22 profiles) and a short round.
  const bool deep = rng.uniform() < 0.1;
  instance.options.max_nodes = deep ? 1000 : (rng.uniform() < 0.5 ? 1 : 7);
  const auto k = static_cast<std::size_t>(rng.uniform_int(2, deep ? 24 : 80));
  const int shape = static_cast<int>(rng.uniform_int(0, 3));
  instance.profiles = random_profiles(rng, k, shape);
  if (shape != 1 && rng.uniform() < 0.7) {
    instance.profiles = prune_dominated_profiles(instance.profiles).profiles;
  }
  instance.jobs = rng.uniform_int(1, deep ? 40 : 150);
  const double jobs = static_cast<double>(instance.jobs);
  const double lo = jobs * min_latency(instance.profiles);
  const double hi = jobs * max_latency(instance.profiles);
  switch (rng.uniform_int(0, 3)) {
    case 0:  // loose: everything fits on the slowest profile
      instance.deadline = hi * rng.uniform(1.0, 1.5);
      break;
    case 1:  // infeasible: not even the fastest profile fits
      instance.deadline = lo * rng.uniform(0.5, 0.999);
      break;
    default:  // tight: a mix is needed
      instance.deadline = lo + (hi - lo) * rng.uniform();
  }
  instance.options.relative_gap = rng.uniform() < 0.5 ? 1e-4 : 0.0;
  // Caller-supplied warm starts: absent, all jobs on one profile (feasible
  // or not, depending on the deadline), or a malformed vector.
  const std::int64_t warm = rng.uniform_int(0, 3);
  const std::size_t n = instance.profiles.size();
  if (warm == 1 || warm == 2) {
    instance.options.warm_start.assign(n, 0);
    instance.options.warm_start[rng.uniform_index(n)] = instance.jobs;
    if (warm == 2 && n > 1) {
      instance.options.warm_start[rng.uniform_index(n)] -= 1;
      instance.options.warm_start[rng.uniform_index(n)] += 1;
    }
  } else if (warm == 3) {
    instance.options.warm_start.assign(n + 1, 1);
  }
  return instance;
}

void expect_same_search(const Instance& instance) {
  SCOPED_TRACE(describe(instance));
  const IlpSolution want = reference::solve_ilp(
      reference::round_problem(instance.profiles, instance.jobs,
                               instance.deadline),
      instance.options);
  const IlpSolution got = solve_round_ilp(instance.profiles, instance.jobs,
                                          instance.deadline, instance.options);
  ASSERT_EQ(got.status, want.status);
  EXPECT_EQ(got.nodes_explored, want.nodes_explored);
  if (want.status == IlpStatus::kOptimal) {
    EXPECT_EQ(got.x, want.x);
    EXPECT_EQ(got.objective, want.objective);
  }
}

void expect_same_schedule(const Schedule& got, const Schedule& want) {
  EXPECT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.assignments, want.assignments);
  EXPECT_EQ(got.total_energy, want.total_energy);
  EXPECT_EQ(got.total_latency, want.total_latency);
}

TEST(RoundIlpDifferential, MatchesTheReferenceSearchNodeForNode) {
  Rng rng(20221107);
  for (int trial = 0; trial < 10000; ++trial) {
    expect_same_search(random_instance(rng));
    if (::testing::Test::HasFailure()) {
      FAIL() << "first mismatch at trial " << trial;
    }
  }
}

TEST(RoundIlpDifferential, SchedulesMatchTheReferencePath) {
  // The production entry points — warm-start choice, gap tuning and index
  // mapping included — against the generic path they replaced.
  Rng rng(11);
  for (int trial = 0; trial < 1000; ++trial) {
    const Instance instance = random_instance(rng);
    SCOPED_TRACE(describe(instance));
    IlpOptions options;
    options.max_nodes = instance.options.max_nodes;
    const PrunedProfiles pruned = prune_dominated_profiles(instance.profiles);
    expect_same_schedule(
        solve_round_schedule_pruned(pruned.profiles, instance.jobs,
                                    instance.deadline, options),
        reference::solve_round_schedule_pruned(
            pruned.profiles, instance.jobs, instance.deadline, options));
    if (::testing::Test::HasFailure()) {
      FAIL() << "first mismatch at trial " << trial;
    }
  }
}

TEST(RoundIlpDifferential, ExactTiesFollowTheReferenceAndStayWithinTheGap) {
  // Collinear staircases with small-integer data: the LP optimum is a whole
  // face, so the vertex the simplex lands on is a tie-break.  The replay
  // must take the reference's, and the answer must be feasible and within
  // the solver's relative gap of the exhaustive optimum.
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    Instance instance;
    instance.profiles =
        random_profiles(rng, static_cast<std::size_t>(rng.uniform_int(2, 5)), 3);
    instance.jobs = rng.uniform_int(1, 12);
    const double jobs = static_cast<double>(instance.jobs);
    instance.deadline =
        jobs * (min_latency(instance.profiles) +
                (max_latency(instance.profiles) - min_latency(instance.profiles)) *
                    static_cast<double>(rng.uniform_int(0, 4)) / 4.0);
    instance.options.relative_gap = 1e-4;
    expect_same_search(instance);

    const Schedule got = solve_round_schedule(instance.profiles, instance.jobs,
                                              instance.deadline);
    const Schedule best = solve_round_schedule_exhaustive(
        instance.profiles, instance.jobs, instance.deadline);
    ASSERT_EQ(got.feasible, best.feasible);
    if (best.feasible) {
      EXPECT_LE(got.total_latency, instance.deadline + 1e-7);
      std::int64_t assigned = 0;
      for (const auto& [index, count] : got.assignments) {
        assigned += count;
      }
      EXPECT_EQ(assigned, instance.jobs);
      EXPECT_LE(got.total_energy, best.total_energy / (1.0 - 1e-4) + 1e-9);
    }
  }
}

TEST(RoundIlpDifferential, CrawlInstanceMatchesTheReferenceAtASmallCap) {
  // The crawl runs into any cap; at a small one both searches stop at the
  // same node with the same incumbent.
  const std::vector<ConfigProfile> profiles = fixtures::crawl_profiles();
  IlpOptions options;
  options.max_nodes = 200;
  const Schedule got = solve_round_schedule_pruned(
      profiles, fixtures::kCrawlJobs, fixtures::kCrawlDeadlineSeconds,
      options);
  expect_same_schedule(
      got, reference::solve_round_schedule_pruned(
               profiles, fixtures::kCrawlJobs,
               fixtures::kCrawlDeadlineSeconds, options));
  ASSERT_TRUE(got.feasible);

  // The search itself, seeded as the schedule solver seeds it.
  Instance instance{profiles, fixtures::kCrawlJobs,
                    fixtures::kCrawlDeadlineSeconds, options};
  instance.options.relative_gap = 1e-4;
  instance.options.warm_start = fixtures::crawl_warm_start();
  expect_same_search(instance);
}

TEST(RoundIlpDifferential, CrawlInstanceKeepsTheWarmStartAtTheBenchmarkCap) {
  // perfbench caps every solve at 1000 nodes; the crawl spends them all
  // without beating the two-profile warm start.  Deep nodes cost what their
  // pivots touch, so the full cap stays cheap.
  const std::vector<ConfigProfile> profiles = fixtures::crawl_profiles();
  IlpOptions options;
  options.max_nodes = 1000;
  const Schedule schedule = solve_round_schedule_pruned(
      profiles, fixtures::kCrawlJobs, fixtures::kCrawlDeadlineSeconds,
      options);
  ASSERT_TRUE(schedule.feasible);
  std::vector<std::int64_t> counts(profiles.size(), 0);
  for (const auto& [index, count] : schedule.assignments) {
    counts[index] = count;
  }
  EXPECT_EQ(counts, fixtures::crawl_warm_start());
  EXPECT_LE(schedule.total_latency, fixtures::kCrawlDeadlineSeconds);

  options.relative_gap = 1e-4;
  options.warm_start = fixtures::crawl_warm_start();
  EXPECT_EQ(solve_round_ilp(profiles, fixtures::kCrawlJobs,
                            fixtures::kCrawlDeadlineSeconds, options)
                .nodes_explored,
            1000u);
}

TEST(PruneDifferential, SkylineMatchesThePairwiseDefinition) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(0, 60));
    std::vector<ConfigProfile> profiles;
    for (std::size_t i = 0; i < k; ++i) {
      // Coarse grids make equal energies, equal latencies and exact
      // duplicates common; -0.0 must tie with 0.0.
      const double e = static_cast<double>(rng.uniform_int(0, 6)) * 0.5;
      const double t = static_cast<double>(rng.uniform_int(1, 6)) * 0.25;
      profiles.push_back({i, e == 0.0 && rng.uniform() < 0.5 ? -0.0 : e, t});
      if (rng.uniform() < 0.2) {
        profiles.push_back(profiles[rng.uniform_index(profiles.size())]);
      }
    }
    if (k > 0 && rng.uniform() < 0.1) {
      profiles[rng.uniform_index(profiles.size())].latency_per_job =
          std::numeric_limits<double>::quiet_NaN();
    }
    const PrunedProfiles got = prune_dominated_profiles(profiles);
    const PrunedProfiles want = reference::prune_dominated_profiles(profiles);
    ASSERT_EQ(got.kept, want.kept) << "trial " << trial;
    ASSERT_EQ(got.profiles.size(), want.profiles.size());
    for (std::size_t i = 0; i < got.profiles.size(); ++i) {
      EXPECT_EQ(got.profiles[i].config_id, want.profiles[i].config_id);
    }
  }
}

}  // namespace
}  // namespace bofl::ilp
