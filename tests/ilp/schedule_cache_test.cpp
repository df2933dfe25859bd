#include "ilp/schedule_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ilp/schedule_solver.hpp"

namespace bofl::ilp {
namespace {

// Bitwise schedule equality: the cache's whole contract is that a hit
// returns exactly what a fresh solve would have produced.
void expect_bitwise_equal(const Schedule& a, const Schedule& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].first, b.assignments[i].first);
    EXPECT_EQ(a.assignments[i].second, b.assignments[i].second);
  }
  EXPECT_EQ(a.total_energy, b.total_energy);
  EXPECT_EQ(a.total_latency, b.total_latency);
}

// A profile set with deliberate dominated entries and duplicates, like the
// controller's raw aggregate table.
std::vector<ConfigProfile> random_profiles(Rng& rng, std::size_t count) {
  std::vector<ConfigProfile> profiles;
  profiles.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double latency = 0.05 + rng.uniform() * 2.0;
    const double energy = 0.5 + rng.uniform() * 10.0;
    profiles.push_back({i, energy, latency});
  }
  if (count >= 3) {
    // Clearly dominated point and an exact duplicate of profile 0.
    profiles.push_back({count, profiles[0].energy_per_job + 5.0,
                        profiles[0].latency_per_job + 5.0});
    profiles.push_back({count + 1, profiles[0].energy_per_job,
                        profiles[0].latency_per_job});
  }
  return profiles;
}

TEST(ScheduleCache, HitReturnsIdenticalBits) {
  Rng rng(11);
  const std::vector<ConfigProfile> profiles = random_profiles(rng, 6);
  ScheduleCache cache;
  const Schedule first = cache.solve(profiles, 40, 30.0);
  const Schedule second = cache.solve(profiles, 40, 30.0);
  expect_bitwise_equal(first, second);
  const ScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ScheduleCache, BitIdenticalToUncachedSolver) {
  Rng rng(22);
  ScheduleCache cache;
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<ConfigProfile> profiles =
        random_profiles(rng, 2 + static_cast<std::size_t>(trial % 7));
    const std::int64_t jobs = 1 + static_cast<std::int64_t>(trial * 3);
    const double deadline = rng.uniform() * 40.0;
    const Schedule uncached = solve_round_schedule(profiles, jobs, deadline);
    // Both cold (miss) and warm (hit) lookups must match the direct solve.
    expect_bitwise_equal(cache.solve(profiles, jobs, deadline), uncached);
    expect_bitwise_equal(cache.solve(profiles, jobs, deadline), uncached);
  }
}

TEST(ScheduleCache, InfeasibleResultsAreCachedToo) {
  const std::vector<ConfigProfile> profiles{{0, 1.0, 1.0}};
  ScheduleCache cache;
  const Schedule miss = cache.solve(profiles, 100, 1.0);  // can't fit
  EXPECT_FALSE(miss.feasible);
  const Schedule hit = cache.solve(profiles, 100, 1.0);
  EXPECT_FALSE(hit.feasible);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ScheduleCache, DistinctProblemsGetDistinctEntries) {
  Rng rng(33);
  const std::vector<ConfigProfile> profiles = random_profiles(rng, 5);
  ScheduleCache cache;
  (void)cache.solve(profiles, 40, 30.0);
  (void)cache.solve(profiles, 41, 30.0);  // different job count
  (void)cache.solve(profiles, 40, 31.0);  // different deadline
  std::vector<ConfigProfile> perturbed = profiles;
  // A strictly dominant profile survives pruning and changes the key bits.
  // (Perturbing a point that pruning would discard must NOT change the key —
  // the canonicalization is over the efficient set.)
  perturbed[0].energy_per_job = 1e-9;
  perturbed[0].latency_per_job = 1e-9;
  (void)cache.solve(perturbed, 40, 30.0);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ScheduleCache, ConfigIdDoesNotAffectTheKey) {
  // Assignments are positional; the solver never reads config_id, so two
  // profile sets differing only in ids must share one entry.
  Rng rng(44);
  std::vector<ConfigProfile> profiles = random_profiles(rng, 5);
  ScheduleCache cache;
  (void)cache.solve(profiles, 20, 25.0);
  for (ConfigProfile& p : profiles) {
    p.config_id += 1000;
  }
  (void)cache.solve(profiles, 20, 25.0);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ScheduleCache, CallerWarmStartBypassesTheMemo) {
  const std::vector<ConfigProfile> profiles{{0, 1.0, 0.5}, {1, 2.0, 0.25}};
  ScheduleCache cache;
  IlpOptions options;
  options.warm_start = {10, 0};
  (void)cache.solve_pruned(profiles, 10, 100.0, options);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ScheduleCache, EvictionWipesAtCapacity) {
  ScheduleCacheOptions cache_options;
  cache_options.max_entries = 4;
  ScheduleCache cache(cache_options);
  const std::vector<ConfigProfile> profiles{{0, 1.0, 0.5}, {1, 2.0, 0.25}};
  for (std::int64_t jobs = 1; jobs <= 6; ++jobs) {
    (void)cache.solve(profiles, jobs, 100.0);
  }
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.size(), 4u);
  // Post-wipe solves still match the uncached solver.
  expect_bitwise_equal(cache.solve(profiles, 3, 100.0),
                       solve_round_schedule(profiles, 3, 100.0));
}

TEST(ScheduleCache, ConcurrentSolvesStayBitIdentical) {
  // The locking contract: many threads hammering a mix of keys (hits,
  // racing cold misses, capacity wipes excluded — large max_entries) must
  // each observe exactly what a fresh uncached solve produces, and the
  // stats must reconcile with the call count afterwards.
  Rng rng(77);
  struct Problem {
    std::vector<ConfigProfile> profiles;
    std::int64_t jobs = 0;
    double deadline = 0.0;
    Schedule expected;
  };
  std::vector<Problem> problems;
  for (int p = 0; p < 24; ++p) {
    Problem problem;
    problem.profiles = random_profiles(rng, 2 + static_cast<std::size_t>(p % 5));
    problem.jobs = 1 + p * 3;
    problem.deadline = 10.0 + rng.uniform() * 40.0;
    problem.expected =
        solve_round_schedule(problem.profiles, problem.jobs, problem.deadline);
    problems.push_back(std::move(problem));
  }

  ScheduleCache cache;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 6;
  // gtest assertions are not thread-safe, so workers only record results;
  // all comparisons happen on the main thread after the join.
  std::vector<std::vector<Schedule>> results(
      kThreads, std::vector<Schedule>(problems.size()));
  std::atomic<bool> stop_reader{false};
  std::thread reader([&]() {  // stats()/size() may run beside solves
    while (!stop_reader.load(std::memory_order_relaxed)) {
      const ScheduleCache::Stats snapshot = cache.stats();
      (void)snapshot;
      (void)cache.size();
    }
  });
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (std::size_t iter = 0; iter < kIterations; ++iter) {
        for (std::size_t p = 0; p < problems.size(); ++p) {
          // Stagger the visit order per thread so keys contend.
          const std::size_t i = (p + t * 7 + iter) % problems.size();
          results[t][i] = cache.solve(problems[i].profiles, problems[i].jobs,
                                      problems[i].deadline);
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  stop_reader.store(true, std::memory_order_relaxed);
  reader.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t p = 0; p < problems.size(); ++p) {
      SCOPED_TRACE(::testing::Message() << "thread " << t << " problem " << p);
      expect_bitwise_equal(results[t][p], problems[p].expected);
    }
  }
  const ScheduleCache::Stats stats = cache.stats();
  // Every call is either a hit or a miss; racing cold misses on one key may
  // each count a miss, so misses >= distinct problems but the cache still
  // holds exactly one entry per key.
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIterations * problems.size());
  EXPECT_GE(stats.misses, problems.size());
  EXPECT_EQ(cache.size(), problems.size());
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PruneDominatedProfiles, MatchesSolverSemantics) {
  Rng rng(66);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<ConfigProfile> profiles = random_profiles(rng, 6);
    const PrunedProfiles pruned = prune_dominated_profiles(profiles);
    ASSERT_EQ(pruned.profiles.size(), pruned.kept.size());
    for (std::size_t i = 0; i < pruned.kept.size(); ++i) {
      EXPECT_EQ(pruned.profiles[i].config_id,
                profiles[pruned.kept[i]].config_id);
      EXPECT_EQ(pruned.profiles[i].energy_per_job,
                profiles[pruned.kept[i]].energy_per_job);
      EXPECT_EQ(pruned.profiles[i].latency_per_job,
                profiles[pruned.kept[i]].latency_per_job);
    }
    // Idempotent: pruning the pruned set is the identity.
    const PrunedProfiles again = prune_dominated_profiles(pruned.profiles);
    ASSERT_EQ(again.profiles.size(), pruned.profiles.size());
    for (std::size_t i = 0; i < again.kept.size(); ++i) {
      EXPECT_EQ(again.kept[i], i);
    }
    // solve_round_schedule == prune + solve_round_schedule_pruned + remap.
    Schedule via_pruned =
        solve_round_schedule_pruned(pruned.profiles, 25, 20.0);
    for (auto& assignment : via_pruned.assignments) {
      assignment.first = pruned.kept[assignment.first];
    }
    expect_bitwise_equal(via_pruned, solve_round_schedule(profiles, 25, 20.0));
  }
}

}  // namespace
}  // namespace bofl::ilp
