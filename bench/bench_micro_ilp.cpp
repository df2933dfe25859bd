// Micro-benchmarks: the per-round exploitation ILP and its steady-state
// memoization.  The paper reports Gurobi solving Eqn. (1) within 20 ms; the
// branch-and-bound substrate must stay in that ballpark on realistic
// Pareto-set sizes — and a fleet of clients facing the same round problem
// should pay it once, not once per client (ScheduleCache).
// Emits BENCH_micro_ilp.json with cache-hit-rate columns; the committed
// baseline under bench/baselines holds the uncached per-solve numbers the
// acceptance ratio divides by.  A last section runs the branch-and-bound
// crawl fixture (tests/ilp/crawl_fixture.hpp) at growing node caps.
#include <chrono>
#include <cstdio>

#include "common/rng.hpp"
#include "core/oracle_controller.hpp"
#include "device/device_model.hpp"
#include "figure_common.hpp"
#include "ilp/crawl_fixture.hpp"
#include "ilp/schedule_cache.hpp"
#include "ilp/schedule_solver.hpp"

namespace {

using namespace bofl;

std::vector<ilp::ConfigProfile> synthetic_front(std::size_t n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ilp::ConfigProfile> profiles;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = 0.18 + 0.5 * static_cast<double>(i) /
                                static_cast<double>(n);
    profiles.push_back({i, 6.0 * 0.18 / t + 0.05 * rng.uniform(), t});
  }
  return profiles;
}

/// Best-of-`reps` wall time of fn(), in seconds.  `sink` defeats dead-code
/// elimination: callers accumulate a dependent value into it.
template <typename Fn>
double best_seconds(int reps, double& sink, const Fn& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    sink += fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::configure_threads(argc, argv);
  double sink = 0.0;
  telemetry::JsonValue metrics = telemetry::JsonValue::object();
#ifdef __OPTIMIZE__
  metrics.set("optimized", true);
#else
  metrics.set("optimized", false);
#endif

  // --- Repeated-round solves: the fleet cohort pattern. -------------------
  // `kRepeats` clients per round hit the solver with the same (profiles,
  // jobs, deadline) problem; uncached, each one pays branch-and-bound,
  // memoized, the first pays and the rest are hash lookups.
  bench::print_header(
      "Micro: repeated round solves (cohort of 64 identical problems)",
      "controller path: pre-pruned profiles, solve_round_schedule_pruned "
      "vs fleet-shared ScheduleCache::solve_pruned");
  std::printf("  %6s %16s %16s %10s %10s\n", "front", "uncached [us]",
              "cached [us]", "speedup", "hit rate");
  const int kRepeats = 64;
  telemetry::JsonValue repeat_rows = telemetry::JsonValue::array();
  for (const std::size_t n : {5u, 10u, 20u, 50u}) {
    // BoflController::exploitation_profiles() hoists the dominance pruning
    // to once per Pareto-set version, so the steady-state per-round call is
    // solve_round_schedule_pruned / ScheduleCache::solve_pruned on an
    // already-efficient set — benchmark exactly that.
    const auto pruned = ilp::prune_dominated_profiles(synthetic_front(n, 1));
    const auto& profiles = pruned.profiles;
    const double uncached_s = best_seconds(5, sink, [&] {
      double total = 0.0;
      for (int r = 0; r < kRepeats; ++r) {
        total += ilp::solve_round_schedule_pruned(profiles, 200, 60.0)
                     .total_energy;
      }
      return total;
    });
    ilp::ScheduleCache cache;
    const double cached_s = best_seconds(5, sink, [&] {
      double total = 0.0;
      for (int r = 0; r < kRepeats; ++r) {
        total += cache.solve_pruned(profiles, 200, 60.0).total_energy;
      }
      return total;
    });
    const ilp::ScheduleCache::Stats stats = cache.stats();
    const double hit_rate =
        static_cast<double>(stats.hits) /
        static_cast<double>(stats.hits + stats.misses);
    const double per_uncached = uncached_s / kRepeats;
    const double per_cached = cached_s / kRepeats;
    std::printf("  %6zu %16.2f %16.2f %10.1f %9.1f%%\n", n, per_uncached * 1e6,
                per_cached * 1e6, per_uncached / per_cached, hit_rate * 100.0);
    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("front_size", n)
        .set("repeats", kRepeats)
        .set("uncached_solve_seconds", per_uncached)
        .set("cached_solve_seconds", per_cached)
        .set("speedup", per_uncached / per_cached)
        .set("cache_hit_rate", hit_rate);
    repeat_rows.push_back(std::move(row));
  }
  metrics.set("repeated_solves", std::move(repeat_rows));

  // --- Cold solves on the true AGX/ViT Pareto set. ------------------------
  bench::print_header("Micro: cold exploitation solves",
                      "every problem distinct; cache overhead must be noise");
  std::printf("  %22s %16s %16s %10s\n", "problem", "uncached [us]",
              "cached [us]", "hit rate");
  telemetry::JsonValue cold_rows = telemetry::JsonValue::array();
  {
    const device::DeviceModel agx = device::jetson_agx();
    const auto profiles = core::true_pareto_profiles(agx, device::vit_profile());
    const int kRounds = 64;
    const double uncached_s = best_seconds(5, sink, [&] {
      double total = 0.0;
      for (int r = 0; r < kRounds; ++r) {
        // Distinct deadline every round: no key ever repeats.
        total += ilp::solve_round_schedule(profiles, 200,
                                           50.0 + 0.125 * r)
                     .total_energy;
      }
      return total;
    });
    ilp::ScheduleCache cache;
    std::uint64_t lookups = 0;
    const double cached_s = best_seconds(5, sink, [&] {
      cache.clear();
      double total = 0.0;
      for (int r = 0; r < kRounds; ++r) {
        total += cache.solve(profiles, 200, 50.0 + 0.125 * r).total_energy;
      }
      return total;
    });
    const ilp::ScheduleCache::Stats stats = cache.stats();
    lookups = stats.hits + stats.misses;
    const double hit_rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(stats.hits) /
                           static_cast<double>(lookups);
    std::printf("  %22s %16.2f %16.2f %9.1f%%\n", "agx-vit true front",
                uncached_s / kRounds * 1e6, cached_s / kRounds * 1e6,
                hit_rate * 100.0);
    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("problem", "agx_vit_true_front")
        .set("rounds", kRounds)
        .set("front_size", profiles.size())
        .set("uncached_solve_seconds", uncached_s / kRounds)
        .set("cached_solve_seconds", cached_s / kRounds)
        .set("cache_hit_rate", hit_rate);
    cold_rows.push_back(std::move(row));
  }
  metrics.set("cold_solves", std::move(cold_rows));

  // --- Dominance pruning (hoisted to once per Pareto-set version). --------
  {
    auto raw = synthetic_front(50, 2);
    const auto dominated = synthetic_front(150, 3);
    for (const auto& p : dominated) {
      raw.push_back({p.config_id + 1000, p.energy_per_job + 3.0,
                     p.latency_per_job + 0.4});
    }
    const double prune_s = best_seconds(50, sink, [&] {
      return static_cast<double>(
          ilp::prune_dominated_profiles(raw).profiles.size());
    });
    std::printf("\n  prune 200 -> efficient set: %.1f us\n", prune_s * 1e6);
    metrics.set("prune200_seconds", prune_s);
  }

  // --- The branch-and-bound crawl fixture. --------------------------------
  // This round problem dives one bound per level under the most-fractional
  // best-first rule and spends every node it is given; a node's cost grows
  // with its depth.  Seeded as solve_round_schedule_pruned seeds it.
  bench::print_header("Micro: branch-and-bound crawl fixture",
                      "device-paper seed 20, AGX / ResNet-50, ratio 4, "
                      "round 80; one solve per cap");
  std::printf("  %8s %10s %12s %12s\n", "cap", "nodes", "node limit",
              "time [ms]");
  telemetry::JsonValue crawl_rows = telemetry::JsonValue::array();
  {
    const auto profiles = ilp::fixtures::crawl_profiles();
    ilp::IlpOptions options;
    options.relative_gap = 1e-4;
    options.warm_start = ilp::fixtures::crawl_warm_start();
    for (const std::size_t cap : {1000u, 4000u}) {
      options.max_nodes = cap;
      ilp::IlpSolution solution;
      const double seconds = best_seconds(1, sink, [&] {
        solution = ilp::solve_round_ilp(profiles, ilp::fixtures::kCrawlJobs,
                                        ilp::fixtures::kCrawlDeadlineSeconds,
                                        options);
        return solution.objective;
      });
      const bool limit = solution.nodes_explored >= cap;
      std::printf("  %8zu %10zu %12s %12.1f\n", cap, solution.nodes_explored,
                  limit ? "yes" : "no", seconds * 1e3);
      telemetry::JsonValue row = telemetry::JsonValue::object();
      row.set("max_nodes", cap)
          .set("nodes_explored", solution.nodes_explored)
          .set("node_limit", limit)
          .set("solve_seconds", seconds);
      crawl_rows.push_back(std::move(row));
    }
  }
  metrics.set("crawl_fixture", std::move(crawl_rows));

  std::printf("  (sink %.3g)\n", sink);
  bench::write_bench_json("micro_ilp", std::move(metrics));
  return 0;
}
