// Engine-level differential test of MboEngine::propose_batch against the
// scoring it replaced (tests/bo/reference, kCachedRows): over many seeded
// engines — candidate sets below 4, off multiples of 4 and of the 128
// block, batches larger than the unobserved set, all three kernel
// families, EHVI in fast and exact mode and Thompson, full and
// warm-started hyperparameter fits, no pool and pools of 1 and 4 workers,
// at every SIMD dispatch level this host runs — both must propose the same
// batches and report last_best_ehvi() with the same bits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "bo/mbo_engine.hpp"
#include "bo/reference/mbo_reference.hpp"
#include "common/rng.hpp"
#include "linalg/simd/dispatch.hpp"

namespace bofl::bo {
namespace {

namespace simd = linalg::simd;

std::vector<simd::Level> runnable_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  if (simd::avx2_compiled() && simd::cpu_supports_avx2()) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

bool same_bits(const std::optional<double>& a, const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) {
    return false;
  }
  if (!a.has_value()) {
    return true;
  }
  return std::memcmp(&*a, &*b, sizeof(double)) == 0;
}

/// Smooth, positive, conflicting objectives over [0,1]^dim.
MboObservation observe(const std::vector<linalg::Vector>& candidates,
                       std::size_t c) {
  double f1 = 0.3;
  double f2 = 0.3;
  for (std::size_t d = 0; d < candidates[c].size(); ++d) {
    const double x = candidates[c][d];
    f1 += (x - 0.2) * (x - 0.2) * (1.0 + 0.3 * static_cast<double>(d));
    f2 += (0.9 - x) * (0.9 - x) * (1.0 + 0.2 * static_cast<double>(d));
  }
  return {c, f1, f2};
}

struct Case {
  std::vector<linalg::Vector> candidates;
  MboOptions options;
  std::vector<std::size_t> initial;  ///< observed candidates (may repeat)
  std::size_t batch = 1;
  bool seed_warm = false;
};

Case make_case(std::uint64_t seed) {
  Rng rng(seed);
  Case out;
  constexpr std::size_t kCounts[] = {2, 3, 5, 7, 13, 64, 127, 128, 129, 200,
                                     257};
  const std::size_t count = kCounts[rng.uniform_index(std::size(kCounts))];
  const std::size_t dim = 1 + rng.uniform_index(3);
  for (std::size_t c = 0; c < count; ++c) {
    linalg::Vector x(dim);
    for (double& v : x) {
      v = rng.uniform();
    }
    out.candidates.push_back(std::move(x));
  }
  switch (seed % 3) {
    case 0:
      out.options.acquisition = AcquisitionKind::kEhvi;
      break;
    case 1:
      out.options.acquisition = AcquisitionKind::kEhvi;
      out.options.exact_ehvi = true;
      break;
    default:
      out.options.acquisition = AcquisitionKind::kThompsonMarginal;
      break;
  }
  constexpr gp::KernelFamily kFamilies[] = {gp::KernelFamily::kMatern52,
                                            gp::KernelFamily::kMatern32,
                                            gp::KernelFamily::kRbf};
  out.options.kernel_family = kFamilies[rng.uniform_index(3)];
  constexpr std::size_t kPeriods[] = {0, 2, 5};
  out.options.hyperopt_refresh_period = kPeriods[rng.uniform_index(3)];
  out.options.hyperopt.num_restarts = 1;
  out.options.hyperopt.max_iterations_per_start = 30;
  out.options.hyperopt.warm_start_max_iterations = 15;
  const std::size_t n0 = 3 + rng.uniform_index(std::min<std::size_t>(
                                 2 * count, 25));
  for (std::size_t i = 0; i < n0; ++i) {
    out.initial.push_back(rng.uniform_index(count));
  }
  out.batch = 1 + rng.uniform_index(10);
  out.seed_warm = rng.uniform_index(4) == 0;
  return out;
}

/// Two observe/propose rounds on `engine`; returns the proposed batches
/// and each round's last_best_ehvi().
template <typename Engine>
void run_rounds(Engine& engine, const Case& c,
                std::vector<std::vector<std::size_t>>& batches,
                std::vector<std::optional<double>>& best) {
  for (const std::size_t i : c.initial) {
    engine.add_observation(observe(c.candidates, i));
  }
  for (int round = 0; round < 2; ++round) {
    batches.push_back(engine.propose_batch(c.batch));
    best.push_back(engine.last_best_ehvi());
    for (const std::size_t i : batches.back()) {
      engine.add_observation(observe(c.candidates, i));
    }
  }
}

TEST(MboDifferential, PanelScoringMatchesCachedRowReferenceBitForBit) {
  const simd::Level ambient = simd::active_level();
  runtime::ThreadPool pool1(1);
  runtime::ThreadPool pool4(4);
  runtime::ThreadPool* const pools[] = {nullptr, &pool1, &pool4};
  const std::vector<simd::Level> levels = runnable_levels();
  constexpr std::uint64_t kEngines = 1200;
  const std::uint64_t per_level = kEngines / levels.size();
  std::size_t warm_seeded = 0;
  std::size_t oversized_batches = 0;
  for (const simd::Level level : levels) {
    simd::force_level(level);
    for (std::uint64_t seed = 1; seed <= per_level; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "level=" << simd::to_string(level) << " seed=" << seed);
      const Case c = make_case(seed);
      MboEngine engine(c.candidates, c.options, seed);
      engine.set_parallel_pool(pools[seed % 3]);
      reference::ReferenceMboEngine oracle(c.candidates, c.options, seed,
                                           reference::Scoring::kCachedRows);
      if (c.seed_warm) {
        // Warm-start both from another engine's fitted optima, so the
        // first propose runs the local polish.
        MboEngine donor(c.candidates, c.options, seed + 7919);
        for (const std::size_t i : c.initial) {
          donor.add_observation(observe(c.candidates, i));
        }
        (void)donor.propose_batch(1);
        ASSERT_TRUE(engine.seed_warm_start(*donor.warm_fit1(),
                                           *donor.warm_fit2()));
        ASSERT_TRUE(oracle.seed_warm_start(*donor.warm_fit1(),
                                           *donor.warm_fit2()));
        ++warm_seeded;
      }
      std::vector<std::vector<std::size_t>> got;
      std::vector<std::vector<std::size_t>> want;
      std::vector<std::optional<double>> got_best;
      std::vector<std::optional<double>> want_best;
      run_rounds(engine, c, got, got_best);
      run_rounds(oracle, c, want, want_best);
      ASSERT_EQ(got, want);
      for (std::size_t r = 0; r < got_best.size(); ++r) {
        ASSERT_TRUE(same_bits(got_best[r], want_best[r])) << "round " << r;
      }
      if (got.front().size() < c.batch) {
        ++oversized_batches;
      }
    }
  }
  simd::force_level(ambient);
  // The sweep must actually reach the warm-seeded and the
  // batch-larger-than-unobserved regimes.
  EXPECT_GT(warm_seeded, 0u);
  EXPECT_GT(oversized_batches, 0u);
}

}  // namespace
}  // namespace bofl::bo
