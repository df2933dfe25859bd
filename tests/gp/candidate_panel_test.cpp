// Differential tests of gp::CandidatePanel against GaussianProcess::predict:
// along a Kriging-believer style sequence of appended observations, every
// point's panel posterior must equal the GP's own prediction bit for bit —
// across point counts of every vector/block remainder class, 3..90 initial
// observations, batches of 1..10 (some larger than the point set), all
// three kernel families, each runnable SIMD dispatch level, and through the
// re-jittered refit fallback a duplicate noiseless fantasy forces.
#include "gp/candidate_panel.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "linalg/simd/dispatch.hpp"

namespace bofl::gp {
namespace {

namespace simd = linalg::simd;

std::vector<simd::Level> runnable_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  if (simd::avx2_compiled() && simd::cpu_supports_avx2()) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

linalg::Vector random_point(Rng& rng, std::size_t dim) {
  linalg::Vector x(dim);
  for (double& v : x) {
    v = rng.uniform();
  }
  return x;
}

/// Every panel column against gp.predict of the same point, bitwise.
void expect_panel_matches(CandidatePanel& panel, const GaussianProcess& gp,
                          const std::vector<linalg::Vector>& points) {
  ASSERT_EQ(panel.rows(), gp.num_observations());
  for (std::size_t j = 0; j < points.size(); ++j) {
    const Prediction got = panel.predict(j);
    const Prediction want = gp.predict(points[j]);
    ASSERT_TRUE(same_bits(got.mean, want.mean))
        << "point " << j << ": " << got.mean << " vs " << want.mean;
    ASSERT_TRUE(same_bits(got.variance, want.variance))
        << "point " << j << ": " << got.variance << " vs " << want.variance;
  }
}

std::vector<const double*> pointers(const std::vector<linalg::Vector>& pts) {
  std::vector<const double*> out;
  for (const linalg::Vector& p : pts) {
    out.push_back(p.data());
  }
  return out;
}

TEST(CandidatePanel, MatchesGaussianProcessPredictBitForBit) {
  const simd::Level ambient = simd::active_level();
  constexpr std::size_t kCounts[] = {1, 2, 3, 5, 6, 13, 127, 129, 200};
  constexpr std::size_t kInitial[] = {3, 4, 7, 16, 33, 64, 90};
  constexpr KernelFamily kFamilies[] = {
      KernelFamily::kMatern52, KernelFamily::kMatern32, KernelFamily::kRbf};
  std::uint64_t seed = 0;
  for (const simd::Level level : runnable_levels()) {
    simd::force_level(level);
    for (const std::size_t count : kCounts) {
      for (const std::size_t n0 : kInitial) {
        ++seed;
        Rng rng(seed);
        const std::size_t dim = 1 + rng.uniform_index(3);
        const KernelFamily family = kFamilies[seed % 3];
        const std::size_t batch = 1 + rng.uniform_index(10);
        SCOPED_TRACE(::testing::Message()
                     << "level=" << simd::to_string(level) << " count="
                     << count << " n0=" << n0 << " batch=" << batch
                     << " family=" << to_string(family));
        std::vector<double> lengthscales(dim);
        for (double& ls : lengthscales) {
          ls = rng.uniform(0.1, 0.8);
        }
        GaussianProcess gp(Kernel(family, rng.uniform(0.5, 2.0), lengthscales),
                           1e-4);
        std::vector<linalg::Vector> inputs;
        std::vector<double> targets;
        for (std::size_t i = 0; i < n0; ++i) {
          inputs.push_back(random_point(rng, dim));
          targets.push_back(rng.normal());
        }
        gp.condition(inputs, targets);
        std::vector<linalg::Vector> points;
        for (std::size_t j = 0; j < count; ++j) {
          points.push_back(random_point(rng, dim));
        }
        CandidatePanel panel(gp, pointers(points), n0 + batch);
        ASSERT_EQ(panel.size(), count);
        // Fantasize at distinct points, as the Kriging believer does; a
        // batch larger than the point set stops when every point is taken.
        std::vector<bool> taken(count, false);
        for (std::size_t pick = 0; pick < batch && pick < count; ++pick) {
          panel.sync();
          expect_panel_matches(panel, gp, points);
          std::size_t next = rng.uniform_index(count);
          while (taken[next]) {
            next = (next + 1) % count;
          }
          taken[next] = true;
          gp.add_observation(points[next], gp.predict(points[next]).mean);
        }
        panel.sync();
        expect_panel_matches(panel, gp, points);
      }
    }
  }
  simd::force_level(ambient);
}

// A duplicate fantasy on a noiseless GP makes the bordered factor
// indefinite: add_observation refits from scratch with jitter, which
// changes every row of L.  The panel must notice (factorizations()) and
// rebuild, staying bit-equal to predict.
TEST(CandidatePanel, RebuildsAfterTheRefitFallback) {
  const simd::Level ambient = simd::active_level();
  for (const simd::Level level : runnable_levels()) {
    simd::force_level(level);
    SCOPED_TRACE(simd::to_string(level));
    Rng rng(97);
    GaussianProcess gp(Kernel(KernelFamily::kMatern52, 1.0, {0.3, 0.5}), 0.0);
    std::vector<linalg::Vector> inputs;
    std::vector<double> targets;
    for (int i = 0; i < 6; ++i) {
      inputs.push_back(random_point(rng, 2));
      targets.push_back(rng.normal());
    }
    gp.condition(inputs, targets);
    std::vector<linalg::Vector> points;
    for (int j = 0; j < 11; ++j) {
      points.push_back(random_point(rng, 2));
    }
    CandidatePanel panel(gp, pointers(points), 6 + 3);
    panel.sync();
    expect_panel_matches(panel, gp, points);

    const std::uint64_t before = gp.factorizations();
    gp.add_observation(points[4], gp.predict(points[4]).mean);
    EXPECT_EQ(gp.factorizations(), before);  // bordered
    panel.sync();
    expect_panel_matches(panel, gp, points);

    gp.add_observation(points[4], gp.predict(points[4]).mean);  // duplicate
    EXPECT_EQ(gp.factorizations(), before + 1);  // the fallback was hit
    EXPECT_GT(gp.jitter(), 0.0);
    panel.sync();
    expect_panel_matches(panel, gp, points);

    gp.add_observation(points[7], gp.predict(points[7]).mean);
    EXPECT_EQ(gp.factorizations(), before + 1);  // bordered again
    panel.sync();
    expect_panel_matches(panel, gp, points);
  }
  simd::force_level(ambient);
}

TEST(CandidatePanel, RejectsMoreObservationsThanCapacity) {
  GaussianProcess gp(Kernel(KernelFamily::kMatern52, 1.0, {0.3}), 1e-4);
  gp.condition({{0.1}, {0.5}, {0.9}}, {0.2, -0.1, 0.4});
  const linalg::Vector point{0.3};
  CandidatePanel panel(gp, {point.data()}, 3);
  panel.sync();
  gp.add_observation({0.7}, 0.0);
  EXPECT_THROW(panel.sync(), std::invalid_argument);
  EXPECT_THROW((void)panel.predict(0), std::invalid_argument);
}

}  // namespace
}  // namespace bofl::gp
