#include "gp/gaussian_process.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace bofl::gp {
namespace {

Kernel default_kernel() {
  return {KernelFamily::kMatern52, 1.0, {0.3}};
}

TEST(GaussianProcess, PriorPrediction) {
  GaussianProcess gp(default_kernel(), 1e-6);
  const Prediction p = gp.predict({0.5});
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_DOUBLE_EQ(p.variance, 1.0);
}

TEST(GaussianProcess, InterpolatesNoiselessData) {
  GaussianProcess gp(default_kernel(), 0.0);
  const std::vector<linalg::Vector> xs{{0.1}, {0.4}, {0.7}, {0.9}};
  std::vector<double> ys;
  for (const auto& x : xs) {
    ys.push_back(std::sin(6.0 * x[0]));
  }
  gp.condition(xs, ys);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Prediction p = gp.predict(xs[i]);
    EXPECT_NEAR(p.mean, ys[i], 1e-5);
    EXPECT_NEAR(p.variance, 0.0, 1e-5);
  }
}

TEST(GaussianProcess, VarianceGrowsAwayFromData) {
  GaussianProcess gp(default_kernel(), 1e-6);
  gp.condition({{0.5}}, {1.0});
  const double near = gp.predict({0.52}).variance;
  const double far = gp.predict({0.95}).variance;
  EXPECT_LT(near, far);
  EXPECT_LE(far, 1.0 + 1e-9);
}

TEST(GaussianProcess, MeanRevertsToPriorFarAway) {
  GaussianProcess gp(default_kernel(), 1e-6);
  gp.condition({{0.0}}, {5.0});
  EXPECT_NEAR(gp.predict({100.0}).mean, 0.0, 1e-6);
}

TEST(GaussianProcess, NoiseSmoothsInterpolation) {
  const std::vector<linalg::Vector> xs{{0.3}, {0.3}};
  const std::vector<double> ys{1.0, -1.0};  // contradictory observations
  GaussianProcess gp(default_kernel(), 0.5);
  gp.condition(xs, ys);
  // With symmetric noise the posterior mean at the point is the average.
  EXPECT_NEAR(gp.predict({0.3}).mean, 0.0, 1e-9);
}

TEST(GaussianProcess, AddObservationMatchesBatchConditioning) {
  const std::vector<linalg::Vector> xs{{0.1}, {0.5}, {0.8}};
  const std::vector<double> ys{0.4, -0.2, 0.9};
  GaussianProcess batch(default_kernel(), 1e-4);
  batch.condition(xs, ys);
  GaussianProcess incremental(default_kernel(), 1e-4);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    incremental.add_observation(xs[i], ys[i]);
  }
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Prediction a = batch.predict({q});
    const Prediction b = incremental.predict({q});
    EXPECT_NEAR(a.mean, b.mean, 1e-12);
    EXPECT_NEAR(a.variance, b.variance, 1e-12);
  }
}

// Differential test for the incremental algebra: a GP extended one
// observation at a time (rank-1 Cholesky borders) must agree with a fresh
// condition() on all the data to tight tolerance over randomized data in
// several dimensions — means, variances, and the log marginal likelihood.
TEST(GaussianProcess, IncrementalMatchesFullRefitOnRandomData) {
  for (const std::size_t dim : {1u, 2u, 3u}) {
    SCOPED_TRACE(dim);
    Rng rng(50 + dim);
    Kernel kernel(KernelFamily::kMatern52, 1.3,
                  std::vector<double>(dim, 0.4));
    GaussianProcess incremental(kernel, 1e-4);
    std::vector<linalg::Vector> xs;
    std::vector<double> ys;
    for (int i = 0; i < 25; ++i) {
      linalg::Vector x(dim);
      for (double& v : x) {
        v = rng.uniform();
      }
      const double y = rng.normal();
      incremental.add_observation(x, y);
      xs.push_back(std::move(x));
      ys.push_back(y);
    }
    GaussianProcess reference(kernel, 1e-4);
    reference.condition(xs, ys);
    // One factorization (the first observation's); every later append
    // bordered it.
    EXPECT_EQ(incremental.factorizations(), 1u);
    EXPECT_NEAR(incremental.log_marginal_likelihood(),
                reference.log_marginal_likelihood(), 1e-7);
    for (int q = 0; q < 10; ++q) {
      linalg::Vector x(dim);
      for (double& v : x) {
        v = rng.uniform();
      }
      const Prediction a = incremental.predict(x);
      const Prediction b = reference.predict(x);
      EXPECT_NEAR(a.mean, b.mean, 1e-8);
      EXPECT_NEAR(a.variance, b.variance, 1e-8);
    }
  }
}

// A duplicate noiseless observation makes the bordered matrix singular:
// the incremental path must fall back to a full (jittered) refit and keep
// producing finite, sane predictions.
TEST(GaussianProcess, IncrementalFallsBackOnDuplicateNoiselessPoint) {
  GaussianProcess gp(default_kernel(), 0.0);
  gp.add_observation({0.4}, 1.0);
  gp.add_observation({0.9}, -0.5);
  EXPECT_EQ(gp.jitter(), 0.0);
  const std::uint64_t factorizations = gp.factorizations();
  gp.add_observation({0.4}, 1.0);  // exact duplicate, zero noise
  EXPECT_GT(gp.jitter(), 0.0);     // the fallback refit had to jitter
  EXPECT_EQ(gp.factorizations(), factorizations + 1);
  const Prediction p = gp.predict({0.4});
  EXPECT_TRUE(std::isfinite(p.mean));
  EXPECT_TRUE(std::isfinite(p.variance));
  EXPECT_NEAR(p.mean, 1.0, 1e-2);
}

TEST(GaussianProcess, PredictFromCrossMatchesPredict) {
  Rng rng(61);
  GaussianProcess gp(default_kernel(), 1e-4);
  for (int i = 0; i < 12; ++i) {
    gp.add_observation({rng.uniform()}, rng.normal());
  }
  for (int q = 0; q < 5; ++q) {
    const linalg::Vector x{rng.uniform()};
    const Prediction direct = gp.predict(x);
    const Prediction via_cross =
        gp.predict_from_cross(gp.kernel().cross(x, gp.inputs()));
    EXPECT_DOUBLE_EQ(via_cross.mean, direct.mean);
    EXPECT_DOUBLE_EQ(via_cross.variance, direct.variance);
  }
}

TEST(GaussianProcess, LogMarginalLikelihoodPrefersTruth) {
  // Data drawn from a smooth function: a sane lengthscale must beat an
  // absurdly short one.
  Rng rng(3);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    const double x = rng.uniform();
    xs.push_back({x});
    ys.push_back(std::sin(4.0 * x));
  }
  GaussianProcess sane(Kernel(KernelFamily::kMatern52, 1.0, {0.3}), 1e-4);
  sane.condition(xs, ys);
  GaussianProcess absurd(Kernel(KernelFamily::kMatern52, 1.0, {0.001}), 1e-4);
  absurd.condition(xs, ys);
  EXPECT_GT(sane.log_marginal_likelihood(), absurd.log_marginal_likelihood());
}

TEST(GaussianProcess, LmlRequiresData) {
  GaussianProcess gp(default_kernel(), 1e-4);
  EXPECT_THROW((void)gp.log_marginal_likelihood(), std::invalid_argument);
}

TEST(GaussianProcess, RejectsMismatchedData) {
  GaussianProcess gp(default_kernel(), 1e-4);
  EXPECT_THROW(gp.condition({{0.1}, {0.2}}, {1.0}), std::invalid_argument);
  EXPECT_THROW(gp.condition({{0.1, 0.2}}, {1.0}), std::invalid_argument);
  EXPECT_THROW(gp.predict({0.1, 0.2}), std::invalid_argument);
}

TEST(GaussianProcess, RejectsNegativeNoise) {
  EXPECT_THROW(GaussianProcess(default_kernel(), -0.1),
               std::invalid_argument);
}

// The posterior mean must be a weighted blend: predicting between two
// observations lands between their values for a monotone section.
TEST(GaussianProcess, PosteriorMeanInterpolatesMonotoneSection) {
  GaussianProcess gp(default_kernel(), 1e-8);
  gp.condition({{0.2}, {0.8}}, {0.0, 1.0});
  const double mid = gp.predict({0.5}).mean;
  EXPECT_GT(mid, -0.05);
  EXPECT_LT(mid, 1.05);
}

// Property sweep over dimensions: interpolation holds in d dims.
class GpDimension : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GpDimension, InterpolatesInAnyDimension) {
  const std::size_t d = GetParam();
  Rng rng(10 + d);
  Kernel kernel(KernelFamily::kMatern52, 1.0,
                std::vector<double>(d, 0.5));
  GaussianProcess gp(std::move(kernel), 0.0);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  for (int i = 0; i < 8; ++i) {
    linalg::Vector x(d);
    for (double& v : x) {
      v = rng.uniform();
    }
    double y = 0.0;
    for (double v : x) {
      y += std::cos(3.0 * v);
    }
    xs.push_back(std::move(x));
    ys.push_back(y);
  }
  gp.condition(xs, ys);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(gp.predict(xs[i]).mean, ys[i], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, GpDimension, ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace bofl::gp
