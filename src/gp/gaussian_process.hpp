// Gaussian-process regression with exact (Cholesky-based) inference.
//
// Zero prior mean (the caller standardizes outputs; see bo::MboEngine),
// homoscedastic Gaussian observation noise.  Conditioning on a fresh data
// set is O(n^3) in the number of observations; appending one observation
// extends the existing factor in O(n^2) via a rank-1 Cholesky border
// (linalg::cholesky_append_row), which is what the Kriging-believer batch
// strategy hits twice per fantasy pick.  Scoring many fixed points against
// a growing GP goes through gp::CandidatePanel (candidate_panel.hpp), which
// keeps their whitened cross-covariances across appends.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace bofl::gp {

/// Posterior predictive distribution at one point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;  ///< latent-function variance (no observation noise)

  [[nodiscard]] double stddev() const;
};

class GaussianProcess {
 public:
  /// `noise_variance` is the observation-noise variance added to the kernel
  /// diagonal; must be non-negative (jitter keeps zero-noise GPs stable).
  GaussianProcess(Kernel kernel, double noise_variance);

  /// Condition the posterior on (inputs, targets).  Replaces any previous
  /// data.  Requires inputs.size() == targets.size() and matching dimension.
  void condition(std::vector<linalg::Vector> inputs,
                 std::vector<double> targets);

  /// Append one observation and re-condition (used for fantasy updates).
  /// Extends the Cholesky factor in O(n^2) — its existing rows stay
  /// bit-for-bit — falling back to a full re-jittered refit when the
  /// bordered matrix is numerically indefinite (duplicate points with no
  /// noise); factorizations() counts the fallback.
  void add_observation(linalg::Vector input, double target);

  /// Gram builds during conditioning fan out over `pool` (non-owning;
  /// nullptr = serial, the default).  Results are pool-size-independent.
  void set_parallel_pool(runtime::ThreadPool* pool) { pool_ = pool; }

  [[nodiscard]] std::size_t num_observations() const { return inputs_.size(); }
  [[nodiscard]] const Kernel& kernel() const { return kernel_; }
  [[nodiscard]] double noise_variance() const { return noise_variance_; }
  /// Diagonal jitter the current factor absorbed (0 for healthy matrices).
  [[nodiscard]] double jitter() const { return jitter_; }
  /// From-scratch factorizations so far: condition(), the first
  /// observation, and every append that fell back to a full refit.  While
  /// it is unchanged, appends only bordered the factor, so its earlier rows
  /// are unchanged.
  [[nodiscard]] std::uint64_t factorizations() const {
    return factorizations_;
  }
  /// The lower-triangular factor L of K + noise (+ jitter) I, and
  /// alpha = (K + noise I)^{-1} targets.  Require observations.
  [[nodiscard]] const linalg::Matrix& factor() const;
  [[nodiscard]] const linalg::Vector& alpha() const { return alpha_; }
  [[nodiscard]] const std::vector<linalg::Vector>& inputs() const {
    return inputs_;
  }
  [[nodiscard]] const std::vector<double>& targets() const { return targets_; }

  /// Posterior predictive at `x`.  With no observations this is the prior:
  /// mean 0, variance = signal variance.  Bit-identical to a
  /// gp::CandidatePanel column holding `x`.
  [[nodiscard]] Prediction predict(const linalg::Vector& x) const;

  /// Posterior predictive at a point whose cross-covariance vector against
  /// inputs() the caller already holds (k_star[i] = kernel()(x, inputs()[i])).
  [[nodiscard]] Prediction predict_from_cross(
      const linalg::Vector& k_star) const;

  /// Log marginal likelihood of the conditioned data under the current
  /// hyperparameters.  Requires at least one observation.
  [[nodiscard]] double log_marginal_likelihood() const;

 private:
  void refit();

  Kernel kernel_;
  double noise_variance_;
  runtime::ThreadPool* pool_ = nullptr;
  std::vector<linalg::Vector> inputs_;
  std::vector<double> targets_;
  // Posterior cache: K + sigma^2 I (+ jitter I) = L L^T,
  // alpha = (K + sigma^2 I)^{-1} y, jitter_ = the jitter L absorbed.
  std::optional<linalg::Matrix> chol_;
  linalg::Vector alpha_;
  double jitter_ = 0.0;
  std::uint64_t factorizations_ = 0;
};

}  // namespace bofl::gp
