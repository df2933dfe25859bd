#include "gp/gaussian_process.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/simd/kernels.hpp"

namespace bofl::gp {

double Prediction::stddev() const { return std::sqrt(std::max(variance, 0.0)); }

GaussianProcess::GaussianProcess(Kernel kernel, double noise_variance)
    : kernel_(std::move(kernel)), noise_variance_(noise_variance) {
  BOFL_REQUIRE(noise_variance >= 0.0, "noise variance must be non-negative");
}

void GaussianProcess::condition(std::vector<linalg::Vector> inputs,
                                std::vector<double> targets) {
  BOFL_REQUIRE(inputs.size() == targets.size(),
               "inputs and targets must have equal length");
  for (const auto& x : inputs) {
    BOFL_REQUIRE(x.size() == kernel_.input_dimension(),
                 "input dimension mismatch");
  }
  inputs_ = std::move(inputs);
  targets_ = std::move(targets);
  refit();
}

void GaussianProcess::add_observation(linalg::Vector input, double target) {
  BOFL_REQUIRE(input.size() == kernel_.input_dimension(),
               "input dimension mismatch");
  if (!chol_.has_value() || inputs_.empty()) {
    inputs_.push_back(std::move(input));
    targets_.push_back(target);
    refit();
    return;
  }
  // Incremental path: border the factor with the new row in O(n^2).  The
  // existing factor absorbed `jitter_` on its whole diagonal, so the new
  // diagonal entry carries the same jitter to stay one coherent matrix.
  const linalg::Vector cross = kernel_.cross(input, inputs_);
  const double diag = kernel_.signal_variance() + noise_variance_ + jitter_;
  auto extended = linalg::cholesky_append_row(*chol_, cross, diag);
  inputs_.push_back(std::move(input));
  targets_.push_back(target);
  if (!extended.has_value()) {
    refit();  // indefinite border (e.g. duplicate noiseless point): re-jitter
    return;
  }
  chol_ = std::move(*extended);
  alpha_ = linalg::solve_cholesky(*chol_, targets_);
}

void GaussianProcess::refit() {
  ++factorizations_;
  if (inputs_.empty()) {
    chol_.reset();
    alpha_.clear();
    jitter_ = 0.0;
    return;
  }
  linalg::Matrix k = kernel_.gram(inputs_, pool_);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    k(i, i) += noise_variance_;
  }
  auto factor = linalg::cholesky_with_jitter(k);
  chol_ = std::move(factor.l);
  jitter_ = factor.jitter;
  alpha_ = linalg::solve_cholesky(*chol_, targets_);
}

Prediction GaussianProcess::predict(const linalg::Vector& x) const {
  BOFL_REQUIRE(x.size() == kernel_.input_dimension(),
               "input dimension mismatch");
  if (inputs_.empty()) {
    return {0.0, kernel_.signal_variance()};
  }
  return predict_from_cross(kernel_.cross(x, inputs_));
}

Prediction GaussianProcess::predict_from_cross(
    const linalg::Vector& k_star) const {
  if (inputs_.empty()) {
    return {0.0, kernel_.signal_variance()};
  }
  const std::size_t n = inputs_.size();
  BOFL_REQUIRE(k_star.size() == n, "cross-covariance length mismatch");
  const double mean = linalg::dot(k_star, alpha_);
  // variance = k(x,x) - |v|^2 with v = L^{-1} k*, through the row solve and
  // sum-of-squares kernels CandidatePanel runs on its columns, so a panel
  // column and this one-column case agree bit for bit.
  linalg::Vector v = k_star;
  linalg::simd::solve_lower_rows_inplace(chol_->row(0), n, 0, v.data(), 1);
  double explained = 0.0;
  linalg::simd::sumsq_rows_accumulate(v.data(), n, 1, &explained);
  return {mean, std::max(kernel_.signal_variance() - explained, 0.0)};
}

const linalg::Matrix& GaussianProcess::factor() const {
  BOFL_REQUIRE(chol_.has_value(), "the GP has no observations");
  return *chol_;
}

double GaussianProcess::log_marginal_likelihood() const {
  BOFL_REQUIRE(!inputs_.empty(), "log marginal likelihood needs data");
  const auto n = static_cast<double>(inputs_.size());
  const double data_fit = -0.5 * linalg::dot(targets_, alpha_);
  const double complexity = -0.5 * linalg::log_det_from_cholesky(*chol_);
  const double constant = -0.5 * n * std::log(2.0 * M_PI);
  return data_fit + complexity + constant;
}

}  // namespace bofl::gp
