#include "gp/candidate_panel.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "linalg/simd/kernels.hpp"

namespace bofl::gp {

CandidatePanel::CandidatePanel(const GaussianProcess& gp,
                               std::vector<const double*> points,
                               std::size_t capacity)
    : gp_(&gp),
      points_(std::move(points)),
      capacity_(capacity),
      v_(capacity * points_.size()),
      explained_(points_.size(), 0.0),
      train_(capacity),
      scratch_(capacity) {}

void CandidatePanel::sync() {
  const std::size_t n = gp_->num_observations();
  BOFL_REQUIRE(n >= 1 && n <= capacity_,
               "panel needs 1..capacity GP observations");
  const std::vector<linalg::Vector>& inputs = gp_->inputs();
  for (std::size_t i = 0; i < n; ++i) {
    train_[i] = inputs[i].data();
  }
  std::size_t first = rows_;
  if (rows_ == 0 || gp_->factorizations() != factorization_) {
    first = 0;
    std::fill(explained_.begin(), explained_.end(), 0.0);
    factorization_ = gp_->factorizations();
  }
  const std::size_t m = points_.size();
  // Row i is k(x_i, points): position-independent and symmetric, so each
  // entry has the bits of the pairwise k(point, x_i).
  for (std::size_t i = first; i < n; ++i) {
    gp_->kernel().row(train_[i], points_.data(), m, v_.data() + i * m);
  }
  linalg::simd::solve_lower_rows_inplace(gp_->factor().row(0), n, first,
                                         v_.data(), m);
  linalg::simd::sumsq_rows_accumulate(v_.data() + first * m, n - first, m,
                                      explained_.data());
  rows_ = n;
}

Prediction CandidatePanel::predict(std::size_t j) {
  const std::size_t n = rows_;
  BOFL_REQUIRE(n >= 1 && n == gp_->num_observations() &&
                   factorization_ == gp_->factorizations(),
               "panel is not synced with its GP");
  gp_->kernel().row(points_[j], train_.data(), n, scratch_.data());
  const double mean =
      linalg::simd::dot_serial(scratch_.data(), gp_->alpha().data(), n);
  return {mean,
          std::max(gp_->kernel().signal_variance() - explained_[j], 0.0)};
}

}  // namespace bofl::gp
