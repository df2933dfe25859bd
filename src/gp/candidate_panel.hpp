// Whitened cross-covariance panel: the posterior of a fixed point set under
// a GaussianProcess that grows one observation at a time.
//
// For m fixed points and a GP with n observations, factor L (L L^T =
// K + noise I) and weights alpha, the panel keeps V = L^{-1} K*, stored
// training-major (row i holds the m covariances against training point i,
// whitened), plus each column's explained variance sum_i V(i, j)^2.
// Bordering the factor with a new observation leaves L's first n rows
// unchanged, so V's first n rows stay valid: sync() fills one new row with
// one kernel row over the m points, solves only that row and adds its
// squares — O(n) per point instead of re-solving L^{-1} k* from row 0.
// When the GP refactorized from scratch instead (condition(), or
// add_observation's re-jittered fallback), sync() rebuilds every row.
//
// The posterior mean is not kept: predict() evaluates one kernel row
// against the training set into scratch and dots it with alpha.  Keeping a
// K* panel beside V would double the panel memory.
//
// Bits: every entry is computed by the same dispatched kernels, in the same
// order, as GaussianProcess::predict on that point, so predict(j) equals
// gp.predict(point j) bit for bit at each dispatch level.
#pragma once

#include <cstdint>
#include <vector>

#include "gp/gaussian_process.hpp"

namespace bofl::gp {

class CandidatePanel {
 public:
  /// A panel of `points` (non-owning pointers to input_dimension()
  /// coordinates each) against `gp`, with room for `capacity` training
  /// rows; the points and the GP must outlive the panel.  All storage is
  /// allocated here; sync() and predict() never allocate, so panels built
  /// on one thread can be driven from pool workers, one panel per worker at
  /// a time.
  CandidatePanel(const GaussianProcess& gp, std::vector<const double*> points,
                 std::size_t capacity);

  /// Bring V up to the GP's current observations: solve the rows appended
  /// since the last sync, or rebuild all of them after a from-scratch
  /// factorization.  Requires 1 <= observations <= capacity.
  void sync();

  /// Posterior at point j, bit-identical to gp.predict(point j).  Requires
  /// a sync() since the GP last changed.
  [[nodiscard]] Prediction predict(std::size_t j);

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  /// Training rows V currently covers.
  [[nodiscard]] std::size_t rows() const { return rows_; }

 private:
  const GaussianProcess* gp_;
  std::vector<const double*> points_;
  std::size_t capacity_;
  std::vector<double> v_;          ///< capacity x size(), training-major
  std::vector<double> explained_;  ///< sum_i V(i, j)^2 per point
  std::vector<const double*> train_;  ///< the GP's inputs, capacity slots
  std::vector<double> scratch_;       ///< one kernel row for predict()
  std::size_t rows_ = 0;
  std::uint64_t factorization_ = 0;  ///< gp factorizations() at last sync
};

}  // namespace bofl::gp
