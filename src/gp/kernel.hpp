// Covariance kernels for Gaussian-process regression.
//
// The paper (§4.3) models the latency and energy objectives as independent
// GPs with zero prior mean and a Matérn-5/2 kernel.  We implement the
// Matérn-5/2 plus Matérn-3/2 and squared-exponential (RBF) variants with
// ARD (one lengthscale per input dimension) for ablations.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "linalg/matrix.hpp"

namespace bofl::runtime {
class ThreadPool;
}

namespace bofl::gp {

enum class KernelFamily {
  kMatern52,   ///< the paper's choice
  kMatern32,
  kRbf,
};

[[nodiscard]] const char* to_string(KernelFamily family);

/// Inverse of to_string; empty when `name` is not a known family.  Used by
/// the priors KnowledgeStore to round-trip fitted kernels through JSON.
[[nodiscard]] std::optional<KernelFamily> kernel_family_from_string(
    std::string_view name);

/// A stationary ARD kernel k(x, x') = signal_variance * c(r) where r is the
/// lengthscale-weighted Euclidean distance.
class Kernel {
 public:
  Kernel(KernelFamily family, double signal_variance,
         std::vector<double> lengthscales);

  [[nodiscard]] KernelFamily family() const { return family_; }
  [[nodiscard]] double signal_variance() const { return signal_variance_; }
  [[nodiscard]] const std::vector<double>& lengthscales() const {
    return lengthscales_;
  }
  [[nodiscard]] std::size_t input_dimension() const {
    return lengthscales_.size();
  }

  /// Covariance between two points.
  [[nodiscard]] double operator()(const linalg::Vector& a,
                                  const linalg::Vector& b) const;

  /// Covariances out[j] = k(x, pts[j]) for j < count, all points of
  /// input_dimension() coordinates, in one dispatched batch.  out[j]
  /// depends only on x and pts[j] (never on j's position in the batch), and
  /// k(a, b) == k(b, a) bit for bit, so any row reproduces the pairwise
  /// operator() bits.
  void row(const double* x, const double* const* pts, std::size_t count,
           double* out) const;

  /// Full covariance matrix of a point set (symmetric).  Large builds
  /// (n >= 48) fan their rows out over `pool` when one is given; every
  /// entry is written to its own slot, so the result is identical for any
  /// pool size (including nullptr = serial).
  [[nodiscard]] linalg::Matrix gram(const std::vector<linalg::Vector>& points,
                                    runtime::ThreadPool* pool = nullptr) const;

  /// Cross-covariance vector k(x, X) against a point set.
  [[nodiscard]] linalg::Vector cross(
      const linalg::Vector& x, const std::vector<linalg::Vector>& points) const;

 private:
  KernelFamily family_;
  double signal_variance_;
  std::vector<double> lengthscales_;
};

}  // namespace bofl::gp
