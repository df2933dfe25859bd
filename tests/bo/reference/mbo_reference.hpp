// The candidate scoring bo::MboEngine::propose_batch ran before its
// whitened candidate panels (gp::CandidatePanel), kept as the oracle of the
// differential tests.  ReferenceMboEngine replays the engine's public
// contract — same observations, seed, options and warm-start state, the
// same RNG draws in the same order — and scores candidates one of two ways:
//
//   kCachedRows  one cross-covariance row per candidate and GP, extended
//                by one kernel value per fantasy pick; each pick re-solves
//                L^{-1} k* from row 0 in 128-candidate blocks of the
//                still-untaken candidates (one multi-RHS solve per block).
//                Same kernels, same order: the engine's bits exactly.
//   kFullRefit   a fresh GP conditioned on every real and fantasized point
//                at each pick, scored point by point with
//                GaussianProcess::predict: the same posterior up to the
//                rounding of a from-scratch factorization.
//
// The random acquisition draws no GP and is not replayed here.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bo/mbo_engine.hpp"

namespace bofl::bo::reference {

enum class Scoring { kCachedRows, kFullRefit };

class ReferenceMboEngine {
 public:
  ReferenceMboEngine(std::vector<linalg::Vector> candidates,
                     MboOptions options, std::uint64_t seed, Scoring scoring);

  void add_observation(const MboObservation& obs);
  void set_reference(const pareto::Point2& ref) { reference_ = ref; }
  bool seed_warm_start(const gp::HyperoptResult& fit1,
                       const gp::HyperoptResult& fit2);
  /// Gram builds while conditioning (the only pool use left here).
  void set_parallel_pool(runtime::ThreadPool* pool) { pool_ = pool; }

  [[nodiscard]] std::vector<std::size_t> propose_batch(std::size_t batch_size);
  [[nodiscard]] std::optional<double> last_best_ehvi() const {
    return last_best_ehvi_;
  }

 private:
  [[nodiscard]] double transform(double raw) const;
  [[nodiscard]] pareto::Point2 reference() const;

  std::vector<linalg::Vector> candidates_;
  MboOptions options_;
  Scoring scoring_;
  runtime::ThreadPool* pool_ = nullptr;
  Rng rng_;
  std::vector<MboObservation> observations_;
  std::vector<bool> observed_;
  std::optional<pareto::Point2> reference_;
  std::optional<double> last_best_ehvi_;
  std::optional<gp::HyperoptResult> warm_fit1_;
  std::optional<gp::HyperoptResult> warm_fit2_;
  std::size_t hyperopt_fits_ = 0;
};

}  // namespace bofl::bo::reference
