#include "bo/reference/mbo_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/simd/kernels.hpp"

namespace bofl::bo::reference {

namespace {

struct Standardizer {
  double mean = 0.0;
  double scale = 1.0;
  [[nodiscard]] double forward(double raw_transformed) const {
    return (raw_transformed - mean) / scale;
  }
};

Standardizer make_standardizer(const std::vector<double>& v) {
  Standardizer s;
  s.mean = mean_of(v);
  const double sd = stddev_of(v);
  s.scale = sd > 1e-12 ? sd : 1.0;
  return s;
}

/// Posteriors of `count` points whose cross-covariance rows against the
/// GP's inputs are k_star_rows[indices[j]]: the block's rows gathered as
/// the columns of one n x count matrix, one blocked forward substitution
/// over all n rows, squared row sums, and a serial dot with alpha.
void predict_block(const gp::GaussianProcess& gp,
                   const std::vector<linalg::Vector>& k_star_rows,
                   const std::size_t* indices, std::size_t count,
                   gp::Prediction* out) {
  const std::size_t n = gp.num_observations();
  linalg::Matrix b(n, count);
  for (std::size_t j = 0; j < count; ++j) {
    const linalg::Vector& row = k_star_rows[indices[j]];
    for (std::size_t i = 0; i < n; ++i) {
      b(i, j) = row[i];
    }
  }
  const linalg::Matrix v = linalg::solve_lower_multi(gp.factor(), b);
  std::vector<double> explained(count, 0.0);
  linalg::simd::sumsq_rows_accumulate(v.row(0), n, count, explained.data());
  const double sv = gp.kernel().signal_variance();
  for (std::size_t j = 0; j < count; ++j) {
    const double mean = linalg::dot(k_star_rows[indices[j]], gp.alpha());
    out[j] = {mean, std::max(sv - explained[j], 0.0)};
  }
}

}  // namespace

ReferenceMboEngine::ReferenceMboEngine(std::vector<linalg::Vector> candidates,
                                       MboOptions options, std::uint64_t seed,
                                       Scoring scoring)
    : candidates_(std::move(candidates)),
      options_(options),
      scoring_(scoring),
      rng_(seed),
      observed_(candidates_.size(), false) {
  BOFL_REQUIRE(options_.acquisition != AcquisitionKind::kRandomUnobserved,
               "the reference replays the GP acquisitions only");
}

double ReferenceMboEngine::transform(double raw) const {
  return options_.log_transform ? std::log(raw) : raw;
}

void ReferenceMboEngine::add_observation(const MboObservation& obs) {
  observations_.push_back(obs);
  observed_[obs.candidate_index] = true;
}

bool ReferenceMboEngine::seed_warm_start(const gp::HyperoptResult& fit1,
                                         const gp::HyperoptResult& fit2) {
  const std::size_t dim = candidates_.front().size();
  if (!gp::warm_start_compatible(fit1, options_.kernel_family, dim) ||
      !gp::warm_start_compatible(fit2, options_.kernel_family, dim)) {
    return false;
  }
  warm_fit1_ = fit1;
  warm_fit2_ = fit2;
  hyperopt_fits_ = 1;
  return true;
}

pareto::Point2 ReferenceMboEngine::reference() const {
  if (reference_) {
    return *reference_;
  }
  pareto::Point2 worst{-std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()};
  for (const MboObservation& o : observations_) {
    worst.f1 = std::max(worst.f1, o.f1);
    worst.f2 = std::max(worst.f2, o.f2);
  }
  return worst;
}

std::vector<std::size_t> ReferenceMboEngine::propose_batch(
    std::size_t batch_size) {
  BOFL_REQUIRE(observations_.size() >= 3,
               "propose_batch needs at least 3 observations");
  batch_size = std::min(batch_size, options_.max_batch_size);

  // Standardize, fit and condition exactly as the engine does.
  std::vector<double> t1;
  std::vector<double> t2;
  std::vector<linalg::Vector> inputs;
  for (const MboObservation& o : observations_) {
    inputs.push_back(candidates_[o.candidate_index]);
    t1.push_back(transform(o.f1));
    t2.push_back(transform(o.f2));
  }
  const Standardizer s1 = make_standardizer(t1);
  const Standardizer s2 = make_standardizer(t2);
  std::vector<double> z1(t1.size());
  std::vector<double> z2(t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    z1[i] = s1.forward(t1[i]);
    z2[i] = s2.forward(t2[i]);
  }
  const bool full_search = options_.hyperopt_refresh_period == 0 ||
                           hyperopt_fits_ % options_.hyperopt_refresh_period ==
                               0 ||
                           !warm_fit1_.has_value() || !warm_fit2_.has_value();
  ++hyperopt_fits_;
  const gp::HyperoptResult h1 = gp::fit_hyperparameters(
      options_.kernel_family, inputs, z1, rng_, options_.hyperopt,
      full_search ? nullptr : &*warm_fit1_);
  const gp::HyperoptResult h2 = gp::fit_hyperparameters(
      options_.kernel_family, inputs, z2, rng_, options_.hyperopt,
      full_search ? nullptr : &*warm_fit2_);
  warm_fit1_ = h1;
  warm_fit2_ = h2;
  gp::GaussianProcess gp1(h1.kernel, h1.noise_variance);
  gp::GaussianProcess gp2(h2.kernel, h2.noise_variance);
  gp1.set_parallel_pool(pool_);
  gp2.set_parallel_pool(pool_);
  gp1.condition(inputs, z1);
  gp2.condition(inputs, z2);

  const pareto::Point2 raw_ref = reference();
  const pareto::Point2 ref{s1.forward(transform(raw_ref.f1)),
                           s2.forward(transform(raw_ref.f2))};
  std::vector<pareto::Point2> front;
  for (std::size_t i = 0; i < observations_.size(); ++i) {
    front.push_back({z1[i], z2[i]});
  }
  front = pareto::pareto_front(std::move(front));

  // Sequential-greedy (Kriging believer) selection.
  const bool thompson =
      options_.acquisition == AcquisitionKind::kThompsonMarginal;
  const EhviMode ehvi_mode =
      options_.exact_ehvi ? EhviMode::kExact : EhviMode::kFast;
  std::vector<bool> taken = observed_;
  std::vector<std::size_t> batch;
  last_best_ehvi_.reset();
  const std::size_t num_candidates = candidates_.size();
  std::vector<double> values(num_candidates);
  std::vector<double> uncertainties(num_candidates);
  std::vector<GaussianPair> beliefs(num_candidates);
  std::vector<double> thompson_draws;
  std::vector<linalg::Vector> kstar1;
  std::vector<linalg::Vector> kstar2;
  // kFullRefit: the real and fantasized data the fresh GPs condition on.
  std::vector<linalg::Vector> all_inputs = inputs;
  std::vector<double> all_z1 = z1;
  std::vector<double> all_z2 = z2;
  for (std::size_t pick = 0; pick < batch_size; ++pick) {
    if (thompson) {
      thompson_draws.assign(2 * num_candidates, 0.0);
      for (std::size_t c = 0; c < num_candidates; ++c) {
        if (!taken[c]) {
          thompson_draws[2 * c] = rng_.normal();
          thompson_draws[2 * c + 1] = rng_.normal();
        }
      }
    }
    const CompiledFront compiled(front, ref, ehvi_mode);
    auto score_candidate = [&](std::size_t c, const gp::Prediction& p1,
                               const gp::Prediction& p2) {
      const GaussianPair belief{p1.mean, p1.stddev(), p2.mean, p2.stddev()};
      if (thompson) {
        const pareto::Point2 sample{
            belief.mu1 + belief.sigma1 * thompson_draws[2 * c],
            belief.mu2 + belief.sigma2 * thompson_draws[2 * c + 1]};
        values[c] = compiled.hvi(sample);
      } else {
        values[c] = compiled.ehvi(belief);
      }
      beliefs[c] = belief;
      uncertainties[c] = p1.variance + p2.variance;
    };
    if (scoring_ == Scoring::kFullRefit) {
      gp::GaussianProcess fresh1(h1.kernel, h1.noise_variance);
      gp::GaussianProcess fresh2(h2.kernel, h2.noise_variance);
      fresh1.condition(all_inputs, all_z1);
      fresh2.condition(all_inputs, all_z2);
      for (std::size_t c = 0; c < num_candidates; ++c) {
        if (!taken[c]) {
          score_candidate(c, fresh1.predict(candidates_[c]),
                          fresh2.predict(candidates_[c]));
        }
      }
    } else {
      if (kstar1.empty()) {
        kstar1.resize(num_candidates);
        kstar2.resize(num_candidates);
        const std::vector<linalg::Vector>& train = gp1.inputs();
        for (std::size_t c = 0; c < num_candidates; ++c) {
          if (taken[c]) {
            continue;
          }
          for (const linalg::Vector& x : train) {
            kstar1[c].push_back(gp1.kernel()(candidates_[c], x));
            kstar2[c].push_back(gp2.kernel()(candidates_[c], x));
          }
        }
      } else {
        const linalg::Vector& x_new = gp1.inputs().back();
        for (std::size_t c = 0; c < num_candidates; ++c) {
          if (!taken[c]) {
            kstar1[c].push_back(gp1.kernel()(candidates_[c], x_new));
            kstar2[c].push_back(gp2.kernel()(candidates_[c], x_new));
          }
        }
      }
      std::vector<std::size_t> block_indices;
      for (std::size_t c = 0; c < num_candidates; ++c) {
        if (!taken[c]) {
          block_indices.push_back(c);
        }
      }
      constexpr std::size_t kBlock = 128;
      for (std::size_t begin = 0; begin < block_indices.size();
           begin += kBlock) {
        const std::size_t count =
            std::min(kBlock, block_indices.size() - begin);
        std::vector<gp::Prediction> p1(count);
        std::vector<gp::Prediction> p2(count);
        predict_block(gp1, kstar1, block_indices.data() + begin, count,
                      p1.data());
        predict_block(gp2, kstar2, block_indices.data() + begin, count,
                      p2.data());
        for (std::size_t j = 0; j < count; ++j) {
          score_candidate(block_indices[begin + j], p1[j], p2[j]);
        }
      }
    }
    double best_value = -1.0;
    double best_uncertainty = -1.0;
    std::size_t best_index = num_candidates;
    GaussianPair best_belief;
    for (std::size_t c = 0; c < num_candidates; ++c) {
      if (taken[c]) {
        continue;
      }
      const bool better =
          values[c] > best_value ||
          (values[c] == best_value && uncertainties[c] > best_uncertainty);
      if (better) {
        best_value = values[c];
        best_uncertainty = uncertainties[c];
        best_index = c;
        best_belief = beliefs[c];
      }
    }
    if (best_index == num_candidates) {
      break;
    }
    if (pick == 0) {
      last_best_ehvi_ = best_value;
    }
    batch.push_back(best_index);
    taken[best_index] = true;
    gp1.add_observation(candidates_[best_index], best_belief.mu1);
    gp2.add_observation(candidates_[best_index], best_belief.mu2);
    all_inputs.push_back(candidates_[best_index]);
    all_z1.push_back(best_belief.mu1);
    all_z2.push_back(best_belief.mu2);
    std::vector<pareto::Point2> updated = std::move(front);
    updated.push_back({best_belief.mu1, best_belief.mu2});
    front = pareto::pareto_front(std::move(updated));
  }
  return batch;
}

}  // namespace bofl::bo::reference
