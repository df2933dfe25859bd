// The per-round exploitation problem (paper Eqn. 1, single round):
//
//   minimize   sum_k  n_k * E_k
//   s.t.       sum_k  n_k        = W          (all jobs executed)
//              sum_k  n_k * T_k <= deadline   (round deadline met)
//              n_k >= 0, integer
//
// over the (approximated) Pareto set of measured configurations
// {(E_k, T_k)}.  Solved by branch-and-bound ILP (ilp/branch_and_bound.hpp);
// an exhaustive reference solver cross-checks optimality in the tests.
#pragma once

#include <cstdint>
#include <vector>

#include "ilp/branch_and_bound.hpp"

namespace bofl::ilp {

/// Job assignment for one round.
struct Schedule {
  bool feasible = false;
  /// (index into the profiles vector passed in, jobs assigned); only
  /// entries with a positive job count are listed.
  std::vector<std::pair<std::size_t, std::int64_t>> assignments;
  double total_energy = 0.0;
  double total_latency = 0.0;
};

/// A profile set with Pareto-dominated entries removed, plus the mapping
/// back to the caller's indexing.  `profiles[i]` is a copy of the input's
/// `kept[i]`-th entry; input order is preserved among survivors.
struct PrunedProfiles {
  std::vector<ConfigProfile> profiles;
  std::vector<std::size_t> kept;
};

/// Remove profiles Pareto-dominated in (energy, latency); exact duplicates
/// keep only the lowest-index copy.  O(k log k): a skyline sweep in
/// (energy, latency, index) order keeps a profile iff its latency is below
/// every latency before it.  Idempotent: pruning an already-pruned set
/// returns it unchanged with the identity mapping —
/// which is what lets callers (BoflController) hoist this out of the
/// per-round loop and re-run it only when the observed Pareto set changes.
[[nodiscard]] PrunedProfiles prune_dominated_profiles(
    const std::vector<ConfigProfile>& profiles);

/// Solve the round problem over `profiles`.  Dominated profiles are pruned
/// before the ILP (a dominated configuration can never appear in an optimal
/// schedule; §3.2).  Returns feasible == false when even the fastest
/// profile cannot meet the deadline.
[[nodiscard]] Schedule solve_round_schedule(
    const std::vector<ConfigProfile>& profiles, std::int64_t num_jobs,
    double deadline_seconds, const IlpOptions& options = {});

/// Same round problem, but `pruned` MUST already be dominance-free (the
/// output of prune_dominated_profiles).  Skips the prune; returned
/// assignment indices refer to `pruned` itself.  With the prune hoisted,
/// solve_round_schedule(P, ...) is bit-identical to solving
/// prune_dominated_profiles(P).profiles here and mapping indices through
/// .kept — the per-profile doubles, constraint build order, warm-start
/// search and branch-and-bound trajectory are all unchanged.
[[nodiscard]] Schedule solve_round_schedule_pruned(
    const std::vector<ConfigProfile>& pruned, std::int64_t num_jobs,
    double deadline_seconds, const IlpOptions& options = {});

/// Exhaustive reference solver (exponential; tests only).  Enumerates all
/// compositions of num_jobs over the profiles.  Requires the search space
/// C(num_jobs + k - 1, k - 1) to stay under ~2e6 nodes.
[[nodiscard]] Schedule solve_round_schedule_exhaustive(
    const std::vector<ConfigProfile>& profiles, std::int64_t num_jobs,
    double deadline_seconds);

}  // namespace bofl::ilp
