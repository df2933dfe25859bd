// Branch and bound for BoFL's per-round exploitation ILP (paper Eqn. 1):
//
//   minimize   sum_k  n_k * E_k
//   s.t.       sum_k  n_k        = W          (all jobs executed)
//              sum_k  n_k * T_k <= deadline   (round deadline met)
//              n_k >= 0, integer
//
// The paper names this algorithm family for the exploitation step (§4.4:
// "we solve the ILP problem with branch-and-bound").  The search is
// best-first: each node's LP relaxation gives a lower bound, and a
// fractional variable is branched into floor/ceil children.
//
// A node is one branching bound plus a link to its parent, so creating a
// child is O(1).  Each relaxation — the two rows above plus the bounds on
// the node's path, solved by a two-phase dense simplex with Bland's rule —
// is rebuilt into one reusable per-thread tableau, so once the workspace
// has grown a node allocates nothing.
//
// The relaxation's arithmetic is the generic dense simplex's
// (tests/ilp/reference), operation for operation: the same row and column
// layout, pivots and summation order, skipping only terms that are exact
// zeros.  That is what keeps schedules bit-identical to it.  A different
// LP algorithm cannot: when two variables are basic and fractional, their
// sum is an integer, so both sit at the same distance from an integer in
// exact arithmetic and the simplex's rounding decides which one the
// most-fractional rule branches on.
#pragma once

#include <cstdint>
#include <vector>

namespace bofl::ilp {

/// One measured configuration eligible for scheduling.
struct ConfigProfile {
  std::size_t config_id = 0;      ///< caller-defined identity (DVFS index)
  double energy_per_job = 0.0;    ///< E_k  [J]
  double latency_per_job = 0.0;   ///< T_k  [s]
};

struct IlpOptions {
  /// Hard cap on explored B&B nodes; a hit is reported via kNodeLimit when
  /// no incumbent exists (otherwise the incumbent is returned).
  std::size_t max_nodes = 100000;
  /// Values within this distance of an integer are considered integral.
  double integrality_tolerance = 1e-6;
  /// Accept incumbents within this relative gap of the best bound: nodes
  /// with bound >= incumbent * (1 - gap) are pruned.  0 = prove exact
  /// optimality.  The schedule solver uses a sub-micro-joule gap, far below
  /// measurement noise, to avoid pathological tail exploration.
  double relative_gap = 0.0;
  /// Optional feasible warm-start solution used as the initial incumbent
  /// (validated against the constraints; ignored if infeasible).  A good
  /// incumbent collapses the search: best-first B&B without one must
  /// blunder into its first integral node before any pruning happens.
  std::vector<std::int64_t> warm_start;
};

enum class IlpStatus { kOptimal, kInfeasible, kNodeLimit };

struct IlpSolution {
  IlpStatus status = IlpStatus::kInfeasible;
  std::vector<std::int64_t> x;  ///< valid iff status == kOptimal
  double objective = 0.0;       ///< valid iff status == kOptimal
  std::size_t nodes_explored = 0;
};

/// Branch and bound over the round problem above, with n_k indexed like
/// `profiles`.  Any profile list is accepted (dominated and duplicate
/// entries included); only the search is exposed here — warm-start choice
/// and gap tuning belong to solve_round_schedule_pruned.  Throws
/// std::invalid_argument on an empty profile list, a negative job count or
/// a negative deadline.
[[nodiscard]] IlpSolution solve_round_ilp(
    const std::vector<ConfigProfile>& profiles, std::int64_t num_jobs,
    double deadline_seconds, const IlpOptions& options = {});

}  // namespace bofl::ilp
