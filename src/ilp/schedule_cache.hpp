// Memoization for the per-round exploitation ILP (paper Eqn. 1).
//
// In steady state (~90 % of FL rounds are phase-3 exploitation) the round
// problem barely changes: a cohort of clients sharing one device model and
// task converges onto the same Pareto set, job count and deadline, yet
// every client re-runs the same branch-and-bound each round.  ScheduleCache
// memoizes solve_round_schedule keyed on the exact bits of the canonical
// (dominance-pruned) profile set x job count x deadline x solver options,
// so each distinct round problem is solved once per fleet.
//
// Bit-identity: a hit returns the stored Schedule, which a fresh solve of
// the same key would reproduce bit-for-bit (the solver is deterministic and
// keys compare exact doubles), so enabling the cache never changes any
// simulation output — asserted cache-on vs cache-off, serial vs pooled, by
// tests/scenarios.
//
// Where it pays: fl::Simulation shares one instance across a cohort whose
// clients converge onto the same round problem.  The fleet engine does not
// use one — a cluster's canonical controller never repeats a round problem
// (a fleet run logs zero hits) — but ClusterEngine still accepts one.
//
// Thread safety: all methods may be called concurrently (fl::Simulation
// shares one instance across its client threads).  One mutex guards the
// map and the stats; misses solve OUTSIDE the lock, so distinct problems
// solve in parallel and the lock is held only for a lookup or an insert.
// If two threads race on the same key both solve it and store the same
// bits — wasted work, never wrong results.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ilp/schedule_solver.hpp"

namespace bofl::ilp {

struct ScheduleCacheOptions {
  /// Entry cap; reaching it wipes the cache (steady-state keys re-insert
  /// within a round, and a wipe can only cost re-solves, never wrong bits).
  std::size_t max_entries = 4096;
};

class ScheduleCache {
 public:
  explicit ScheduleCache(ScheduleCacheOptions options = {})
      : options_(options) {}

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// Drop-in replacement for solve_round_schedule (same contract, same
  /// bits).  Prunes dominated profiles, consults the memo on the canonical
  /// set, and maps assignment indices back to `profiles`.
  [[nodiscard]] Schedule solve(const std::vector<ConfigProfile>& profiles,
                               std::int64_t num_jobs, double deadline_seconds,
                               const IlpOptions& options = {});

  /// Memoized solve_round_schedule_pruned: `pruned` MUST already be
  /// dominance-free (see that function's contract); assignment indices
  /// refer to `pruned`.  This is the hot entry — BoflController keeps its
  /// Pareto set pruned per version and calls this directly.
  [[nodiscard]] Schedule solve_pruned(
      const std::vector<ConfigProfile>& pruned, std::int64_t num_jobs,
      double deadline_seconds, const IlpOptions& options = {});

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  ///< whole-cache wipes at max_entries
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  struct Key {
    /// Exact bit patterns: per profile (energy, latency), then job count,
    /// the deadline, and the solver options that
    /// steer the search (max_nodes, integrality_tolerance, relative_gap).
    /// config_id is deliberately excluded — assignments are positional and
    /// the solver never reads it.
    std::vector<std::uint64_t> words;
    std::uint64_t hash = 0;
    bool operator==(const Key& other) const { return words == other.words; }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return static_cast<std::size_t>(key.hash);
    }
  };

  [[nodiscard]] Key make_key(const std::vector<ConfigProfile>& pruned,
                             std::int64_t num_jobs, double deadline_seconds,
                             const IlpOptions& options) const;

  ScheduleCacheOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, Schedule, KeyHash> entries_;  ///< guarded by mutex_
  Stats stats_;                                         ///< guarded by mutex_
};

}  // namespace bofl::ilp
