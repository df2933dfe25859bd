#include "ilp/schedule_cache.hpp"

#include <cstring>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace bofl::ilp {

namespace {

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::uint64_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::uint64_t w : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (w >> (8 * byte)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

void count(const char* name, std::uint64_t n = 1) {
  if (telemetry::Registry* reg = telemetry::global_registry()) {
    reg->counter(name).add(n);
  }
}

}  // namespace

ScheduleCache::Key ScheduleCache::make_key(
    const std::vector<ConfigProfile>& pruned, std::int64_t num_jobs,
    double deadline_seconds, const IlpOptions& options) const {
  Key key;
  key.words.reserve(2 * pruned.size() + 5);
  for (const ConfigProfile& p : pruned) {
    key.words.push_back(bits_of(p.energy_per_job));
    key.words.push_back(bits_of(p.latency_per_job));
  }
  key.words.push_back(static_cast<std::uint64_t>(num_jobs));
  key.words.push_back(bits_of(deadline_seconds));
  key.words.push_back(static_cast<std::uint64_t>(options.max_nodes));
  key.words.push_back(bits_of(options.integrality_tolerance));
  key.words.push_back(bits_of(options.relative_gap));
  key.hash = fnv1a(key.words);
  return key;
}

Schedule ScheduleCache::solve(const std::vector<ConfigProfile>& profiles,
                              std::int64_t num_jobs, double deadline_seconds,
                              const IlpOptions& options) {
  // Mirror solve_round_schedule's prologue so validation still covers the
  // profiles the prune would discard.
  BOFL_REQUIRE(!profiles.empty(), "need at least one configuration profile");
  BOFL_REQUIRE(num_jobs >= 0, "job count must be non-negative");
  BOFL_REQUIRE(deadline_seconds >= 0.0, "deadline must be non-negative");
  for (const ConfigProfile& p : profiles) {
    BOFL_REQUIRE(p.energy_per_job >= 0.0 && p.latency_per_job > 0.0,
                 "profiles need non-negative energy and positive latency");
  }
  if (num_jobs == 0) {
    Schedule empty;
    empty.feasible = true;
    return empty;
  }
  const PrunedProfiles pruned = prune_dominated_profiles(profiles);
  Schedule schedule =
      solve_pruned(pruned.profiles, num_jobs, deadline_seconds, options);
  for (auto& assignment : schedule.assignments) {
    assignment.first = pruned.kept[assignment.first];
  }
  return schedule;
}

Schedule ScheduleCache::solve_pruned(const std::vector<ConfigProfile>& pruned,
                                     std::int64_t num_jobs,
                                     double deadline_seconds,
                                     const IlpOptions& options) {
  // A caller-supplied warm start steers the search itself; don't mix such
  // solves into (or serve them from) the shared memo.
  if (!options.warm_start.empty() || num_jobs == 0) {
    return solve_round_schedule_pruned(pruned, num_jobs, deadline_seconds,
                                       options);
  }
  const Key key = make_key(pruned, num_jobs, deadline_seconds, options);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      count("ilp.cache_hit");
      return it->second;
    }
    ++stats_.misses;
  }
  count("ilp.cache_miss");

  // Solve outside the lock: distinct round problems from different threads
  // proceed in parallel.  A same-key race costs one duplicate solve of a
  // deterministic problem — both threads store identical bits.
  const Schedule schedule =
      solve_round_schedule_pruned(pruned, num_jobs, deadline_seconds, options);

  const std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() >= options_.max_entries) {
    entries_.clear();
    ++stats_.evictions;
    count("ilp.cache_evictions");
  }
  entries_.emplace(key, schedule);
  return schedule;
}

ScheduleCache::Stats ScheduleCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ScheduleCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ScheduleCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

}  // namespace bofl::ilp
