#include "fleet/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/mbo_cost.hpp"
#include "ilp/schedule_solver.hpp"
#include "priors/knowledge_store.hpp"

namespace bofl::fleet {

namespace {

/// RNG domain tags: each cluster derives independent streams for its
/// deadline schedule and its canonical controller from the fleet seed via
/// stream_seed, so adding clusters (or re-sharding clients) never shifts an
/// existing cluster's draws.
constexpr std::uint64_t kDeadlineDomain = 0xF1EE7'DEAD'11E5ULL;
constexpr std::uint64_t kCanonicalDomain = 0xF1EE7'C0DE'C7F1ULL;

}  // namespace

std::uint64_t to_micros(Seconds s) {
  const double v = s.value();
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v * 1e6));
}

std::uint64_t to_microjoules(Joules j) {
  const double v = j.value();
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v * 1e6));
}

ClusterEngine::ClusterEngine(std::size_t index, const ClusterSpec& spec,
                             const FleetConfig& config,
                             ilp::ScheduleCache* cache,
                             const faults::FaultInjector* injector)
    : index_(index),
      model_(spec.model),
      profile_(spec.profile),
      kind_(config.controller),
      jobs_per_round_(config.jobs_per_round),
      deadline_rng_(stream_seed(config.seed ^ kDeadlineDomain, index)),
      deadline_ratio_(config.deadline_ratio),
      cache_(cache),
      config_(&config) {
  BOFL_REQUIRE(model_ != nullptr, "cluster needs a device model");
  BOFL_REQUIRE(jobs_per_round_ >= 1, "cluster needs at least one job/round");
  BOFL_REQUIRE(deadline_ratio_ >= 1.0, "deadline ratio must be >= 1");
  t_min_ = model_->round_t_min(profile_, jobs_per_round_);
  table_ = device::FlatPerfTable::build(*model_, profile_);
  x_max_flat_ = model_->space().to_flat(model_->space().max_config());
  if (kind_ == FleetControllerKind::kBofl) {
    if (injector != nullptr && injector->plan().has_device_faults()) {
      // The channel's "client" is the cluster index: the canonical device
      // IS the cluster as far as device-level faults are concerned.  The
      // channel survives workload switches (the silicon keeps its faults;
      // only the controller is replaced).
      channel_ =
          injector->make_device_channel(static_cast<std::int64_t>(index_));
    }
    init_controller();
  } else {
    rebuild_true_front();
  }
}

void ClusterEngine::init_controller() {
  core::BoflOptions options = config_->bofl_options;
  options.mbo_cost = core::mbo_cost_for_device(model_->name());
  if (config_->auto_scale_tau) {
    // Same rule as fl::Simulation: keep τ meaningfully smaller than a
    // round so short fleet rounds can still explore.
    options.tau = Seconds{std::min(options.tau.value(), t_min_.value() / 8.0)};
  }
  effective_options_ = options;
  // Generation 0 keeps the original canonical stream; every workload
  // switch derives a fresh, independent substream so the replacement
  // controller's exploration never replays the old one's draws.
  const std::uint64_t base =
      stream_seed(config_->seed ^ kCanonicalDomain, index_);
  controller_ = std::make_unique<core::BoflController>(
      *model_, profile_, device::NoiseModel{}, options,
      generation_ == 0 ? base : stream_seed(base, generation_));
  controller_->set_schedule_cache(cache_);
  applied_policy_ = priors::PriorPolicy::kCold;
  if (config_->knowledge != nullptr) {
    // Ask the knowledge plane for this cluster's prior.  Admission may
    // downgrade (kTrust -> kVerify below the trust bar) or decline
    // (unknown cluster / low confidence), in which case the controller
    // stays bit-identical to a cold start.  After a workload switch this
    // keys on the NEW profile, so a task switch re-admits the prior of the
    // cluster the population just became.
    const priors::KnowledgeStore::Admission admission =
        config_->knowledge->admit(priors::ClusterKey::of(*model_, profile_),
                                  config_->prior_policy);
    if (admission.snapshot != nullptr) {
      controller_->apply_prior(admission.snapshot->make_seed(
                                   config_->knowledge->options().max_verify_ids),
                               admission.policy);
      applied_policy_ = admission.policy;
    }
  }
  if (channel_ != nullptr) {
    controller_->install_fault_model(channel_.get());
  }
  if (pool_ != nullptr) {
    controller_->set_parallel_pool(pool_);
  }
}

void ClusterEngine::set_parallel_pool(runtime::ThreadPool* pool) {
  pool_ = pool;
  if (controller_ != nullptr) {
    controller_->set_parallel_pool(pool);
  }
}

void ClusterEngine::rebuild_true_front() {
  // Reference policies schedule over the true cost surface: the
  // dominance-pruned flat table is their (exact) Pareto front.
  std::vector<ilp::ConfigProfile> all;
  all.reserve(table_.size());
  for (std::size_t flat = 0; flat < table_.size(); ++flat) {
    all.push_back(ilp::ConfigProfile{flat, table_.energy_j[flat],
                                     table_.latency_s[flat]});
  }
  true_front_ = ilp::prune_dominated_profiles(all).profiles;
}

void ClusterEngine::switch_workload(const device::WorkloadProfile& profile) {
  profile_ = profile;
  t_min_ = model_->round_t_min(profile_, jobs_per_round_);
  table_ = device::FlatPerfTable::build(*model_, profile_);
  ++generation_;
  // The old workload's trajectory is stale the moment the population
  // retrains on the new one: drop it so the very next extend_to() replays
  // the replacement controller's own exploration from entry 0.  Clients
  // keep their participation cursors — a cursor deep into the old
  // trajectory lands on the new generation's entry at the same depth.
  // exploration_entries_ keeps accumulating across generations; the
  // re-exploration cost of a switch is exactly what it measures.
  trajectory_.clear();
  if (kind_ == FleetControllerKind::kBofl) {
    init_controller();
  } else {
    rebuild_true_front();
  }
}

void ClusterEngine::extend_to(std::size_t entries, double deadline_factor) {
  while (trajectory_.size() < entries) {
    append_entry(deadline_factor);
  }
}

void ClusterEngine::append_entry(double deadline_factor) {
  const auto k = static_cast<std::int64_t>(trajectory_.size());
  // The paper's §6.1 protocol per trajectory entry: uniform in
  // [T_min, ratio * T_min].  Draws are strictly sequential in k, so lazy
  // extension reproduces the eager schedule; the diurnal factor scales the
  // drawn deadline without touching the draw sequence.
  const Seconds deadline =
      t_min_ * (deadline_rng_.uniform(1.0, deadline_ratio_) * deadline_factor);
  const core::RoundSpec spec{k, jobs_per_round_, deadline};
  RoundEntry entry = kind_ == FleetControllerKind::kBofl
                         ? bofl_entry(spec)
                         : reference_entry(spec);
  entry.deadline_us = to_micros(deadline);
  if (entry.phase != core::Phase::kExploitation) {
    ++exploration_entries_;
  }
  trajectory_.push_back(entry);
}

ClusterEngine::RoundEntry ClusterEngine::bofl_entry(
    const core::RoundSpec& spec) {
  RoundEntry entry;
  // Pessimistic Eqn. 2 BEFORE the entry runs, mirroring the device
  // scenario harness: the worst combined fault effect any job inside
  // [now, now + deadline) could see, at the clamp-capped x_max.
  const double t0 = controller_->sim_time().value();
  faults::DeviceFaultChannel::WorstCase worst;
  if (channel_ != nullptr) {
    worst = channel_->worst_case_in(t0, t0 + spec.deadline.value());
  }
  const device::DvfsConfig capped = device::clamp_config(
      model_->space(), model_->space().max_config(), worst.config_cap);
  const double t_pess =
      model_->latency(profile_, capped).value() * worst.latency_multiplier;
  const double reserve = effective_options_.tau.value() +
                         effective_options_.first_job_allowance * t_pess;
  entry.feasible = static_cast<double>(spec.num_jobs) * t_pess *
                       (1.0 + effective_options_.deadline_safety_margin) <=
                   spec.deadline.value() - reserve;
  const core::RoundTrace trace = controller_->run_round(spec);
  entry.elapsed_us = to_micros(trace.elapsed());
  entry.energy_uj = to_microjoules(trace.energy());
  entry.mbo_energy_uj = to_microjoules(trace.mbo_energy);
  entry.phase = trace.phase;
  if (channel_ != nullptr) {
    for (const faults::FaultEvent& event :
         channel_->drain_events(spec.index)) {
      faults::emit_fault_event(event);
    }
  }
  return entry;
}

ClusterEngine::RoundEntry ClusterEngine::reference_entry(
    const core::RoundSpec& spec) {
  RoundEntry entry;
  entry.phase = core::Phase::kExploitation;
  const double t_max_lat = table_.latency_s[x_max_flat_];
  const double t_max_energy = table_.energy_j[x_max_flat_];
  const auto jobs = static_cast<double>(spec.num_jobs);
  // Reference policies have no fault channel or reserve: feasibility is
  // simply whether running flat out fits the deadline.
  entry.feasible = jobs * t_max_lat <= spec.deadline.value();
  if (kind_ == FleetControllerKind::kOracle) {
    const ilp::IlpOptions ilp_options{};
    const ilp::Schedule schedule =
        cache_ != nullptr
            ? cache_->solve_pruned(true_front_, spec.num_jobs,
                                   spec.deadline.value(), ilp_options)
            : ilp::solve_round_schedule_pruned(true_front_, spec.num_jobs,
                                               spec.deadline.value(),
                                               ilp_options);
    if (schedule.feasible) {
      entry.elapsed_us = to_micros(Seconds{schedule.total_latency});
      entry.energy_uj = to_microjoules(Joules{schedule.total_energy});
      return entry;
    }
    // Infeasible even for the oracle: run flat out and eat the miss.
  }
  entry.elapsed_us = to_micros(Seconds{jobs * t_max_lat});
  entry.energy_uj = to_microjoules(Joules{jobs * t_max_energy});
  return entry;
}

ClusterEngine::PublishBatch ClusterEngine::prepare_publish() const {
  PublishBatch batch;
  if (kind_ != FleetControllerKind::kBofl || controller_ == nullptr) {
    return batch;
  }
  batch.key = priors::ClusterKey::of(*model_, profile_);
  switch (controller_->prior_state()) {
    case core::BoflController::PriorState::kVerified:
    case core::BoflController::PriorState::kAdopted:
      batch.has_outcome = true;
      batch.confirmed = true;
      break;
    case core::BoflController::PriorState::kDemoted:
      batch.has_outcome = true;
      batch.confirmed = false;
      break;
    case core::BoflController::PriorState::kNone:
    case core::BoflController::PriorState::kVerifying:
      break;
  }
  if (controller_->phase() == core::Phase::kExploitation) {
    batch.has_snapshot = true;
    batch.snapshot = priors::distill(
        *controller_, static_cast<std::int64_t>(trajectory_.size()));
  }
  return batch;
}

void ClusterEngine::apply_publish(priors::KnowledgeStore& store,
                                  const PublishBatch& batch) {
  if (batch.has_outcome) {
    store.record_outcome(batch.key, batch.confirmed);
  }
  if (batch.has_snapshot) {
    store.contribute(batch.key, batch.snapshot);
  }
}

std::vector<std::size_t> ClusterEngine::pareto_flat_ids() const {
  if (kind_ == FleetControllerKind::kBofl) {
    return controller_->pareto_flat_ids();
  }
  std::vector<std::size_t> ids;
  ids.reserve(true_front_.size());
  for (const ilp::ConfigProfile& profile : true_front_) {
    ids.push_back(profile.config_id);
  }
  return ids;
}

const char* to_string(FleetControllerKind kind) {
  switch (kind) {
    case FleetControllerKind::kBofl:
      return "BoFL";
    case FleetControllerKind::kPerformant:
      return "Performant";
    case FleetControllerKind::kOracle:
      return "Oracle";
  }
  return "unknown";
}

}  // namespace bofl::fleet
