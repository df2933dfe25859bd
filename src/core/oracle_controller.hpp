// The Oracle baseline (paper §6.1): the whole configuration space is
// profiled offline (exactly, no noise), so every round is pure
// exploitation over the true Pareto set.  Unachievable in practice — it
// exists to lower-bound energy and measure BoFL's regret.
#pragma once

#include "core/pace_controller.hpp"
#include "device/observer.hpp"
#include "ilp/schedule_solver.hpp"

namespace bofl::core {

class OracleController final : public PaceController {
 public:
  OracleController(const device::DeviceModel& model,
                   device::WorkloadProfile profile,
                   device::NoiseModel noise, std::uint64_t seed);

  RoundTrace run_round(const RoundSpec& spec) override;
  [[nodiscard]] std::string_view name() const override { return "Oracle"; }
  void install_fault_model(device::JobFaultModel* faults) override {
    observer_.set_fault_model(faults);
  }
  [[nodiscard]] Seconds sim_time() const override { return clock_.now(); }

 private:
  const device::DeviceModel& model_;
  device::WorkloadProfile profile_;
  device::PerformanceObserver observer_;
  device::SimClock clock_;
  std::vector<ilp::ConfigProfile> pareto_profiles_;
};

/// Exhaustively profile `model` under `profile` and return the true Pareto
/// set of (energy, latency) per-job profiles (config_id = flat index).
/// Shared by the Oracle controller and the Fig. 11 benchmark.
[[nodiscard]] std::vector<ilp::ConfigProfile> true_pareto_profiles(
    const device::DeviceModel& model, const device::WorkloadProfile& profile);

}  // namespace bofl::core
