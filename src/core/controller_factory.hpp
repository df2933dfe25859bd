// The one way to build a pace controller.  bofl_sim, fl::Simulation and the
// fleet's per-cluster canonical controllers all name the policy with one
// ControllerKind and build it here, so the device-calibrated MBO cost, the
// τ cap for short rounds and the BoFL-only wiring are written once.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "core/bofl_controller.hpp"

namespace bofl::core {

enum class ControllerKind {
  kBofl,        ///< the paper's controller (phase 1 → 2 → 3)
  kPerformant,  ///< every job at x_max (§6.1 baseline)
  kOracle,      ///< exploitation ILP over the true Pareto front (§6.1)
  kLinear,      ///< SmartPC-style CPU-only linear model (ablation)
};

/// The command-line spelling: "bofl", "performant", "oracle", "linear".
[[nodiscard]] const char* to_string(ControllerKind kind);
[[nodiscard]] std::optional<ControllerKind> controller_kind_from_string(
    std::string_view name);

struct ControllerSpec {
  ControllerKind kind = ControllerKind::kBofl;
  const device::DeviceModel* model = nullptr;  ///< must outlive the controller
  device::WorkloadProfile profile = device::vit_profile();
  device::NoiseModel noise{};
  std::uint64_t seed = 1;
  /// BoFL tuning; mbo_cost is always replaced by mbo_cost_for_device.
  BoflOptions bofl{};
  /// When set, τ is capped at round_t_min / 8 so short rounds (FL shards,
  /// fleet clusters) can still explore; unset keeps the paper's τ.
  std::optional<Seconds> round_t_min;
  runtime::ThreadPool* pool = nullptr;          ///< BoFL's inner loops
  device::JobFaultModel* faults = nullptr;      ///< installed on any kind
};

/// The controller, plus a typed view of it for kBofl (null otherwise) so
/// callers reach BoFL's priors and state export without a dynamic_cast.
struct BuiltController {
  std::unique_ptr<PaceController> controller;
  BoflController* bofl = nullptr;
};

/// The options a kBofl spec builds with (calibrated mbo_cost, capped τ).
[[nodiscard]] BoflOptions effective_bofl_options(const ControllerSpec& spec);

[[nodiscard]] BuiltController make_controller(const ControllerSpec& spec);

}  // namespace bofl::core
