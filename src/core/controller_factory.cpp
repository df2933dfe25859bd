#include "core/controller_factory.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/linear_controller.hpp"
#include "core/oracle_controller.hpp"
#include "core/performant_controller.hpp"

namespace bofl::core {

const char* to_string(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kBofl:
      return "bofl";
    case ControllerKind::kPerformant:
      return "performant";
    case ControllerKind::kOracle:
      return "oracle";
    case ControllerKind::kLinear:
      return "linear";
  }
  return "unknown";
}

std::optional<ControllerKind> controller_kind_from_string(
    std::string_view name) {
  for (const ControllerKind kind :
       {ControllerKind::kBofl, ControllerKind::kPerformant,
        ControllerKind::kOracle, ControllerKind::kLinear}) {
    if (name == to_string(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

BoflOptions effective_bofl_options(const ControllerSpec& spec) {
  BOFL_REQUIRE(spec.model != nullptr, "controller spec needs a device model");
  BoflOptions options = spec.bofl;
  options.mbo_cost = mbo_cost_for_device(spec.model->name());
  if (spec.round_t_min.has_value()) {
    options.tau = Seconds{
        std::min(options.tau.value(), spec.round_t_min->value() / 8.0)};
  }
  return options;
}

BuiltController make_controller(const ControllerSpec& spec) {
  BOFL_REQUIRE(spec.model != nullptr, "controller spec needs a device model");
  const device::DeviceModel& model = *spec.model;
  BuiltController built;
  switch (spec.kind) {
    case ControllerKind::kBofl: {
      auto bofl = std::make_unique<BoflController>(
          model, spec.profile, spec.noise, effective_bofl_options(spec),
          spec.seed);
      bofl->set_parallel_pool(spec.pool);
      built.bofl = bofl.get();
      built.controller = std::move(bofl);
      break;
    }
    case ControllerKind::kPerformant:
      built.controller = std::make_unique<PerformantController>(
          model, spec.profile, spec.noise, spec.seed);
      break;
    case ControllerKind::kOracle:
      built.controller = std::make_unique<OracleController>(
          model, spec.profile, spec.noise, spec.seed);
      break;
    case ControllerKind::kLinear:
      built.controller = std::make_unique<LinearModelController>(
          model, spec.profile, spec.noise, spec.seed);
      break;
  }
  BOFL_ASSERT(built.controller != nullptr, "unknown controller kind");
  built.controller->install_fault_model(spec.faults);
  return built;
}

}  // namespace bofl::core
