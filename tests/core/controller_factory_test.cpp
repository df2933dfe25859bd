#include "core/controller_factory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/harness.hpp"
#include "core/mbo_cost.hpp"
#include "core/task.hpp"

namespace bofl::core {
namespace {

constexpr ControllerKind kAllKinds[] = {
    ControllerKind::kBofl, ControllerKind::kPerformant,
    ControllerKind::kOracle, ControllerKind::kLinear};

ControllerSpec agx_spec(const device::DeviceModel& agx, ControllerKind kind) {
  ControllerSpec spec;
  spec.kind = kind;
  spec.model = &agx;
  spec.profile = device::vit_profile();
  spec.seed = 17;
  return spec;
}

/// Latency covers the three time coefficients, energy the power draw.
void expect_same_mbo_cost(const MboCostModel& a, const MboCostModel& b) {
  EXPECT_EQ(a.latency(7, 3).value(), b.latency(7, 3).value());
  EXPECT_EQ(a.energy(7, 3).value(), b.energy(7, 3).value());
}

TEST(ControllerFactory, EachKindBuildsItsController) {
  const device::DeviceModel agx = device::jetson_agx();
  const std::string names[] = {"BoFL", "Performant", "Oracle", "LinearModel"};
  for (std::size_t i = 0; i < std::size(kAllKinds); ++i) {
    const BuiltController built = make_controller(agx_spec(agx, kAllKinds[i]));
    ASSERT_NE(built.controller, nullptr);
    EXPECT_EQ(built.controller->name(), names[i]);
    // The typed BoFL view aliases the controller for kBofl only.
    EXPECT_EQ(static_cast<PaceController*>(built.bofl),
              kAllKinds[i] == ControllerKind::kBofl ? built.controller.get()
                                                    : nullptr);
  }
}

TEST(ControllerFactory, KindNamesRoundTrip) {
  EXPECT_STREQ(to_string(ControllerKind::kBofl), "bofl");
  EXPECT_STREQ(to_string(ControllerKind::kPerformant), "performant");
  EXPECT_STREQ(to_string(ControllerKind::kOracle), "oracle");
  EXPECT_STREQ(to_string(ControllerKind::kLinear), "linear");
  for (const ControllerKind kind : kAllKinds) {
    EXPECT_EQ(controller_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_FALSE(controller_kind_from_string("BoFL").has_value());
  EXPECT_FALSE(controller_kind_from_string("").has_value());
}

TEST(ControllerFactory, TauIsCappedOnlyWhenARoundTminIsGiven) {
  const device::DeviceModel agx = device::jetson_agx();
  ControllerSpec spec = agx_spec(agx, ControllerKind::kBofl);
  spec.bofl.tau = Seconds{5.0};
  EXPECT_EQ(effective_bofl_options(spec).tau.value(), 5.0);

  spec.round_t_min = Seconds{16.0};  // T_min / 8 = 2 s < τ
  EXPECT_EQ(effective_bofl_options(spec).tau.value(), 2.0);
  spec.round_t_min = Seconds{80.0};  // T_min / 8 = 10 s > τ: no change
  EXPECT_EQ(effective_bofl_options(spec).tau.value(), 5.0);
}

TEST(ControllerFactory, MboCostIsAlwaysDeviceCalibrated) {
  const device::DeviceModel tx2 = device::jetson_tx2();
  ControllerSpec spec = agx_spec(tx2, ControllerKind::kBofl);
  spec.bofl.mbo_cost = MboCostModel{1.0, 2.0, 3.0, 4.0};
  const MboCostModel calibrated = mbo_cost_for_device(tx2.name());
  expect_same_mbo_cost(effective_bofl_options(spec).mbo_cost, calibrated);
  spec.round_t_min = Seconds{8.0};
  expect_same_mbo_cost(effective_bofl_options(spec).mbo_cost, calibrated);
}

TEST(ControllerFactory, BoflTraceEqualsAHandBuiltController) {
  const device::DeviceModel agx = device::jetson_agx();
  FlTaskSpec task = cifar10_vit_task(agx.name());
  task.num_rounds = 8;
  const std::vector<RoundSpec> rounds = make_rounds(task, agx, 4.0, 5);
  const Seconds t_min = agx.round_t_min(task.profile, task.jobs_per_round());

  ControllerSpec spec = agx_spec(agx, ControllerKind::kBofl);
  spec.profile = task.profile;
  spec.round_t_min = t_min;
  const BuiltController built = make_controller(spec);

  BoflOptions options;
  options.mbo_cost = mbo_cost_for_device(agx.name());
  options.tau = Seconds{std::min(options.tau.value(), t_min.value() / 8.0)};
  BoflController hand(agx, task.profile, device::NoiseModel{}, options,
                      spec.seed);

  const TaskResult a = run_task(*built.controller, rounds);
  const TaskResult b = run_task(hand, rounds);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const RoundTrace& x = a.rounds[r];
    const RoundTrace& y = b.rounds[r];
    EXPECT_EQ(x.phase, y.phase);
    EXPECT_EQ(x.mbo_energy.value(), y.mbo_energy.value());
    EXPECT_EQ(x.explored_flat_ids, y.explored_flat_ids);
    ASSERT_EQ(x.runs.size(), y.runs.size());
    for (std::size_t i = 0; i < x.runs.size(); ++i) {
      EXPECT_EQ(x.runs[i].config, y.runs[i].config);
      EXPECT_EQ(x.runs[i].jobs, y.runs[i].jobs);
      EXPECT_EQ(x.runs[i].true_time.value(), y.runs[i].true_time.value());
      EXPECT_EQ(x.runs[i].true_energy.value(), y.runs[i].true_energy.value());
    }
  }
  // The run must reach past exploration to be a meaningful comparison.
  EXPECT_GT(a.rounds_in_phase(Phase::kParetoConstruction) +
                a.rounds_in_phase(Phase::kExploitation),
            0);
}

}  // namespace
}  // namespace bofl::core
