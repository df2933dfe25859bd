// Golden-trace regression for the kernel dispatch override: under a forced
// scalar level (the same effect as BOFL_SIMD=scalar) the fleet engine must
// reproduce the committed trace hash bit-for-bit, on every machine, at every
// compiled dispatch level.  This is the repo's proof that introducing the
// vectorized kernel layer did not silently change scalar-mode numerics —
// and that `BOFL_SIMD=scalar` is a real escape hatch, not a best-effort one.
//
// The same config pins the fleet baselines: their hashes were recorded when
// the fleet computed Performant and Oracle from its own flat-table
// arithmetic, so they prove core::PerformantController / OracleController
// reproduce it bit for bit.  LinearModel pins no hash, only invariants.
//
// If an intentional numeric change lands (new kernel math, different
// accumulation order in the scalar reference), regenerate the constant by
// running this test and copying the printed actual hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "device/device_model.hpp"
#include "device/workload.hpp"
#include "fleet/fleet_engine.hpp"
#include "linalg/simd/dispatch.hpp"

namespace bofl::fleet {
namespace {

/// The small_config fleet from fleet_determinism_test.cpp, run at scalar
/// level: 3000 clients, 6 rounds, two device clusters, seed 11.
constexpr std::uint64_t kGoldenScalarTraceHash = 0xf377e83667a5a709ULL;
constexpr std::uint64_t kPerformantTraceHash = 0x2d1037051236c42dULL;
constexpr std::uint64_t kOracleTraceHash = 0x3854cd9f574a626aULL;

/// Pins the dispatch level for the test body and restores the ambient level
/// on exit, so ordering against other tests in this binary doesn't matter.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(linalg::simd::Level level)
      : previous_(linalg::simd::active_level()) {
    linalg::simd::force_level(level);
  }
  ~ScopedSimdLevel() { linalg::simd::force_level(previous_); }

 private:
  linalg::simd::Level previous_;
};

FleetConfig small_config(core::ControllerKind kind) {
  static const device::DeviceModel agx = device::jetson_agx();
  static const device::DeviceModel tx2 = device::jetson_tx2();
  FleetConfig config;
  config.num_clients = 3000;
  config.rounds = 6;
  config.cohort_fraction = 0.05;
  config.seed = 11;
  config.controller = kind;
  config.clusters.push_back({&agx, device::vit_profile(), 0.7});
  config.clusters.push_back({&tx2, device::lstm_profile(), 0.3});
  config.shards = 4;
  config.threads = 4;
  return config;
}

FleetResult run_small_fleet(
    core::ControllerKind kind = core::ControllerKind::kBofl) {
  FleetEngine engine(small_config(kind));
  return engine.run();
}

TEST(FleetGoldenHash, ScalarLevelReproducesCommittedTraceHash) {
  ScopedSimdLevel scalar(linalg::simd::Level::kScalar);
  const FleetResult result = run_small_fleet();
  EXPECT_EQ(result.trace_hash, kGoldenScalarTraceHash)
      << "actual hash 0x" << std::hex << result.trace_hash;
}

TEST(FleetGoldenHash, NativeLevelMatchesScalarTrace) {
  // The trace is built from integer round fields; the float kernels feed it
  // only through tolerance-insensitive decisions.  Both dispatch levels must
  // therefore land on the same committed trace for this config — a drift
  // here means an AVX2 kernel crossed a decision boundary the scalar path
  // does not.
  const FleetResult result = run_small_fleet();
  EXPECT_EQ(result.trace_hash, kGoldenScalarTraceHash)
      << "active level "
      << linalg::simd::to_string(linalg::simd::active_level())
      << ", actual hash 0x" << std::hex << result.trace_hash;
}

TEST(FleetGoldenHash, BaselinesReproduceCommittedTraceHashes) {
  EXPECT_EQ(run_small_fleet(core::ControllerKind::kPerformant).trace_hash,
            kPerformantTraceHash);
  EXPECT_EQ(run_small_fleet(core::ControllerKind::kOracle).trace_hash,
            kOracleTraceHash);
}

TEST(FleetGoldenHash, LinearRunsIdenticallyAtEveryLayout) {
  // No pinned hash: the run completes, every canonical entry is an
  // exploitation entry, and the trace is the same at every layout.
  std::optional<std::uint64_t> first;
  for (const std::size_t shards : {1, 4}) {
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", threads " +
                   std::to_string(threads));
      FleetConfig config = small_config(core::ControllerKind::kLinear);
      config.shards = shards;
      config.threads = threads;
      FleetEngine engine(std::move(config));
      const FleetResult result = engine.run();
      ASSERT_EQ(result.rounds.size(), 6u);
      for (std::size_t c = 0; c < engine.num_clusters(); ++c) {
        const ClusterEngine& cluster = engine.cluster(c);
        ASSERT_GT(cluster.size(), 0u);
        for (std::size_t k = 0; k < cluster.size(); ++k) {
          EXPECT_EQ(cluster.entry(k).phase, core::Phase::kExploitation);
        }
      }
      if (!first.has_value()) {
        first = result.trace_hash;
      }
      EXPECT_EQ(result.trace_hash, *first);
    }
  }
}

}  // namespace
}  // namespace bofl::fleet
