// bofl_perfbench — workload binary of the repository benchmark.
//
//   bofl_perfbench --workload fleet-switch|device-paper
//                  --seed N --seconds S --trace 0|1 --out RAW.json
//                  [--trace-out TRACE.json]
//
// Runs one workload through the public fleet / core / priors APIs and
// writes the raw samples to RAW.json; perfbench/run.py turns them into the
// benchmark's metrics and verdict (see perfbench/README.md).
//
// A run covers kInstances instances of the workload, each on a seed derived
// from --seed: untimed input generation, a few set-up-only builds, then
// timed repetitions over all instances while another fits in S seconds.  One
// instance repetition builds the workload (set-up), runs it (the timed
// part: one FleetEngine::run() call, or the device-paper run_round loop)
// and, on fleet-switch, replays every cluster's canonical trajectory
// one ClusterEngine::extend_to(k + 1) at a time on fresh cluster engines —
// the per-round controller CPU samples — checking each replayed entry
// against the fleet's bit-for-bit.
//
// With --trace 1 the timed repetitions fill the first half of S and one
// more repetition runs traced: the process-global telemetry registry is
// installed and spans are recorded around the benchmark's own calls into
// each layer; the spans go to TRACE.json as Chrome trace events.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "core/bofl_controller.hpp"
#include "core/mbo_cost.hpp"
#include "core/task.hpp"
#include "device/device_model.hpp"
#include "faults/fleet_scenario.hpp"
#include "fleet/cluster.hpp"
#include "fleet/fleet_engine.hpp"
#include "ilp/schedule_cache.hpp"
#include "linalg/simd/dispatch.hpp"
#include "priors/knowledge_store.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/process.hpp"

namespace {

using namespace bofl;
using telemetry::JsonValue;

// ---------------------------------------------------------------- clocks

double wall_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds of the whole process: every thread, including pool workers
/// that have already exited.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------- tracing

/// In-memory span recorder.  All spans are opened and closed on the main
/// thread, so a stack gives every span its parent.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start_s = 0.0;
    double end_s = 0.0;
    std::int64_t parent = -1;
    std::int64_t instance = -1;
    std::int64_t cluster = -1;
    std::int64_t entry = -1;
    int phase = 0;
  };

  explicit Tracer(double epoch) : epoch_(epoch) {}

  std::size_t open(std::string name, std::string layer, std::int64_t cluster,
                   std::int64_t entry) {
    Span span;
    span.name = std::move(name);
    span.layer = std::move(layer);
    span.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    span.instance = instance_;
    span.cluster = cluster;
    span.entry = entry;
    span.start_s = wall_s();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    spans_[id].end_s = wall_s();
    stack_.pop_back();
  }

  void set_phase(std::size_t id, int phase) { spans_[id].phase = phase; }

  /// Tag the spans opened from now on with a workload instance.
  void set_instance(std::int64_t instance) { instance_ = instance; }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  [[nodiscard]] std::string to_chrome_json(const std::string& workload) const {
    JsonValue events = JsonValue::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      JsonValue args = JsonValue::object();
      args.set("id", static_cast<std::int64_t>(i))
          .set("parent", span.parent)
          .set("workload", workload)
          .set("instance", span.instance)
          .set("cluster", span.cluster)
          .set("entry", span.entry)
          .set("phase", span.phase);
      JsonValue event = JsonValue::object();
      event.set("name", span.name)
          .set("cat", span.layer)
          .set("ph", "X")
          .set("ts", 1e6 * (span.start_s - epoch_))
          .set("dur", 1e6 * (span.end_s - span.start_s))
          .set("pid", 1)
          .set("tid", 1)
          .set("args", std::move(args));
      events.push_back(std::move(event));
    }
    JsonValue root = JsonValue::object();
    root.set("traceEvents", std::move(events)).set("displayTimeUnit", "ms");
    return root.dump();
  }

 private:
  double epoch_;
  std::int64_t instance_ = -1;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer,
             std::int64_t cluster = -1, std::int64_t entry = -1)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      id_ = tracer_->open(name, layer, cluster, entry);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_phase(int phase) {
    if (tracer_ != nullptr) {
      tracer_->set_phase(id_, phase);
    }
  }

 private:
  Tracer* tracer_;
  std::size_t id_ = 0;
};

// ---------------------------------------------------------------- results

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t hash = 0;
  std::uint64_t participations = 0;
  std::uint64_t missed = 0;
  double energy_j = 0.0;  ///< training + MBO, all participations
  std::int64_t rounds = 0;
  std::vector<double> round_cpu_ms;  ///< per-round controller CPU
  std::vector<Check> checks;
  JsonValue layers = JsonValue::object();  ///< traced repetitions only
};

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_fold(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFU;
    hash *= kFnvPrime;
  }
}

void fnv_fold(std::uint64_t& hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  fnv_fold(hash, bits);
}

/// Registry contents as JSON: counters and gauges by name, histograms as
/// {count, sum, max, p50}.
JsonValue registry_json(const telemetry::Registry& registry) {
  const telemetry::RegistrySnapshot snap = registry.snapshot();
  JsonValue counters = JsonValue::object();
  for (const telemetry::CounterSnapshot& c : snap.counters) {
    counters.set(c.name, c.value);
  }
  JsonValue gauges = JsonValue::object();
  for (const telemetry::GaugeSnapshot& g : snap.gauges) {
    gauges.set(g.name, g.value);
  }
  JsonValue histograms = JsonValue::object();
  for (const telemetry::NamedHistogramSnapshot& h : snap.histograms) {
    JsonValue entry = JsonValue::object();
    entry.set("count", h.histogram.count)
        .set("sum", h.histogram.sum)
        .set("max", h.histogram.count == 0 ? 0.0 : h.histogram.max)
        .set("p50", h.histogram.quantile(0.5));
    histograms.set(h.name, std::move(entry));
  }
  JsonValue out = JsonValue::object();
  out.set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("histograms", std::move(histograms));
  return out;
}

bool entries_equal(const fleet::ClusterEngine::RoundEntry& a,
                   const fleet::ClusterEngine::RoundEntry& b) {
  return a.deadline_us == b.deadline_us && a.elapsed_us == b.elapsed_us &&
         a.energy_uj == b.energy_uj && a.mbo_energy_uj == b.mbo_energy_uj &&
         a.phase == b.phase && a.feasible == b.feasible;
}

bool tables_equal(const device::FlatPerfTable& a,
                  const device::FlatPerfTable& b) {
  return a.latency_s == b.latency_s && a.energy_j == b.energy_j &&
         a.power_w == b.power_w;
}

// ---------------------------------------------------------------- workloads

/// Branch-and-bound node cap for every exploitation solve the workloads
/// run.  At the library default (100000) an occasional round problem makes
/// the search crawl for tens of minutes — device-paper instance seed 20,
/// AGX / ResNet-50 at ratio 4, round 80 — because every node re-solves an
/// LP that grows with its depth.  The cap returns the incumbent (the
/// solver's two-profile warm start) instead; round problems that finish
/// below it are unchanged bit for bit.  See perfbench/README.md, "Known
/// defects".
constexpr std::size_t kIlpMaxNodes = 1000;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed input generation from the seed.
  virtual void prepare() = 0;
  /// Build the workload and throw it away: one set-up time sample.
  virtual double setup_only() = 0;
  /// One repetition; `tracer` non-null for the traced repetition (the
  /// global telemetry registry is installed around it).
  virtual Rep rep(Tracer* tracer, telemetry::Registry* registry) = 0;
  /// Whether the round samples of all instances of a repetition form one
  /// group for the p50 and tail, rather than one group per instance.
  [[nodiscard]] virtual bool pools_round_samples() const = 0;
};

/// The fleet's cross-tier population: phones dominate the count, edge
/// boards carry the mid-tier, a thin server slice anchors the fast tail.
struct GlobalMix {
  device::DeviceModel phone = device::pixel_phone();
  device::DeviceModel agx = device::jetson_agx();
  device::DeviceModel tx2 = device::jetson_tx2();
  device::DeviceModel server = device::edge_server();

  [[nodiscard]] std::vector<fleet::ClusterSpec> clusters() const {
    return {{&phone, device::vit_profile(), 0.35},
            {&phone, device::lstm_profile(), 0.20},
            {&agx, device::vit_profile(), 0.20},
            {&tx2, device::lstm_profile(), 0.15},
            {&server, device::resnet50_profile(), 0.10}};
  }
};

/// fleet-switch: 20k clients, cohort 0.5, the global mix, cold start; every
/// cluster switches to ResNet-50 at round 10 and explores again.
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {}

  void prepare() override {
    config_.num_clients = 20'000;
    config_.rounds = 300;
    config_.cohort_fraction = 0.5;
    config_.deadline_ratio = 8.0;
    config_.seed = seed_;
    config_.shards = 5;
    config_.threads = threads_;
    config_.clusters = mix_.clusters();
    config_.scenario = faults::make_fleet_scenario("task-switch", seed_);
    config_.bofl_options.ilp.max_nodes = kIlpMaxNodes;
    record_first_generation();
  }

  double setup_only() override {
    const double t0 = wall_s();
    const fleet::FleetEngine engine(config_);
    return wall_s() - t0;
  }

  /// One fleet has only ~50 exploration entries over its five clusters —
  /// too few to hold ten samples beyond a tail at a stable place — so the
  /// tail is taken over the replays of all instances of a repetition.
  [[nodiscard]] bool pools_round_samples() const override { return true; }

  Rep rep(Tracer* tracer, telemetry::Registry* registry) override {
    Rep rep;
    rep.traced = tracer != nullptr;
    ScopedSpan root(tracer, "fleet-switch", "bench");
    std::unique_ptr<fleet::FleetEngine> engine;
    {
      ScopedSpan span(tracer, "fleet.construct", "fleet");
      const double t0 = wall_s();
      engine = std::make_unique<fleet::FleetEngine>(config_);
      rep.setup_s = wall_s() - t0;
    }
    fleet::FleetResult result;
    {
      ScopedSpan span(tracer, "fleet.run", "fleet");
      const double c0 = process_cpu_s();
      const double w0 = wall_s();
      result = engine->run();
      rep.cpu_s = process_cpu_s() - c0;
      rep.wall_s = wall_s() - w0;
    }
    if (registry != nullptr) {
      rep.layers.set("run", registry_json(*registry));
    }
    summarize(result, rep);
    replay(*engine, result, tracer, registry, rep);
    if (tracer != nullptr) {
      probe_tables(*engine, tracer, rep);
    }
    return rep;
  }

 private:
  /// The first generation of every cluster trajectory (rounds 0..9, before
  /// the switch drops it), from a 10-round run of the same fleet.  The
  /// replay needs its depth to reproduce the deadline stream of the second
  /// generation.
  void record_first_generation() {
    fleet::FleetConfig prefix = config_;
    prefix.rounds = kSwitchRound;
    fleet::FleetEngine engine(std::move(prefix));
    prefix_rounds_ = engine.run().rounds;
    first_generation_.resize(engine.num_clusters());
    for (std::size_t c = 0; c < engine.num_clusters(); ++c) {
      const fleet::ClusterEngine& cluster = engine.cluster(c);
      for (std::size_t k = 0; k < cluster.size(); ++k) {
        first_generation_[c].push_back(cluster.entry(k));
      }
    }
  }

  void summarize(const fleet::FleetResult& result, Rep& rep) const {
    rep.hash = result.trace_hash;
    rep.rounds = static_cast<std::int64_t>(result.rounds.size());
    rep.participations = result.total_participants();
    std::uint64_t energy_uj = 0;
    std::uint64_t events = 0;
    bool phases_conserved = true;
    bool bounded = true;
    for (const fleet::FleetRoundStats& round : result.rounds) {
      rep.missed += round.missed;
      energy_uj += round.energy_uj + round.mbo_energy_uj;
      events += round.participants;
      phases_conserved &= round.phase1 + round.phase2 + round.phase3 ==
                          round.participants;
      bounded &= round.missed <= round.participants &&
                 round.timed_out <= round.participants &&
                 round.participants <= config_.num_clients;
    }
    rep.energy_j = 1e-6 * static_cast<double>(energy_uj);
    // Participants are conserved: every round's participants are exactly
    // its phase-1 + phase-2 + phase-3 replays, and the per-round counts add
    // up to the run total.
    rep.checks.push_back({"participants conserved across rounds",
                          phases_conserved && bounded &&
                              events == rep.participations &&
                              rep.rounds == config_.rounds,
                          std::to_string(rep.participations) +
                              " participations over " +
                              std::to_string(rep.rounds) + " rounds"});
    // The expected participations are clients x cohort x rounds; a
    // binomial count stays within 6 sigma of it.
    const double expected = static_cast<double>(config_.num_clients) *
                            config_.cohort_fraction *
                            static_cast<double>(config_.rounds);
    const double sigma =
        std::sqrt(expected * (1.0 - config_.cohort_fraction));
    const double got = static_cast<double>(rep.participations);
    rep.checks.push_back({"participations match clients x cohort x rounds",
                          std::abs(got - expected) <= 6.0 * sigma,
                          std::to_string(got) + " vs " +
                              std::to_string(expected)});
    const bool prefix_equal = std::equal(
        prefix_rounds_.begin(), prefix_rounds_.end(), result.rounds.begin());
    rep.checks.push_back({"first 10 rounds equal a 10-round run",
                          prefix_equal, ""});
  }

  /// Replay every cluster's canonical trajectory on a fresh ClusterEngine,
  /// one extend_to(k + 1) per entry: per-round controller CPU samples, and
  /// a bit-for-bit check against the fleet's entries.  The replay runs
  /// without a pool, as extension does inside the fleet (it runs on a pool
  /// worker, where the controller's inner loops run inline).
  void replay(const fleet::FleetEngine& engine,
              const fleet::FleetResult& result, Tracer* tracer,
              telemetry::Registry* registry, Rep& rep) {
    ScopedSpan replay_span(tracer, "replay", "bench");
    const fleet::FleetConfig& config = engine.config();
    ilp::ScheduleCache cache;
    std::vector<fleet::ClusterEngine::PublishBatch> batches;
    std::size_t compared = 0;
    std::size_t mismatched = 0;
    std::size_t guardian_violations = 0;
    bool shape_equal = true;
    double replay_ms = 0.0;
    for (std::size_t c = 0; c < engine.num_clusters(); ++c) {
      const fleet::ClusterEngine& reference = engine.cluster(c);
      ScopedSpan cluster_span(tracer, "replay.cluster", "fleet",
                              static_cast<std::int64_t>(c));
      std::unique_ptr<fleet::ClusterEngine> cluster;
      {
        ScopedSpan span(tracer, "core.construct", "core",
                        static_cast<std::int64_t>(c));
        cluster = std::make_unique<fleet::ClusterEngine>(
            c, config.clusters[c], config, &cache, nullptr);
      }
      const auto extend_one = [&](std::size_t k,
                                  const fleet::ClusterEngine::RoundEntry& want) {
        const double w0 = wall_s();
        const double c0 = process_cpu_s();
        {
          ScopedSpan span(tracer, "core.extend", "core",
                          static_cast<std::int64_t>(c),
                          static_cast<std::int64_t>(k));
          cluster->extend_to(k + 1);
          span.set_phase(static_cast<int>(cluster->entry(k).phase));
        }
        rep.round_cpu_ms.push_back(1e3 * (process_cpu_s() - c0));
        replay_ms += 1e3 * (wall_s() - w0);
        ++compared;
        const fleet::ClusterEngine::RoundEntry& got = cluster->entry(k);
        if (!entries_equal(got, want)) {
          ++mismatched;
        }
        if (got.phase != core::Phase::kExploitation && got.feasible &&
            got.elapsed_us > got.deadline_us) {
          ++guardian_violations;
        }
      };
      for (std::size_t k = 0; k < first_generation_[c].size(); ++k) {
        extend_one(k, first_generation_[c][k]);
      }
      const double w0 = wall_s();
      {
        ScopedSpan span(tracer, "core.switch_workload", "core",
                        static_cast<std::int64_t>(c));
        cluster->switch_workload(*device::profile_from_string(
            config.scenario->task_switches.front().profile));
      }
      replay_ms += 1e3 * (wall_s() - w0);
      for (std::size_t k = 0; k < reference.size(); ++k) {
        extend_one(k, reference.entry(k));
      }
      shape_equal &= cluster->size() == reference.size() &&
                     cluster->generation() == reference.generation() &&
                     cluster->exploration_entries() ==
                         reference.exploration_entries();
      if (tracer != nullptr) {
        ScopedSpan span(tracer, "priors.prepare_publish", "priors",
                        static_cast<std::int64_t>(c));
        batches.push_back(cluster->prepare_publish());
      }
    }
    rep.checks.push_back(
        {"cluster replay equals the fleet's trajectories bit-for-bit",
         mismatched == 0 && shape_equal && compared > 0,
         std::to_string(compared - mismatched) + "/" +
             std::to_string(compared) + " entries matched"});
    // Eqn. 2 on the canonical trajectories: an exploration entry the
    // pessimistic check judged feasible never overruns its deadline.
    rep.checks.push_back(
        {"no feasible exploration entry misses its deadline (Eqn. 2)",
         guardian_violations == 0,
         std::to_string(guardian_violations) + " violations"});
    if (tracer != nullptr) {
      probe_priors(batches, tracer, rep);
    }
    if (registry != nullptr) {
      const ilp::ScheduleCache::Stats stats = cache.stats();
      JsonValue fleet_layer = JsonValue::object();
      fleet_layer.set("control_plane_ms", result.control_plane_ms)
          .set("data_plane_ms", result.data_plane_ms)
          .set("replay_ms", replay_ms)
          .set("participations", result.total_participants())
          .set("soa_bytes_per_client", result.bytes_per_client())
          .set("exploration_entries", result.exploration_rounds)
          .set("warm_clusters", static_cast<std::uint64_t>(result.warm_clusters));
      JsonValue ilp_layer = JsonValue::object();
      ilp_layer.set("hits", stats.hits).set("misses", stats.misses);
      rep.layers.set("fleet", std::move(fleet_layer))
          .set("ilp", std::move(ilp_layer))
          .set("replay", registry_json(*registry));
    }
  }

  /// Knowledge-plane probe: publish the replayed clusters into a fresh
  /// store and load its bytes back, as a later generation of the fleet
  /// would.
  static void probe_priors(
      const std::vector<fleet::ClusterEngine::PublishBatch>& batches,
      Tracer* tracer, Rep& rep) {
    priors::KnowledgeStore store;
    {
      ScopedSpan span(tracer, "priors.apply_publish", "priors");
      for (const fleet::ClusterEngine::PublishBatch& batch : batches) {
        fleet::ClusterEngine::apply_publish(store, batch);
      }
    }
    const std::string bytes = store.to_json();
    std::string again;
    {
      ScopedSpan span(tracer, "priors.load", "priors");
      again = priors::KnowledgeStore::from_json(bytes).to_json();
    }
    rep.checks.push_back({"published store to_json round trip is byte-stable",
                          again == bytes && store.num_clusters() > 0,
                          std::to_string(store.num_clusters()) + " clusters, " +
                              std::to_string(bytes.size()) + " bytes"});
  }

  /// Device layer probe: rebuild each cluster's flat cost table and check
  /// it against the one the fleet built.
  void probe_tables(const fleet::FleetEngine& engine, Tracer* tracer,
                    Rep& rep) const {
    bool equal = true;
    for (std::size_t c = 0; c < engine.num_clusters(); ++c) {
      const fleet::ClusterEngine& cluster = engine.cluster(c);
      ScopedSpan span(tracer, "device.table_build", "device",
                      static_cast<std::int64_t>(c));
      const device::FlatPerfTable table =
          device::FlatPerfTable::build(cluster.model(), cluster.profile());
      equal &= tables_equal(table, cluster.flat_table());
    }
    rep.checks.push_back({"rebuilt flat tables equal the fleet's", equal, ""});
  }

  static constexpr std::int64_t kSwitchRound = 10;

  std::uint64_t seed_;
  std::size_t threads_;
  GlobalMix mix_;
  fleet::FleetConfig config_;
  std::vector<fleet::FleetRoundStats> prefix_rounds_;
  std::vector<std::vector<fleet::ClusterEngine::RoundEntry>> first_generation_;
};

/// The paper's §6 protocol without a fleet: AGX and TX2 x the three paper
/// tasks x deadline ratios {2, 4}, 100 rounds each, one BoflController at a
/// time on a shared pool.
class DeviceWorkload final : public Workload {
 public:
  DeviceWorkload(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {}

  void prepare() override {
    for (const device::DeviceModel* model : {&agx_, &tx2_}) {
      for (const core::FlTaskSpec& task : core::paper_tasks(model->name())) {
        for (const double ratio : {2.0, 4.0}) {
          const std::uint64_t index = runs_.size();
          Run run;
          run.model = model;
          run.task = task;
          run.rounds = core::make_rounds(task, *model, ratio,
                                         stream_seed(seed_, 2 * index));
          run.seed = stream_seed(seed_, 2 * index + 1);
          runs_.push_back(std::move(run));
        }
      }
    }
  }

  double setup_only() override {
    const double t0 = wall_s();
    const Built built = build(nullptr);
    return wall_s() - t0;
  }

  /// A 1200-round sweep is the paper's unit: its tail is p99.2.
  [[nodiscard]] bool pools_round_samples() const override { return false; }

  Rep rep(Tracer* tracer, telemetry::Registry* registry) override {
    Rep rep;
    rep.traced = tracer != nullptr;
    ScopedSpan root(tracer, "device-paper", "bench");
    Built built;
    {
      ScopedSpan span(tracer, "setup", "bench");
      const double t0 = wall_s();
      built = build(tracer);
      rep.setup_s = wall_s() - t0;
    }
    std::uint64_t hash = kFnvOffset;
    std::int64_t missed = 0;
    std::int64_t explore_missed = 0;
    double energy = 0.0;
    {
      ScopedSpan span(tracer, "core.run", "core");
      const double c0 = process_cpu_s();
      const double w0 = wall_s();
      for (std::size_t i = 0; i < runs_.size(); ++i) {
        core::BoflController& controller = *built.controllers[i];
        for (const core::RoundSpec& spec : runs_[i].rounds) {
          const double r0 = process_cpu_s();
          core::RoundTrace trace;
          {
            ScopedSpan round(tracer, "core.run_round", "core",
                             static_cast<std::int64_t>(i), spec.index);
            trace = controller.run_round(spec);
            round.set_phase(static_cast<int>(trace.phase));
          }
          rep.round_cpu_ms.push_back(1e3 * (process_cpu_s() - r0));
          fnv_fold(hash, static_cast<std::uint64_t>(i));
          fnv_fold(hash, static_cast<std::uint64_t>(trace.index));
          fnv_fold(hash, static_cast<std::uint64_t>(trace.phase));
          fnv_fold(hash, trace.deadline.value());
          fnv_fold(hash, trace.elapsed().value());
          fnv_fold(hash, trace.energy().value());
          fnv_fold(hash, trace.mbo_energy.value());
          energy += trace.energy().value() + trace.mbo_energy.value();
          if (!trace.deadline_met()) {
            ++missed;
            explore_missed += trace.phase != core::Phase::kExploitation;
          }
          ++rep.rounds;
        }
      }
      rep.cpu_s = process_cpu_s() - c0;
      rep.wall_s = wall_s() - w0;
    }
    rep.hash = hash;
    rep.participations = static_cast<std::uint64_t>(rep.rounds);
    rep.missed = static_cast<std::uint64_t>(missed);
    rep.energy_j = energy;
    // Eqn. 2 is the exploration guardian: a phase-1/2 round never misses.
    // Exploitation rounds follow the ILP schedule instead; their misses are
    // counted in on_time_rate, not failed here.
    rep.checks.push_back({"no exploration round misses its deadline (Eqn. 2)",
                          explore_missed == 0,
                          std::to_string(explore_missed) + " of " +
                              std::to_string(missed) + " misses in " +
                              std::to_string(rep.rounds) + " rounds"});
    if (registry != nullptr) {
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
      for (const std::unique_ptr<ilp::ScheduleCache>& cache : built.caches) {
        hits += cache->stats().hits;
        misses += cache->stats().misses;
      }
      built.pool.reset();  // publishes runtime.pool_utilization
      rep.layers.set("run", registry_json(*registry));
      JsonValue ilp_layer = JsonValue::object();
      ilp_layer.set("hits", hits).set("misses", misses);
      rep.layers.set("ilp", std::move(ilp_layer));
      bool equal = true;
      for (const Run& run : runs_) {
        ScopedSpan span(tracer, "device.table_build", "device");
        equal &= device::FlatPerfTable::build(*run.model, run.task.profile)
                     .size() == run.model->space().size();
      }
      rep.checks.push_back({"flat tables cover every configuration", equal, ""});
    }
    return rep;
  }

 private:
  struct Run {
    const device::DeviceModel* model = nullptr;
    core::FlTaskSpec task;
    std::vector<core::RoundSpec> rounds;
    std::uint64_t seed = 0;
  };
  struct Built {
    std::unique_ptr<runtime::ThreadPool> pool;
    std::vector<std::unique_ptr<ilp::ScheduleCache>> caches;
    std::vector<std::unique_ptr<core::BoflController>> controllers;
  };

  Built build(Tracer* tracer) const {
    Built built;
    built.pool = std::make_unique<runtime::ThreadPool>(threads_);
    ScopedSpan span(tracer, "core.construct", "core");
    for (const Run& run : runs_) {
      core::BoflOptions options;
      options.mbo_cost = core::mbo_cost_for_device(run.model->name());
      options.ilp.max_nodes = kIlpMaxNodes;
      built.caches.push_back(std::make_unique<ilp::ScheduleCache>());
      built.controllers.push_back(std::make_unique<core::BoflController>(
          *run.model, run.task.profile, device::NoiseModel{}, options,
          run.seed));
      built.controllers.back()->set_parallel_pool(built.pool.get());
      built.controllers.back()->set_schedule_cache(built.caches.back().get());
    }
    return built;
  }

  std::uint64_t seed_;
  std::size_t threads_;
  device::DeviceModel agx_ = device::jetson_agx();
  device::DeviceModel tx2_ = device::jetson_tx2();
  std::vector<Run> runs_;
};

// ---------------------------------------------------------------- context

/// Effective-parallelism probe: every hardware thread spins for `seconds`
/// of wall time; process CPU over wall is how many cores the machine
/// actually granted.
double parallelism_probe(std::size_t threads, double seconds) {
  const double c0 = process_cpu_s();
  const double w0 = wall_s();
  std::vector<std::thread> spinners;
  for (std::size_t t = 0; t < threads; ++t) {
    spinners.emplace_back([w0, seconds] {
      volatile std::uint64_t sink = 0;
      while (wall_s() - w0 < seconds) {
        for (int i = 0; i < 1000; ++i) {
          sink = sink + static_cast<std::uint64_t>(i);
        }
      }
    });
  }
  for (std::thread& spinner : spinners) {
    spinner.join();
  }
  return (process_cpu_s() - c0) / (wall_s() - w0);
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

/// One repetition over every workload instance, as one JSON record: times
/// and outputs summed; set-up times and layers per instance; round samples
/// in groups, one per instance or one for the repetition (`pool_rounds`).
JsonValue rep_json(const std::vector<Rep>& instances, bool pool_rounds) {
  JsonValue setup = JsonValue::array();
  JsonValue samples = JsonValue::array();
  JsonValue group = JsonValue::array();
  JsonValue checks = JsonValue::array();
  JsonValue layers = JsonValue::array();
  double cpu = 0.0;
  double wall = 0.0;
  double energy = 0.0;
  std::uint64_t hash = kFnvOffset;
  std::uint64_t participations = 0;
  std::uint64_t missed = 0;
  std::int64_t rounds = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Rep& rep = instances[i];
    setup.push_back(rep.setup_s);
    for (const double ms : rep.round_cpu_ms) {
      group.push_back(ms);
    }
    if (!pool_rounds || i + 1 == instances.size()) {
      samples.push_back(std::move(group));
      group = JsonValue::array();
    }
    for (const Check& check : rep.checks) {
      JsonValue c = JsonValue::object();
      c.set("name", check.name)
          .set("ok", check.ok)
          .set("detail", "instance " + std::to_string(i) + ": " + check.detail);
      checks.push_back(std::move(c));
    }
    layers.push_back(rep.layers);
    cpu += rep.cpu_s;
    wall += rep.wall_s;
    energy += rep.energy_j;
    fnv_fold(hash, rep.hash);
    participations += rep.participations;
    missed += rep.missed;
    rounds += rep.rounds;
  }
  JsonValue out = JsonValue::object();
  out.set("traced", instances.front().traced)
      .set("setup_s", std::move(setup))
      .set("cpu_s", cpu)
      .set("wall_s", wall)
      .set("hash", hex(hash))
      .set("participations", participations)
      .set("missed", missed)
      .set("energy_j", energy)
      .set("rounds", rounds)
      .set("round_cpu_ms", std::move(samples))
      .set("checks", std::move(checks))
      .set("layers", std::move(layers));
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  return std::fclose(f) == 0;
}

/// Worker threads of every pool the workloads create: the fleet engine's,
/// the replay's and device-paper's.
constexpr std::size_t kThreads = 2;
/// One run measures this many independent instances of its workload, each
/// on its own seed derived from --seed.  How long each controller explores
/// varies a lot from seed to seed; summing several instances keeps a run's
/// figures close to the workload's typical cost.
constexpr std::size_t kInstances = 4;

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::size_t threads) {
  if (name == "fleet-switch") {
    return std::make_unique<FleetWorkload>(seed, threads);
  }
  if (name == "device-paper") {
    return std::make_unique<DeviceWorkload>(seed, threads);
  }
  return nullptr;
}

int run(const FlagParser& flags) {
  const std::string name = flags.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const bool trace = flags.get_int("trace", 0) != 0;
  const std::string out_path = flags.get("out", "");
  const std::string trace_path = flags.get("trace-out", "");
  if (out_path.empty() || seconds <= 0.0 || (trace && trace_path.empty())) {
    std::fprintf(stderr, "usage: bofl_perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 --out RAW.json "
                         "[--trace-out TRACE.json]\n");
    return 2;
  }
  std::vector<std::unique_ptr<Workload>> instances;
  for (std::size_t i = 0; i < kInstances; ++i) {
    instances.push_back(make_workload(name, stream_seed(seed, i), kThreads));
    if (instances.back() == nullptr) {
      std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
      return 2;
    }
  }

  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  JsonValue context = JsonValue::object();
  context.set("nproc", static_cast<std::uint64_t>(nproc))
      .set("effective_parallelism_probe", parallelism_probe(nproc, 0.2))
      .set("simd_level",
           std::string(linalg::simd::to_string(linalg::simd::active_level())))
      .set("threads", static_cast<std::uint64_t>(kThreads))
      .set("instances", static_cast<std::uint64_t>(kInstances))
      .set("seed", seed)
      .set("optimized", optimized_build())
      .set("build_type", BOFL_PERFBENCH_BUILD_TYPE);

  const double p0 = wall_s();
  for (const std::unique_ptr<Workload>& instance : instances) {
    instance->prepare();
  }
  const double prepare_s = wall_s() - p0;
  std::printf("[perfbench] %s seed %llu: %zu instances ready in %.2f s\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              kInstances, prepare_s);

  // Set-up is short next to a repetition: sample it on its own as well,
  // so its median rests on enough samples.
  JsonValue setup_only = JsonValue::array();
  for (const std::unique_ptr<Workload>& instance : instances) {
    for (int i = 0; i < 2; ++i) {
      setup_only.push_back(instance->setup_only());
    }
  }

  JsonValue reps = JsonValue::array();
  const auto add = [&](const std::vector<Rep>& rep) {
    double setup = 0.0;
    double cpu = 0.0;
    double wall = 0.0;
    for (const Rep& instance : rep) {
      setup += instance.setup_s;
      cpu += instance.cpu_s;
      wall += instance.wall_s;
    }
    std::printf("[perfbench] rep%s: setup %.4f s, cpu %.3f s, wall %.3f s\n",
                rep.front().traced ? " (traced)" : "", setup, cpu, wall);
    std::fflush(stdout);
    reps.push_back(rep_json(rep, instances.front()->pools_round_samples()));
  };
  // Repeat while another repetition still fits in the measured time (at
  // least one always runs).
  const double timed = trace ? 0.5 * seconds : seconds;
  const double t0 = wall_s();
  int count = 0;
  do {
    std::vector<Rep> rep;
    for (const std::unique_ptr<Workload>& instance : instances) {
      rep.push_back(instance->rep(nullptr, nullptr));
    }
    add(rep);
    ++count;
  } while ((wall_s() - t0) * (count + 1) / count <= timed);

  if (trace) {
    Tracer tracer(wall_s());
    std::vector<Rep> rep;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      // A fresh registry per instance: installed before the instance builds
      // anything (components cache their metric handles), removed after
      // everything it built is gone.
      telemetry::Registry registry;
      telemetry::set_global_registry(&registry);
      tracer.set_instance(static_cast<std::int64_t>(i));
      try {
        rep.push_back(instances[i]->rep(&tracer, &registry));
      } catch (...) {
        telemetry::set_global_registry(nullptr);
        throw;
      }
      telemetry::set_global_registry(nullptr);
    }
    add(rep);
    if (!write_file(trace_path, tracer.to_chrome_json(name))) {
      return 1;
    }
  }

  JsonValue root = JsonValue::object();
  root.set("workload", name)
      .set("seed", seed)
      .set("seconds", seconds)
      .set("trace", trace)
      .set("context", std::move(context))
      .set("setup_only_s", std::move(setup_only))
      .set("reps", std::move(reps))
      .set("peak_rss_mb", static_cast<double>(telemetry::peak_rss_bytes()) /
                              (1024.0 * 1024.0));
  return write_file(out_path, root.dump()) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(FlagParser(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bofl_perfbench: %s\n", error.what());
    return 1;
  }
}
