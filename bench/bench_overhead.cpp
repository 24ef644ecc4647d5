// Instrumentation overhead gate (DESIGN.md §11, §12, §16).
//
// The paper asks that observation be "least invasive" (§IV-B).  This bench
// measures what each runtime-attachable instrumentation layer costs the
// kernel hot paths, on four workloads each defined once, and gates the
// layers every run pays for at a 3% budget:
//
//   configuration       turns on                                gated on
//   bare                nothing: the baseline of every row      -
//   obs-metrics         per-iteration MetricsShard sampling     flood, unicast,
//                                                               sched_churn
//   obs-trace           lineage-graph, plus the packet track    (reported)
//                       rendered into a TraceBuffer
//   lineage-ring        lineage log, flight-recorder ring only  flood, unicast
//   lineage-graph       full graph retention and per-link       (reported)
//                       counts, plus critical paths on mdns
//   faults-idle         injector built, one fault started and   flood, unicast
//                       stopped
//   faults-churn-world  crash/restart churn, Gilbert-Elliott    (reported)
//                       bursty loss, source-side reordering
//
// Every gate uses one statistic.  Each repetition runs all configurations
// of a workload back to back, in an order rotated per repetition, timed on
// process CPU.  The gate value is the median of the per-repetition paired
// overheads against bare (pairing cancels the repetition-scale drift of a
// shared host); an over-budget workload is re-measured once and each pair
// keeps its lower value.  Throughput is the fastest repetition.
//
// The bench also checks that a full experiment executed with the complete
// obs stack attached (metrics + spans + packet track) produces a
// bit-identical package.
//
// Results go to BENCH_overhead.json (curated format, bench/collect_bench.py).
//
// Flags:
//   --smoke     tenth-size iteration counts, WARN-only gates; writes JSON
//               only when --out is given — CI smoke step
//   --reps N    repetitions per configuration (default 9)
//   --out PATH  override the JSON output path (default BENCH_overhead.json)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "faults/injector.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "sd/mdns.hpp"
#include "sim/lineage.hpp"
#include "sim/scheduler.hpp"

namespace {

namespace bench = excovery::bench;
namespace faults = excovery::faults;
namespace net = excovery::net;
namespace obs = excovery::obs;
namespace sd = excovery::sd;
namespace sim = excovery::sim;
using net::NodeId;
using net::Packet;
using sim::SimDuration;

constexpr double kBudgetPercent = 3.0;

enum class Config {
  kBare,
  kObsMetrics,
  kObsTrace,
  kLineageRing,
  kLineageGraph,
  kFaultsIdle,
  kFaultsChurnWorld,
};

const char* config_name(Config config) {
  switch (config) {
    case Config::kBare: return "bare";
    case Config::kObsMetrics: return "obs-metrics";
    case Config::kObsTrace: return "obs-trace";
    case Config::kLineageRing: return "lineage-ring";
    case Config::kLineageGraph: return "lineage-graph";
    case Config::kFaultsIdle: return "faults-idle";
    case Config::kFaultsChurnWorld: return "faults-churn-world";
  }
  return "?";
}

/// Where faults-churn-world strikes a workload's world.
struct FaultSites {
  net::Port port = net::kSdPort;
  std::vector<NodeId> churn;
  NodeId ge = 0;
  NodeId reorder = 0;
};

/// One workload's world plus whatever its configuration attaches.  Members
/// are ordered so everything the network points at outlives it, and the
/// fault subsystem (which points at the network) dies first.
struct World {
  World() = default;
  explicit World(net::Topology topology)
      : network(std::make_unique<net::Network>(scheduler, std::move(topology),
                                               /*seed=*/7)) {}

  /// Bounded stepping: a churn world never drains, so no loop may call
  /// Scheduler::run().
  void step(SimDuration span) {
    scheduler.run_until(scheduler.now() + span);
  }

  sim::Scheduler scheduler;
  obs::MetricsRegistry registry;
  obs::MetricsShard shard{&registry};
  bool sample_metrics = false;
  std::uint64_t sampled_executed = 0;
  std::optional<obs::TraceBuffer> trace;
  std::unique_ptr<sim::LineageLog> lineage;
  std::unique_ptr<net::Network> network;  ///< null for scheduler-only loads
  std::unique_ptr<faults::FaultInjector> injector;
};

/// A representative dynamic world for the whole bench: crash/restart churn,
/// Gilbert-Elliott bursty loss and source-side reordering.
void arm_churn_world(World& world, const FaultSites& sites) {
  faults::TemporalSpec window;
  window.duration = SimDuration::from_seconds(100000.0);
  faults::ChurnSpec churn;
  churn.mean_uptime = SimDuration::from_millis(400);
  churn.mean_downtime = SimDuration::from_millis(100);
  for (NodeId node : sites.churn) {
    faults::TemporalSpec seeded = window;
    seeded.randomseed = 17 + node;
    if (!world.injector->node_churn(node, churn, seeded).ok()) std::abort();
  }
  faults::GilbertElliott ge;
  ge.p_enter_bad = 0.05;
  ge.p_exit_bad = 0.3;
  ge.loss_bad = 1.0;
  if (!world.injector
           ->ge_loss(sites.ge, ge, faults::FaultDirection::kBoth, window)
           .ok() ||
      !world.injector
           ->message_reorder(sites.reorder, 0.2, SimDuration::from_millis(5),
                             window)
           .ok()) {
    std::abort();
  }
}

/// The setup hook: attach one configuration's instrumentation to a world.
void attach(Config config, World& world, const FaultSites& sites) {
  switch (config) {
    case Config::kBare:
      return;
    case Config::kObsMetrics:
      world.sample_metrics = true;
      return;
    case Config::kObsTrace:
    case Config::kLineageRing:
    case Config::kLineageGraph:
      world.lineage = std::make_unique<sim::LineageLog>();
      world.lineage->set_graph_enabled(config != Config::kLineageRing);
      world.network->set_lineage(world.lineage.get());
      if (config == Config::kObsTrace) world.trace.emplace(true);
      return;
    case Config::kFaultsIdle:
    case Config::kFaultsChurnWorld:
      world.injector =
          std::make_unique<faults::FaultInjector>(*world.network, sites.port);
      if (config == Config::kFaultsChurnWorld) {
        arm_churn_world(world, sites);
        return;
      }
      {
        excovery::Result<faults::FaultHandle> probe =
            world.injector->message_loss(0, 0.5,
                                         faults::FaultDirection::kBoth);
        if (!probe.ok()) std::abort();
        probe.value()->stop();
      }
      return;
  }
}

/// The one measurement loop every configuration drives: `iterations`
/// calls of `body`, each standing in for one run attempt, with the
/// run-boundary work the attached layers do in production.  Returns
/// process-CPU seconds.
template <typename Body>
double timed_loop(World& world, int iterations, Body&& body) {
  const obs::MetricId executed_id =
      world.registry.counter("sched.events_executed");
  const obs::MetricId pending_id = world.registry.gauge("sched.pending");
  world.sampled_executed = world.scheduler.executed();
  const double start = bench::cpu_seconds();
  for (int i = 0; i < iterations; ++i) {
    if (world.lineage) {
      world.lineage->begin_run(static_cast<std::uint64_t>(i + 1), 1);
    }
    body();
    // What an attached ObsContext derives from the graph after every run.
    if (world.lineage && world.lineage->graph_enabled()) {
      if (world.network->link_counts().empty()) std::abort();
      if (world.trace) obs::render_packet_track(*world.lineage, *world.trace);
    }
    if (world.sample_metrics) {
      const std::uint64_t executed = world.scheduler.executed();
      world.shard.add(executed_id, executed - world.sampled_executed);
      world.sampled_executed = executed;
      world.shard.set_gauge(
          pending_id, static_cast<std::int64_t>(world.scheduler.max_pending()));
    }
    // A run's trace is exported and dropped at its end; keep the buffer
    // bounded the same way.
    if (world.trace) world.trace.emplace(true);
  }
  return bench::cpu_seconds() - start;
}

// ---- workloads ---------------------------------------------------------------

/// Multicast flood over an 8x8 grid: the dominant packet path of mesh
/// campaigns; every hop/deliver/dup passes every attached layer.
double flood_grid_8x8(Config config, int floods) {
  World world(net::Topology::grid(8, 8, bench::lossless_link()));
  world.network->set_capture_enabled(false);
  attach(config, world, {net::kSdPort, {9, 27, 45}, /*ge=*/18, /*reorder=*/0});

  const net::Address group = net::Address::sd_multicast();
  std::uint64_t delivered = 0;
  for (NodeId n = 0; n < world.network->node_count(); ++n) {
    world.network->join_group(n, group);
    world.network->bind(n, net::kSdPort,
                        [&delivered](NodeId, const Packet&) { ++delivered; });
  }
  auto flood = [&] {
    Packet packet;
    packet.dst = group;
    packet.dst_port = net::kSdPort;
    packet.ttl = 32;
    packet.payload.assign(512, 0x6B);
    (void)world.network->send(0, std::move(packet));
    world.step(SimDuration::from_millis(50));
    world.network->reset_run_state();  // clear dedup sets between floods
  };
  flood();  // warm-up
  const double seconds = timed_loop(world, floods, flood);
  if (delivered == 0) std::abort();
  return seconds;
}

/// Unicast hop chain: 16 packets per iteration, each crossing 7 links.
double unicast_chain_8(Config config, int batches) {
  constexpr std::size_t kLength = 8;
  constexpr net::Port kPort = 4000;
  World world(net::Topology::chain(kLength, bench::lossless_link()));
  world.network->set_capture_enabled(false);
  // Churn the far end's neighbour, burst-loss a relay, reorder at the source.
  attach(config, world,
         {kPort, {kLength - 2}, /*ge=*/2, /*reorder=*/0});

  const NodeId last = kLength - 1;
  std::uint64_t delivered = 0;
  world.network->bind(last, kPort,
                      [&delivered](NodeId, const Packet&) { ++delivered; });
  auto send_one = [&] {
    Packet packet;
    // Node addresses are for_node(id + 1) (.0 is reserved), so resolve the
    // destination through the topology.
    packet.dst = world.network->topology().node(last).address;
    packet.dst_port = kPort;
    packet.payload.assign(256, 0x5A);
    (void)world.network->send(0, std::move(packet));
  };
  send_one();  // warm-up
  world.step(SimDuration::from_millis(20));
  const double seconds = timed_loop(world, batches, [&] {
    for (int j = 0; j < 16; ++j) send_one();
    world.step(SimDuration::from_millis(20));
  });
  if (config != Config::kFaultsChurnWorld && delivered == 0) std::abort();
  return seconds;
}

/// Scheduler schedule/run churn, 1024 SBO-sized callbacks per iteration.
double sched_churn_1024(Config config, int iterations) {
  constexpr std::size_t kBatch = 1024;
  World world;
  attach(config, world, {});
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < kBatch; ++i) {  // warm internal pools
    world.scheduler.schedule(SimDuration(static_cast<std::int64_t>(i)),
                             [&sink, i] { sink += i; });
  }
  world.step(SimDuration::from_millis(1));
  const double seconds = timed_loop(world, iterations, [&] {
    for (std::size_t i = 0; i < kBatch; ++i) {
      world.scheduler.schedule(SimDuration(static_cast<std::int64_t>(i % 64)),
                               [&sink, i] { sink += i; });
    }
    world.step(SimDuration::from_millis(1));
  });
  if (sink == 0) std::abort();
  return seconds;
}

/// Full mDNS discovery cycle per iteration (fresh agents, publish, search,
/// query round, aggregated answer, cache store) on one persistent world, as
/// a platform replica lives across runs.  SD events mirror into the
/// lineage log like the core EventRecorder does, so the protocol-level
/// sites record on top of the packet sites.
double mdns_discovery(Config config, int cycles) {
  World world(net::Topology::full_mesh(2));
  attach(config, world, {});
  sim::LineageLog* log = world.lineage.get();
  auto sink = [&world, log](const char* node_name) {
    const std::uint16_t node = log ? log->intern(node_name) : 0;
    return [&world, log, node](std::string_view event,
                               const excovery::Value& param) {
      if (log == nullptr) return;
      const std::uint16_t peer =
          param.is_string() ? log->intern(param.as_string()) : 0;
      log->record(sim::LineageKind::kSdEvent,
                  world.scheduler.current_context(), 0,
                  world.scheduler.now(), node, peer, log->intern(event));
    };
  };
  const auto sm_sink = sink("SM0");
  const auto su_sink = sink("SU0");

  std::uint64_t discovered = 0;
  const double seconds = timed_loop(world, cycles, [&] {
    sd::MdnsConfig mdns;
    mdns.probe_count = 0;
    mdns.announce_count = 0;
    sd::MdnsAgent sm(*world.network, 0, mdns);
    sd::MdnsAgent su(*world.network, 1, mdns);
    sm.set_event_sink(sm_sink);
    su.set_event_sink(su_sink);
    if (!sm.init(sd::SdRole::kServiceManager, {}).ok() ||
        !su.init(sd::SdRole::kServiceUser, {}).ok()) {
      std::abort();
    }
    world.step(SimDuration::from_millis(100));
    sd::ServiceInstance instance;
    instance.instance_name = "svc";
    instance.type = "_t._udp";
    instance.port = 80;
    if (!sm.start_publish(instance).ok() ||
        !su.start_search("_t._udp").ok()) {
      std::abort();
    }
    world.step(SimDuration::from_millis(500));
    discovered += su.discovered("_t._udp").size();
    // What an attached ObsContext does at the end of every run.
    if (log && log->graph_enabled() &&
        obs::extract_critical_paths(*log).empty()) {
      std::abort();
    }
    world.network->reset_run_state();
  });
  if (discovered != static_cast<std::uint64_t>(cycles)) std::abort();
  return seconds;
}

// ---- measurement -------------------------------------------------------------

struct Workload {
  const char* name = "";
  double items = 0.0;  ///< items per measured loop, for throughput
  std::function<double(Config)> run;
  std::vector<Config> configs;  ///< configs[0] is bare
  std::vector<Config> gated;    ///< held to the budget on this workload
};

struct Pair {
  Config config = Config::kBare;
  double best_s = 0.0;      ///< fastest repetition
  double overhead = 0.0;    ///< median paired overhead vs bare, percent
  bool gated = false;
  bool over() const { return gated && overhead > kBudgetPercent; }
};

struct Measured {
  double bare_best_s = 0.0;
  std::vector<Pair> pairs;  ///< one per non-bare configuration
};

Measured measure(const Workload& workload, int reps) {
  const std::size_t k = workload.configs.size();
  std::vector<std::vector<double>> times(k);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t slot = 0; slot < k; ++slot) {
      const std::size_t c = (slot + static_cast<std::size_t>(rep)) % k;
      times[c].push_back(workload.run(workload.configs[c]));
    }
  }
  auto best = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  Measured measured;
  measured.bare_best_s = best(times[0]);
  for (std::size_t c = 1; c < k; ++c) {
    std::vector<double> paired;
    for (int rep = 0; rep < reps; ++rep) {
      paired.push_back((times[c][rep] - times[0][rep]) / times[0][rep] *
                       100.0);
    }
    const Config config = workload.configs[c];
    measured.pairs.push_back(
        {config, best(times[c]), bench::median(std::move(paired)),
         std::find(workload.gated.begin(), workload.gated.end(), config) !=
             workload.gated.end()});
  }
  return measured;
}

/// Two strikes: a shared host shows multi-second load bursts that inflate a
/// whole measurement pass, so an over-budget workload is measured once more
/// and each pair keeps its better value.  A genuine regression is over
/// budget both times.
Measured measure_gated(const Workload& workload, int reps) {
  Measured measured = measure(workload, reps);
  const bool over =
      std::any_of(measured.pairs.begin(), measured.pairs.end(),
                  [](const Pair& pair) { return pair.over(); });
  if (!over) return measured;
  std::printf("  %-18s over budget, re-measuring once to reject transient "
              "host load\n",
              workload.name);
  const Measured retry = measure(workload, reps);
  measured.bare_best_s = std::min(measured.bare_best_s, retry.bare_best_s);
  for (std::size_t p = 0; p < measured.pairs.size(); ++p) {
    Pair& pair = measured.pairs[p];
    pair.best_s = std::min(pair.best_s, retry.pairs[p].best_s);
    pair.overhead = std::min(pair.overhead, retry.pairs[p].overhead);
  }
  return measured;
}

const char* verdict(const Pair& pair) {
  if (!pair.gated) return "reported";
  return pair.over() ? "OVER-BUDGET" : "PASS";
}

/// Out-of-band check on a real experiment: attaching the full obs stack
/// must not change a package byte.
bool obs_stack_is_out_of_band(bool smoke) {
  excovery::core::scenario::TwoPartyOptions options;
  options.replications = smoke ? 6 : 40;
  options.environment_count = 1;
  obs::ObsConfig obs_config;
  obs_config.trace = true;
  obs_config.packet_trace = true;
  obs_config.progress_interval_s = 1e9;
  obs::ObsContext context(obs_config);
  excovery::core::MasterOptions with_obs;
  with_obs.obs = &context;
  excovery::Result<bench::Executed> plain = bench::execute(options, 42);
  excovery::Result<bench::Executed> observed =
      bench::execute(options, 42, {}, std::move(with_obs));
  if (!plain.ok() || !observed.ok()) {
    std::fprintf(stderr, "FAIL: experiment execution failed\n");
    return false;
  }
  if (plain.value().package.database().serialize() !=
      observed.value().package.database().serialize()) {
    std::fprintf(stderr, "FAIL: obs attachment changed the package bytes\n");
    return false;
  }
  std::printf("  package bit-identical with full obs attached "
              "(%zu trace events, %zu ledger entries)\n",
              context.trace().size(), context.ledger().size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, /*reps=*/9, /*smoke_reps=*/5,
                         "BENCH_overhead.json");

  // Sized so every repetition runs for hundreds of milliseconds: shorter
  // ones cannot resolve a 3% question against scheduler noise.
  const int scale = flags.smoke ? 1 : 10;
  const int floods = 600 * scale;
  const int batches = 6000 * scale;
  const int churns = 1200 * scale;
  const int cycles = 6000 * scale;
  const std::vector<Config> all = {
      Config::kBare,         Config::kObsMetrics,   Config::kObsTrace,
      Config::kLineageRing,  Config::kLineageGraph, Config::kFaultsIdle,
      Config::kFaultsChurnWorld};
  const std::vector<Config> packet_gates = {
      Config::kObsMetrics, Config::kLineageRing, Config::kFaultsIdle};
  // mdns_discovery is reported, not gated: its bare-sink baseline overstates
  // the relative cost of protocol-level recording, which in production
  // rides the EventRecorder's far costlier level-2 store write.
  const std::vector<Workload> workloads = {
      {"flood_grid_8x8", floods * 64.0,
       [floods](Config c) { return flood_grid_8x8(c, floods); }, all,
       packet_gates},
      {"unicast_chain_8", batches * 16.0 * 7,
       [batches](Config c) { return unicast_chain_8(c, batches); }, all,
       packet_gates},
      {"sched_churn_1024", churns * 1024.0,
       [churns](Config c) { return sched_churn_1024(c, churns); },
       {Config::kBare, Config::kObsMetrics},
       {Config::kObsMetrics}},
      {"mdns_discovery", static_cast<double>(cycles),
       [cycles](Config c) { return mdns_discovery(c, cycles); },
       {Config::kBare, Config::kLineageRing, Config::kLineageGraph},
       {}},
  };

  std::printf("instrumentation overhead bench: %d repetitions per "
              "configuration%s\n",
              flags.reps, flags.smoke ? " (smoke)" : "");
  bool over_budget = false;
  std::vector<bench::CuratedEntry> entries;
  for (const Workload& workload : workloads) {
    const Measured measured = measure_gated(workload, flags.reps);
    const double bare_rate = workload.items / measured.bare_best_s;
    std::printf("  %-18s bare %8.2f Mitems/s\n", workload.name,
                bare_rate / 1e6);
    auto rate = [&workload](double seconds) {
      return excovery::strings::format(
          "{\"items_per_second\": %.0f, \"cpu_time_ns\": %.3f}",
          workload.items / seconds, seconds / workload.items * 1e9);
    };
    for (const Pair& pair : measured.pairs) {
      std::printf("    %-20s %8.2f Mitems/s  %+8.2f%%  %s\n",
                  config_name(pair.config),
                  workload.items / pair.best_s / 1e6, pair.overhead,
                  verdict(pair));
      over_budget = over_budget || pair.over();
      entries.push_back(
          {std::string("BM_Overhead/") + workload.name + "/" +
               config_name(pair.config),
           {{"bare", rate(measured.bare_best_s)},
            {"current", rate(pair.best_s)},
            {"overhead_percent",
             excovery::strings::format("%.3f", pair.overhead)},
            {"gate", std::string("\"") + verdict(pair) + "\""}}});
    }
  }

  if (!obs_stack_is_out_of_band(flags.smoke)) return 1;

  if (!flags.smoke || flags.out_explicit) {
    const std::string description =
        "Instrumentation overhead (bench/bench_overhead.cpp, DESIGN.md "
        "\\u00a711, \\u00a712, \\u00a716) on four kernel workloads. 'bare' = "
        "the workload with nothing attached; 'current' = the same workload "
        "with one configuration attached: obs-metrics (per-iteration "
        "MetricsShard sampling), obs-trace (lineage-graph plus the packet "
        "track rendered into a TraceBuffer), lineage-ring (flight-recorder "
        "ring), lineage-graph (full graph retention and per-link counts, "
        "plus critical paths on mdns), faults-idle (injector built, one "
        "fault started and stopped), faults-churn-world "
        "(churn, Gilbert-Elliott loss, reordering). gate PASS/OVER-BUDGET "
        "marks the pairs held to the 3% budget (obs-metrics on flood, "
        "unicast and sched_churn; "
        "lineage-ring and faults-idle on flood and unicast); 'reported' "
        "rows are not gated. Rates are the fastest repetition on process "
        "CPU; overhead_percent is the median of per-repetition paired "
        "overheads (configurations run back to back in a rotated order), "
        "re-measured once when over budget. The bench also checks that a "
        "full experiment package is bit-identical with the complete obs "
        "stack attached.";
    if (!bench::write_curated(flags.out, description, entries)) return 1;
  }

  if (over_budget) {
    std::fprintf(stderr, "%s: instrumentation overhead exceeds %.1f%% on a "
                         "gated pair\n",
                 flags.smoke ? "WARN (smoke, not gated)" : "FAIL",
                 kBudgetPercent);
    if (!flags.smoke) return 1;
  }
  return 0;
}
