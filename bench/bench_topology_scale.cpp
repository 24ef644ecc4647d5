// Mega-scale topology engine bench (DESIGN.md §13): nodes vs. events/sec
// and routing memory for random-geometric worlds from 100 to 50k nodes.
//
// For each scale the full pipeline is timed in three phases:
//
//   1. generation  — Topology::random_geometric with the grid spatial index
//                    (O(V·k) neighbour discovery, byte-identical to the old
//                    all-pairs scan, which is pinned by the property suite)
//   2. warm-up     — lazy RoutingTable row queries from a spread of sources
//                    (each row is one on-demand BFS, cached under the bounded
//                    row budget)
//   3. flood       — one-or-more full multicast floods through the Network
//                    CSR adjacency; events/sec = packet deliveries per second
//
// Two promises are gated (FAIL outside --smoke, WARN inside):
//
//   * the 50k-node pipeline (generation + warm-up + flood) finishes within
//     the wall budget — the former eager all-pairs table alone would need
//     ~15 GB and hours of rebuild time at this scale;
//   * warm routing memory at >=10k nodes stays an order of magnitude below
//     the eager V² matrix (6 bytes per pair) — O(cached rows), not O(V²).
//
// Results go to BENCH_topology.json (curated format, bench/collect_bench.py;
// the speedup column reports the memory reduction vs. the eager matrix).
// The JSON is written in --smoke mode too so CI can archive the file from
// the smoke run.
//
// Flags:
//   --smoke     small scale set, 1 rep, WARN-only gates — CI smoke step
//   --reps N    repetitions per scale (default 3, median taken)
//   --out PATH  override the JSON output path (default BENCH_topology.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/scheduler.hpp"

namespace {

using excovery::net::Address;
using excovery::net::NodeId;
using excovery::net::Packet;
using excovery::net::RoutingTable;
using excovery::net::Topology;

namespace bench = excovery::bench;
using bench::seconds_since;

struct Scale {
  std::size_t nodes = 0;
  double radius = 0.0;  ///< keeps mean degree ~ pi * r^2 * V ~ 28
  int floods = 1;       ///< per repetition; more at small scales for signal
};

struct ScaleResult {
  std::size_t nodes = 0;
  std::size_t links = 0;
  double gen_s = 0.0;
  double warm_s = 0.0;
  double flood_s = 0.0;
  double deliveries = 0.0;  ///< per repetition
  std::size_t routing_bytes = 0;
  std::size_t cached_rows = 0;
  std::size_t capacity_rows = 0;
};

/// One full pipeline repetition at one scale.  Generation, warm-up and
/// flood are timed separately; the caller takes medians across repetitions.
ScaleResult run_scale(const Scale& scale, std::uint64_t seed) {
  ScaleResult result;
  result.nodes = scale.nodes;

  auto start = std::chrono::steady_clock::now();
  excovery::Result<Topology> generated = Topology::random_geometric(
      scale.nodes, scale.radius, seed, bench::lossless_link());
  result.gen_s = seconds_since(start);
  if (!generated.ok()) std::abort();
  Topology topology = std::move(generated).value();
  result.links = topology.link_count();
  const bool connected = topology.connected();

  // Lazy routing warm-up: on-demand BFS rows from a spread of sources.
  RoutingTable routing(topology);
  const NodeId node_count = static_cast<NodeId>(scale.nodes);
  const NodeId stride =
      std::max<NodeId>(1, node_count / 64);  // ~64 distinct source rows
  start = std::chrono::steady_clock::now();
  long reachable = 0;
  for (NodeId from = 0; from < node_count; from += stride) {
    for (NodeId probe = 1; probe <= 4; ++probe) {
      const NodeId to = static_cast<NodeId>(
          (static_cast<std::uint64_t>(from) * 7919 + probe * 131) %
          scale.nodes);
      if (routing.hop_count(from, to) >= 0) ++reachable;
    }
  }
  result.warm_s = seconds_since(start);
  if (connected && reachable == 0) std::abort();
  result.routing_bytes = routing.memory_bytes();
  result.cached_rows = routing.cached_row_count();
  result.capacity_rows = routing.row_cache_capacity();

  // Multicast floods over the Network CSR adjacency.
  excovery::sim::Scheduler scheduler;
  excovery::net::Network network(scheduler, std::move(topology), /*seed=*/7);
  network.set_capture_enabled(false);
  const Address group = Address::sd_multicast();
  std::uint64_t delivered = 0;
  for (NodeId n = 0; n < node_count; ++n) {
    network.join_group(n, group);
    network.bind(n, excovery::net::kSdPort,
                 [&delivered](NodeId, const Packet&) { ++delivered; });
  }
  auto send_flood = [&] {
    Packet packet;
    packet.dst = group;
    packet.dst_port = excovery::net::kSdPort;
    packet.ttl = 255;  // geometric worlds at 50k have >32-hop diameters
    packet.payload.assign(256, 0x5A);
    (void)network.send(0, std::move(packet));
  };
  send_flood();  // warm-up flood, untimed
  scheduler.run();
  network.reset_run_state();
  delivered = 0;

  start = std::chrono::steady_clock::now();
  for (int i = 0; i < scale.floods; ++i) {
    send_flood();
    scheduler.run();
    network.reset_run_state();  // clear flood dedup sets between floods
  }
  result.flood_s = seconds_since(start);
  result.deliveries = static_cast<double>(delivered);
  if (connected &&
      delivered != static_cast<std::uint64_t>(scale.floods) * scale.nodes) {
    std::fprintf(stderr, "flood under-delivered at %zu nodes: %llu\n",
                 scale.nodes, static_cast<unsigned long long>(delivered));
    std::abort();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, /*reps=*/3, /*smoke_reps=*/1,
                         "BENCH_topology.json");
  const bool smoke = flags.smoke;
  const int reps = flags.reps;

  // Mean degree held ~constant (r = sqrt(28 / (pi * V))) so every scale is
  // mesh-like and connected with overwhelming probability.
  std::vector<Scale> scales = {
      {100, 0.30, 200},
      {1'000, 0.094, 20},
      {10'000, 0.030, 2},
      {50'000, 0.0134, 1},
  };
  if (smoke) scales = {{100, 0.30, 50}, {10'000, 0.030, 1}};

  const double wall_budget_s = 120.0;  // 50k full pipeline, per repetition
  std::printf("topology scale bench: %d repetition(s) per scale%s\n", reps,
              smoke ? " (smoke)" : "");

  bool over_budget = false;
  std::vector<ScaleResult> results;
  for (const Scale& scale : scales) {
    std::vector<double> gen, warm, flood;
    ScaleResult last;
    for (int rep = 0; rep < reps; ++rep) {
      last = run_scale(scale, /*seed=*/20260808 + rep);
      gen.push_back(last.gen_s);
      warm.push_back(last.warm_s);
      flood.push_back(last.flood_s);
    }
    last.gen_s = bench::median(gen);
    last.warm_s = bench::median(warm);
    last.flood_s = bench::median(flood);
    const double pipeline_s = last.gen_s + last.warm_s + last.flood_s;
    const double events_per_s = last.deliveries / last.flood_s;
    const double eager_bytes =
        static_cast<double>(scale.nodes) * scale.nodes * 6;
    const double mem_ratio = eager_bytes / last.routing_bytes;

    std::printf(
        "  %6zu nodes  %7zu links  gen %7.3fs  warm %7.3fs  "
        "flood %8.2f kdeliveries/s  routing %6.2f MiB (%5.0fx under "
        "all-pairs, %zu/%zu rows)\n",
        last.nodes, last.links, last.gen_s, last.warm_s, events_per_s / 1e3,
        last.routing_bytes / 1048576.0, mem_ratio, last.cached_rows,
        last.capacity_rows);

    if (scale.nodes >= 10'000 &&
        last.routing_bytes * 10 >= static_cast<std::size_t>(eager_bytes)) {
      std::fprintf(stderr,
                   "%s: routing memory at %zu nodes is not an order of "
                   "magnitude under the eager all-pairs matrix\n",
                   smoke ? "WARN" : "FAIL", scale.nodes);
      over_budget = true;
    }
    if (scale.nodes >= 50'000 && pipeline_s > wall_budget_s) {
      std::fprintf(stderr,
                   "%s: 50k pipeline took %.1fs, budget %.0fs\n",
                   smoke ? "WARN" : "FAIL", pipeline_s, wall_budget_s);
      over_budget = true;
    }
    results.push_back(last);
  }

  std::vector<bench::CuratedEntry> entries;
  for (const ScaleResult& r : results) {
    const double pipeline_s = r.gen_s + r.warm_s + r.flood_s;
    const double eager_bytes = static_cast<double>(r.nodes) * r.nodes * 6;
    using excovery::strings::format;
    entries.push_back(
        {format("BM_TopologyScale/%zu", r.nodes),
         {{"current", format("{\"items_per_second\": %.0f, \"cpu_time_ns\": "
                             "%.0f}",
                             r.deliveries / r.flood_s, pipeline_s * 1e9)},
          {"speedup_memory_vs_all_pairs",
           format("%.2f", eager_bytes / r.routing_bytes)},
          {"links", format("%zu", r.links)},
          {"generation_seconds", format("%.6f", r.gen_s)},
          {"routing_warmup_seconds", format("%.6f", r.warm_s)},
          {"flood_seconds", format("%.6f", r.flood_s)},
          {"routing_memory_bytes", format("%zu", r.routing_bytes)},
          {"eager_matrix_bytes", format("%.0f", eager_bytes)},
          {"cached_rows", format("%zu", r.cached_rows)},
          {"row_cache_capacity", format("%zu", r.capacity_rows)}}});
  }
  const std::string description =
      "Mega-scale topology engine (bench/bench_topology_scale.cpp, "
      "DESIGN.md \\u00a713): random-geometric worlds at constant mean degree "
      "(~28). Per scale: grid-indexed generation, lazy-routing warm-up (~64 "
      "on-demand BFS rows), then full multicast floods over the CSR "
      "adjacency. items_per_second = packet deliveries/sec during the flood "
      "phase; cpu_time_ns = full pipeline (generation + warm-up + floods); "
      "speedup = warm routing memory reduction vs. the former eager "
      "all-pairs matrix (6 bytes/pair), which at 50k nodes would need ~15 GB "
      "before the first packet moves. Medians over repetitions.";
  if (!bench::write_curated(flags.out, description, entries)) return 1;

  if (over_budget && !smoke) return 1;
  return 0;
}
