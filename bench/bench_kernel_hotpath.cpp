// Kernel hot-path microbenchmarks (google-benchmark).
//
// Covers the three paths every experiment run hammers millions of times:
// scheduler schedule/cancel/run churn, unicast hop chains and multicast
// flood fan-out.  The EE's own overhead must stay
// negligible against measured SD behaviour (§VI ablation), so this binary
// is the perf trajectory tracker for the kernel: it writes machine-readable
// results to BENCH_kernel.json (override with --benchmark_out=...).
//
// Every benchmark also reports `allocs_per_op`: heap allocations per
// outer iteration, counted by a global operator-new override.  The
// scheduler churn loop must report 0 steady-state allocations for
// SBO-sized callbacks.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "counting_new.hpp"
#include "net/link_set.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/scheduler.hpp"

namespace excovery {
namespace {

using net::Address;
using net::NodeId;
using net::Packet;
using sim::SimDuration;

class AllocCounter {
 public:
  AllocCounter() : start_(bench::allocations()) {}
  std::uint64_t delta() const { return bench::allocations() - start_; }

 private:
  std::uint64_t start_;
};

void report_allocs(benchmark::State& state, const AllocCounter& counter) {
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(counter.delta()) /
          static_cast<double>(state.iterations()),
      benchmark::Counter::kAvgThreads);
}

// ---- scheduler --------------------------------------------------------------

/// Steady-state schedule -> execute churn: per outer iteration, schedule a
/// batch of SBO-sized callbacks at staggered delays and drain the queue.
/// This is the loop every simulated run spends its life in.
void BM_SchedulerChurn(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  sim::Scheduler scheduler;
  std::uint64_t sink = 0;
  // Warm up internal pools so the measurement sees steady state.
  for (std::size_t i = 0; i < batch; ++i) {
    scheduler.schedule(SimDuration(static_cast<std::int64_t>(i)),
                       [&sink, i] { sink += i; });
  }
  scheduler.run();
  AllocCounter allocs;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      scheduler.schedule(SimDuration(static_cast<std::int64_t>(i % 64)),
                         [&sink, i] { sink += i; });
    }
    scheduler.run();
  }
  benchmark::DoNotOptimize(sink);
  report_allocs(state, allocs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_SchedulerChurn)->Arg(64)->Arg(1024);

/// schedule + cancel churn: timers that never fire (retries, timeouts).
void BM_SchedulerScheduleCancel(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  sim::Scheduler scheduler;
  std::uint64_t sink = 0;
  std::vector<sim::TimerHandle> handles(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    handles[i] = scheduler.schedule(SimDuration::from_millis(10),
                                    [&sink] { ++sink; });
  }
  for (auto& h : handles) scheduler.cancel(h);
  scheduler.run();
  AllocCounter allocs;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      handles[i] = scheduler.schedule(SimDuration::from_millis(10),
                                      [&sink] { ++sink; });
    }
    for (auto& h : handles) scheduler.cancel(h);
    scheduler.run();
  }
  benchmark::DoNotOptimize(sink);
  report_allocs(state, allocs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_SchedulerScheduleCancel)->Arg(1024);

/// Interleaved schedule/cancel/reschedule with events in flight, as the SD
/// stacks do with retry timers.
void BM_SchedulerRescheduleMix(benchmark::State& state) {
  sim::Scheduler scheduler;
  std::uint64_t sink = 0;
  constexpr std::size_t kTimers = 256;
  std::vector<sim::TimerHandle> handles(kTimers);
  for (std::size_t i = 0; i < kTimers; ++i) {
    handles[i] = scheduler.schedule(SimDuration(static_cast<std::int64_t>(i)),
                                    [&sink] { ++sink; });
  }
  scheduler.run();
  AllocCounter allocs;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kTimers; ++i) {
      handles[i] = scheduler.schedule(
          SimDuration(static_cast<std::int64_t>(i % 16)), [&sink] { ++sink; });
    }
    for (std::size_t i = 0; i < kTimers; i += 2) {
      scheduler.cancel(handles[i]);
      handles[i] = scheduler.schedule(
          SimDuration(static_cast<std::int64_t>(i % 8)), [&sink] { ++sink; });
    }
    scheduler.run();
  }
  benchmark::DoNotOptimize(sink);
  report_allocs(state, allocs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTimers + kTimers / 2));
}
BENCHMARK(BM_SchedulerRescheduleMix);

// ---- network data plane -----------------------------------------------------

/// Unicast over a chain: every packet crosses `length - 1` hops; each hop
/// moves the packet through filters, capture, and the scheduler.
void BM_UnicastChain(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  sim::Scheduler scheduler;
  net::Network network(scheduler, net::Topology::chain(length,
                                                       bench::lossless_link()),
                       /*seed=*/7);
  network.set_capture_enabled(false);
  const NodeId last = static_cast<NodeId>(length - 1);
  std::uint64_t delivered = 0;
  network.bind(last, 4000,
               [&delivered](NodeId, const Packet&) { ++delivered; });
  auto send_one = [&] {
    Packet packet;
    // Node addresses are for_node(id + 1) — .0 is reserved — so resolve the
    // destination through the topology; for_node(last) would address the
    // previous node (which has no handler) and the packet would silently
    // stop one hop short.
    packet.dst = network.topology().node(last).address;
    packet.dst_port = 4000;
    packet.payload.assign(256, 0x5A);
    (void)network.send(0, std::move(packet));
  };
  send_one();
  scheduler.run();
  AllocCounter allocs;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) send_one();
    scheduler.run();
  }
  benchmark::DoNotOptimize(delivered);
  report_allocs(state, allocs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          static_cast<std::int64_t>(length - 1));
}
BENCHMARK(BM_UnicastChain)->Arg(8);

/// Multicast floods over an n x n grid, one per outer iteration, with the
/// dedup sets cleared (untimed) between floods.  `capture` records every
/// rx/tx; `degraded` takes a diagonal of links down first, so the disabled
/// set is non-empty but the grid stays connected.
void run_floods(benchmark::State& state, bool capture, bool degraded) {
  const std::size_t side = static_cast<std::size_t>(state.range(0));
  sim::Scheduler scheduler;
  net::Network network(scheduler,
                       net::Topology::grid(side, side, bench::lossless_link()),
                       /*seed=*/7);
  network.set_capture_enabled(capture);
  for (std::size_t i = 0; degraded && i + 1 < side; ++i) {
    const NodeId a = static_cast<NodeId>(i * side + i);
    (void)network.set_link_up(a, static_cast<NodeId>(a + 1), false);
  }
  const Address group = Address::sd_multicast();
  std::uint64_t delivered = 0;
  for (NodeId n = 0; n < network.node_count(); ++n) {
    network.join_group(n, group);
    network.bind(n, net::kSdPort,
                 [&delivered](NodeId, const Packet&) { ++delivered; });
  }
  auto send_flood = [&] {
    Packet packet;
    packet.dst = group;
    packet.dst_port = net::kSdPort;
    packet.ttl = 32;
    packet.payload.assign(512, 0x6B);
    (void)network.send(0, std::move(packet));
  };
  send_flood();
  scheduler.run();
  network.reset_run_state();
  AllocCounter allocs;
  for (auto _ : state) {
    send_flood();
    scheduler.run();
    state.PauseTiming();
    network.reset_run_state();  // clear dedup sets and captures
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(delivered);
  report_allocs(state, allocs);
  // One flood delivers to every node in the grid.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(side * side));
}

/// The paper's Zeroconf traffic pattern and the dominant packet-copy path
/// in mesh campaigns: one send duplicates across every link with dedup at
/// each node.
void BM_FloodGrid(benchmark::State& state) { run_floods(state, false, false); }
BENCHMARK(BM_FloodGrid)->Arg(4)->Arg(8);

/// Capture on: payload copies dominate unless the buffer is shared.
void BM_FloodGridCaptured(benchmark::State& state) {
  run_floods(state, true, false);
}
BENCHMARK(BM_FloodGridCaptured)->Arg(6);

// ---- disabled-link set ------------------------------------------------------

/// Micro-gate for the flat sorted-vector LinkSet that replaced the
/// std::set<LinkKey> on the packet path: a fault-flap-sized set (a handful
/// of links down, as the dynamic-world engine produces) under the mix the
/// kernel actually runs — mostly contains() from admit_hop(), with
/// occasional insert/erase from set_link_up().  Steady state must report 0
/// allocations: the vector keeps its capacity across flaps.
void BM_LinkSetChurn(benchmark::State& state) {
  const NodeId links = static_cast<NodeId>(state.range(0));
  net::LinkSet set;
  for (NodeId i = 0; i < links; ++i) set.insert(i, i + 1);  // warm capacity
  for (NodeId i = 0; i < links; ++i) set.erase(i, i + 1);
  std::uint64_t hits = 0;
  AllocCounter allocs;
  for (auto _ : state) {
    for (NodeId i = 0; i < links; ++i) set.insert(i, i + 1);
    for (NodeId i = 0; i < links * 8; ++i) {
      hits += set.contains(i % (links * 2), i % (links * 2) + 1) ? 1 : 0;
    }
    for (NodeId i = 0; i < links; ++i) set.erase(i, i + 1);
  }
  benchmark::DoNotOptimize(hits);
  report_allocs(state, allocs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(links * 10));
}
BENCHMARK(BM_LinkSetChurn)->Arg(8)->Arg(64);

/// Flood with links down: every admit_hop() takes the LinkSet-lookup branch
/// (non-empty disabled set).  Compare against BM_FloodGrid to see the
/// degraded-path overhead.
void BM_FloodGridDegraded(benchmark::State& state) {
  run_floods(state, false, true);
}
BENCHMARK(BM_FloodGridDegraded)->Arg(8);

}  // namespace
}  // namespace excovery

// Custom main: default the JSON output to BENCH_kernel.json so the perf
// trajectory is tracked without remembering reporter flags.
int main(int argc, char** argv) {
  std::vector<std::string> args_storage(argv, argv + argc);
  bool has_out = false;
  for (const std::string& arg : args_storage) {
    if (arg.rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args_storage.push_back("--benchmark_out=BENCH_kernel.json");
    args_storage.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  args.reserve(args_storage.size());
  for (std::string& arg : args_storage) args.push_back(arg.data());
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
