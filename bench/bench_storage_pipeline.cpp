// Result-store pipeline benchmarks (google-benchmark).
//
// Measures the level-3 storage paths the analysis pipeline hammers: row
// insertion, per-run point queries and ordered scans over an event-shaped
// table, level-2 -> level-3 conditioning of a multi-node package, and
// (de)serialisation bandwidth of the single-file database image.  Results
// go to BENCH_storage.json (override with --benchmark_out=...).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "storage/conditioning.hpp"
#include "storage/database.hpp"
#include "storage/level2.hpp"
#include "storage/package.hpp"
#include "storage/table.hpp"

namespace excovery::storage {
namespace {

constexpr std::int64_t kRuns = 100;

TableSchema events_schema() {
  return {"Events",
          {{"RunID", ValueType::kInt, false},
           {"NodeID", ValueType::kString, false},
           {"CommonTime", ValueType::kDouble, false},
           {"EventType", ValueType::kString, false},
           {"Parameter", ValueType::kString, true}}};
}

Row event_row(std::int64_t i) {
  return {Value{i % kRuns + 1}, Value{"N" + std::to_string(i % 8)},
          Value{static_cast<double>((i * 37) % 10'000) * 1e-3},
          Value{"ev" + std::to_string(i % 12)},
          i % 5 ? Value{"p" + std::to_string(i % 50)} : Value{}};
}

Table columnar_events(std::int64_t rows) {
  Table table(events_schema());
  for (std::int64_t i = 0; i < rows; ++i) (void)table.insert(event_row(i));
  return table;
}

/// A multi-node level-2 store shaped like a real campaign: `nodes` nodes,
/// kRuns runs, events + packets + blobs + plugin data per (run, node).
Level2Store busy_level2(int nodes, int events_per_run) {
  Level2Store level2;
  for (int n = 0; n < nodes; ++n) {
    std::string node = "N" + std::to_string(n);
    for (std::int64_t run = 1; run <= kRuns; ++run) {
      for (int e = 0; e < events_per_run; ++e) {
        level2.node(node).record_event(
            {run, run * 1'000'000'000LL + e * 1000 + n,
             "ev" + std::to_string(e % 4), Value{e}});
      }
      for (int p = 0; p < events_per_run / 4; ++p) {
        level2.node(node).record_packet(
            {run, run * 1'000'000'000LL + p * 700, "N0",
             Bytes{static_cast<std::uint8_t>(p),
                   static_cast<std::uint8_t>(n)}});
      }
      level2.node(node).add_run_blob(run, "hops", std::to_string(run));
      level2.node(node).add_plugin_measurement(run, "plug", "m",
                                               std::to_string(n));
      level2.add_sync({run, node, n * 1000LL, run * 1'000'000'000LL});
      level2.mark_run_complete(run);
    }
    level2.node(node).add_experiment_blob("topo", node);
    level2.node(node).append_log("log of " + node + "\n");
  }
  return level2;
}

// ---- insert throughput -----------------------------------------------------

void BM_InsertColumnar(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  for (auto _ : state) {
    Table table = columnar_events(rows);
    benchmark::DoNotOptimize(table.row_count());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_InsertColumnar)->Arg(10'000)->Arg(100'000);

// ---- per-run point queries (the level-3 extraction hot path) ---------------

void BM_SelectEqualsColumnar(benchmark::State& state) {
  Table table = columnar_events(state.range(0));
  benchmark::DoNotOptimize(table.select_equals("RunID", Value{1}).size());
  std::int64_t run = 0;
  std::size_t hits = 0;
  for (auto _ : state) {
    hits += table.select_equals("RunID", Value{run % kRuns + 1}).size();
    ++run;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SelectEqualsColumnar)->Arg(10'000)->Arg(100'000);

// ---- ordered scans ---------------------------------------------------------

void BM_OrderByColumnarCached(benchmark::State& state) {
  Table table = columnar_events(state.range(0));
  benchmark::DoNotOptimize(table.order_by("CommonTime").value().size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.order_by("CommonTime").value().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrderByColumnarCached)->Arg(100'000);

// ---- conditioning ----------------------------------------------------------

void BM_Condition(benchmark::State& state) {
  Level2Store level2 =
      busy_level2(static_cast<int>(state.range(0)), 200);
  std::size_t events = 0;
  for (auto _ : state) {
    Result<ExperimentPackage> package = condition(level2, "<e/>");
    events += package.value().event_count();
  }
  benchmark::DoNotOptimize(events);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Condition)->Arg(8)->Arg(20);

// ---- (de)serialisation bandwidth -------------------------------------------

void BM_DatabaseSerialize(benchmark::State& state) {
  Database db;
  Table* table = db.create_table(events_schema()).value();
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    (void)table->insert(event_row(i));
  }
  std::size_t bytes = db.serialize().size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.serialize().size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DatabaseSerialize)->Arg(100'000);

void BM_DatabaseDeserialize(benchmark::State& state) {
  Database db;
  Table* table = db.create_table(events_schema()).value();
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    (void)table->insert(event_row(i));
  }
  Bytes image = db.serialize();
  for (auto _ : state) {
    Result<Database> back = Database::deserialize(image);
    benchmark::DoNotOptimize(back.value().table_count());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_DatabaseDeserialize)->Arg(100'000);

}  // namespace
}  // namespace excovery::storage

// Custom main: default the JSON output to BENCH_storage.json so the perf
// trajectory is tracked without remembering reporter flags.
int main(int argc, char** argv) {
  std::vector<std::string> args_storage(argv, argv + argc);
  bool has_out = false;
  for (const std::string& arg : args_storage) {
    if (arg.rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args_storage.push_back("--benchmark_out=BENCH_storage.json");
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
