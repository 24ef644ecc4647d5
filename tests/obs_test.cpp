// Observability subsystem (DESIGN.md §11): metrics registry + shards,
// trace-event buffer, and the end-to-end contracts — deterministic-domain
// metrics are bit-identical across worker counts, and attaching an
// ObsContext never changes a byte of the conditioned package.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "core/master.hpp"
#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "storage/package.hpp"

namespace excovery::obs {
namespace {

using core::ExperimentDescription;
using core::MasterOptions;
using core::SimPlatform;
using core::SimPlatformConfig;
using core::scenario::TopologyKind;
using core::scenario::TopologyOptions;
using core::scenario::TwoPartyOptions;

// ---- metrics registry + shards ---------------------------------------------

TEST(MetricsRegistry, InternIsIdempotent) {
  MetricsRegistry registry;
  MetricId a = registry.counter("events", MetricDomain::kDeterministic);
  MetricId b = registry.counter("events", MetricDomain::kDeterministic);
  EXPECT_EQ(a.index, b.index);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(registry.size(), 1u);
  MetricId c = registry.gauge("depth", MetricDomain::kBestEffort);
  EXPECT_NE(c.index, a.index);
  std::vector<MetricDesc> descs = registry.descriptors();
  ASSERT_EQ(descs.size(), 2u);
  EXPECT_EQ(descs[0].name, "events");
  EXPECT_EQ(descs[0].kind, MetricKind::kCounter);
  EXPECT_EQ(descs[1].kind, MetricKind::kGauge);
}

TEST(MetricsShard, CounterMergeIsPartitionInvariant) {
  MetricsRegistry registry;
  MetricId id = registry.counter("n");
  // 1+2+...+9 recorded three ways: one shard, two shards, three shards.
  auto record = [&](std::vector<MetricsShard>& shards) {
    for (std::uint64_t i = 1; i <= 9; ++i) {
      shards[i % shards.size()].add(id, i);
    }
    MetricsShard merged(&registry);
    for (const MetricsShard& shard : shards) merged.merge_from(shard);
    return merged.cell(id)->count;
  };
  std::vector<MetricsShard> one(1, MetricsShard(&registry));
  std::vector<MetricsShard> two(2, MetricsShard(&registry));
  std::vector<MetricsShard> three(3, MetricsShard(&registry));
  const std::uint64_t a = record(one);
  EXPECT_EQ(a, 45u);
  EXPECT_EQ(record(two), a);
  EXPECT_EQ(record(three), a);
}

TEST(MetricsShard, HistogramSumIsPartitionAndOrderInvariant) {
  MetricsRegistry registry;
  MetricId id = registry.log_histogram("dur", MetricDomain::kDeterministic);
  // Magnitudes chosen so naive double accumulation is order-sensitive in
  // the last ulp: a small value among several near-equal large ones (the
  // run.sim_seconds shape), plus values spanning many exponents.
  const std::vector<double> values = {0.01,   1.0007040469999999,
                                      1.0007, 1.0007040469999998,
                                      1e-9,   3.5e8,
                                      -1e8,   2.25e-7};
  auto record = [&](std::size_t shard_count, bool reversed) {
    std::vector<MetricsShard> shards(shard_count, MetricsShard(&registry));
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::size_t v = reversed ? values.size() - 1 - i : i;
      shards[v % shard_count].observe(id, values[v]);
    }
    MetricsShard merged(&registry);
    for (const MetricsShard& shard : shards) merged.merge_from(shard);
    return merged.cell(id)->sum;
  };
  const double expected = record(1, false);
  for (std::size_t shard_count : {1u, 2u, 3u, 5u}) {
    for (bool reversed : {false, true}) {
      const double sum = record(shard_count, reversed);
      EXPECT_EQ(sum, expected)
          << shard_count << " shards, reversed=" << reversed;
    }
  }
  // The exact sum is also the correctly rounded one (math.fsum agrees),
  // not just consistent across partitionings.
  EXPECT_EQ(expected, 250000003.01210833);
}

TEST(MetricsShard, GaugeMergeTakesMaximum) {
  MetricsRegistry registry;
  MetricId id = registry.gauge("depth");
  MetricsShard a(&registry);
  MetricsShard b(&registry);
  a.set_gauge(id, 7);
  a.set_gauge(id, 3);  // last write smaller than the high-water mark
  b.set_gauge(id, 5);
  MetricsShard ab(&registry);
  ab.merge_from(a);
  ab.merge_from(b);
  MetricsShard ba(&registry);
  ba.merge_from(b);
  ba.merge_from(a);
  // Merge keeps the maximum in both fields so the result is order-free.
  EXPECT_EQ(ab.cell(id)->gauge_max, 7);
  EXPECT_EQ(ab.cell(id)->gauge_last, ba.cell(id)->gauge_last);
  EXPECT_TRUE(ab.cell(id)->gauge_set);
}

TEST(Metrics, LogBinsCoverWideRangeAndInvert) {
  EXPECT_EQ(log_bin(1.0), static_cast<std::size_t>(kLogBinOffset));
  // Zero and negatives clamp into the lowest bin, huge values into the top.
  EXPECT_EQ(log_bin(0.0), 0u);
  EXPECT_EQ(log_bin(-5.0), 0u);
  EXPECT_LT(log_bin(1e30), kLogBins);
  // (values below 2^-16 clamp into bin 0 and are not invertible)
  for (double v : {0.5, 1.0, 3.0, 1024.0, 1e9}) {
    std::size_t bin = log_bin(v);
    EXPECT_LE(log_bin_lower(bin), v) << v;
    if (bin + 1 < kLogBins) {
      EXPECT_LT(v, log_bin_lower(bin + 1)) << v;
    }
  }
}

TEST(MetricsShard, LogHistogramTracksRangeAndNaN) {
  MetricsRegistry registry;
  MetricId id = registry.log_histogram("lat", MetricDomain::kDeterministic);
  MetricsShard shard(&registry);
  shard.observe(id, -1.0);                                   // non-positive
  shard.observe(id, 0.5);                                    // [2^-1, 2^0)
  shard.observe(id, 9.5);                                    // [2^3, 2^4)
  shard.observe(id, 25.0);                                   // [2^4, 2^5)
  shard.observe(id, std::nan(""));                           // NaN bucket
  const MetricCell* cell = shard.cell(id);
  ASSERT_NE(cell, nullptr);
  // NaN goes to its own bucket, not into count/sum/min/max.
  EXPECT_EQ(cell->count, 4u);
  EXPECT_EQ(cell->nan_count, 1u);
  // Layout: kLogBins cells, bin b covering [2^(b-16), 2^(b-15)).
  ASSERT_EQ(cell->bins.size(), kLogBins);
  EXPECT_EQ(cell->bins[0], 1u);
  EXPECT_EQ(cell->bins[15], 1u);
  EXPECT_EQ(cell->bins[19], 1u);
  EXPECT_EQ(cell->bins[20], 1u);
  EXPECT_EQ(cell->min, -1.0);
  EXPECT_EQ(cell->max, 25.0);
}

// ---- trace buffer ----------------------------------------------------------

TEST(Trace, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

/// Structural JSON balance check: braces/brackets outside string literals.
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Trace, SpansAsyncAndCountersRenderAsTraceEventJson) {
  TraceBuffer buffer(true);
  { WallSpan span(&buffer, "setup", "test"); }
  std::int64_t sim_clock = 100;
  {
    SimSpan span(&buffer, 0, "run 1", "run", [&sim_clock] { return sim_clock; },
                 "{\"run\":1}");
    sim_clock = 5000;
  }
  buffer.async_begin(Track::kSim, 0x42, "pkt 1", "packet", 200);
  buffer.instant(Track::kSim, 0, "hop", "packet", 300);
  buffer.async_end(Track::kSim, 0x42, "pkt 1", "packet", 400);
  buffer.counter(Track::kWall, 0, "runs_completed", buffer.wall_now_ns(), 3.0);
  EXPECT_EQ(buffer.size(), 6u);

  std::string json = buffer.to_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Both tracks are named via process metadata.
  EXPECT_NE(json.find("excovery wall clock"), std::string::npos);
  EXPECT_NE(json.find("excovery simulated time"), std::string::npos);
  // One of each phase made it through.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // The complete-span phase and its label come from the spans.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"run\":1"), std::string::npos);
  EXPECT_NE(json.find("run 1"), std::string::npos);
}

TEST(Trace, DisabledBufferRecordsNothing) {
  TraceBuffer buffer(false);
  { WallSpan span(&buffer, "ignored", "test"); }
  buffer.instant(Track::kWall, 0, "ignored", "test", 1);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(json_balanced(buffer.to_json()));
}

// ---- progress reporting ----------------------------------------------------

TEST(ObsContext, ProgressReportLogsThroughSink) {
  ObsConfig config;
  config.progress_interval_s = 0.0;  // log every report
  ObsContext obs(config);
  std::string captured;
  {
    ScopedSink sink([&captured](LogLevel, std::string_view,
                                std::string_view message) {
      captured.append(message);
      captured.push_back('\n');
    });
    LogLevel old_level = Logger::instance().level();
    Logger::instance().set_level(LogLevel::kInfo);
    obs.report_progress(1, 4, 7, 2);
    obs.report_progress(4, 4, 9, 1);
    Logger::instance().set_level(old_level);
  }
  EXPECT_NE(captured.find("runs 1/4"), std::string::npos) << captured;
  EXPECT_NE(captured.find("last=#7 attempt=2"), std::string::npos);
  EXPECT_NE(captured.find("runs 4/4 (100.0%)"), std::string::npos);
}

TEST(ObsContext, MetricsJsonReportsLastGaugeValue) {
  ObsContext obs;
  const MetricId gauge = obs.ids().sched_max_pending;
  obs.set_gauge(gauge, 5);
  obs.set_gauge(gauge, 2);
  EXPECT_EQ(obs.merged_cell(gauge).gauge_last, 2);
  const std::string json = obs.metrics_json();
  const std::size_t at = json.find("\"name\":\"sched.max_pending\"");
  ASSERT_NE(at, std::string::npos);
  const std::string entry = json.substr(at, json.find('}', at) - at);
  EXPECT_NE(entry.find("\"last\":2,\"max\":5"), std::string::npos) << entry;
}

// ---- package metrics table -------------------------------------------------

TEST(PackageMetrics, ExportWritesTotalsAndLedgerRows) {
  ObsContext obs;
  obs.add(obs.ids().runs_completed, 3);
  obs.ledger().record(2, "net.sent", 10.0);
  obs.ledger().record(1, "net.sent", 12.0);
  obs.ledger().record(1, "bus.published", 4.0);

  storage::ExperimentPackage package;
  ASSERT_TRUE(obs.export_metrics(package).ok());
  std::vector<storage::MetricRow> rows = package.metrics();
  ASSERT_FALSE(rows.empty());
  // Experiment-scope totals first (RunID -1), then ledger in (run, name)
  // order.
  EXPECT_EQ(rows.front().run_id, -1);
  bool found_total = false;
  for (const storage::MetricRow& row : rows) {
    if (row.run_id == -1 && row.name == "runs.completed") {
      EXPECT_EQ(row.value, 3.0);
      found_total = true;
    }
  }
  EXPECT_TRUE(found_total);
  const std::size_t n = rows.size();
  EXPECT_EQ(rows[n - 3].name, "bus.published");
  EXPECT_EQ(rows[n - 3].run_id, 1);
  EXPECT_EQ(rows[n - 2].name, "net.sent");
  EXPECT_EQ(rows[n - 2].run_id, 1);
  EXPECT_EQ(rows[n - 1].run_id, 2);
  EXPECT_EQ(rows[n - 1].value, 10.0);
}

// ---- end to end ------------------------------------------------------------

struct Rig {
  ExperimentDescription description;
  std::unique_ptr<SimPlatform> platform;
};

Result<Rig> make_rig(int replications) {
  TwoPartyOptions options;
  options.replications = replications;
  options.environment_count = 1;
  EXC_ASSIGN_OR_RETURN(ExperimentDescription description,
                       core::scenario::two_party_sd(options));
  EXC_ASSIGN_OR_RETURN(net::Topology topology,
                       core::scenario::topology_for(description, {}));
  SimPlatformConfig config;
  config.topology = std::move(topology);
  config.seed = 42;
  EXC_ASSIGN_OR_RETURN(std::unique_ptr<SimPlatform> platform,
                       SimPlatform::create(description, std::move(config)));
  return Rig{std::move(description), std::move(platform)};
}

Result<storage::ExperimentPackage> run_experiment(Rig& rig,
                                                  MasterOptions options) {
  core::ExperiMaster master(rig.description, *rig.platform,
                            std::move(options));
  return master.execute();
}

TEST(ObsEndToEnd, PackageBytesIdenticalWithAndWithoutObs) {
  Result<Rig> plain = make_rig(3);
  Result<Rig> observed = make_rig(3);
  ASSERT_TRUE(plain.ok() && observed.ok());

  Result<storage::ExperimentPackage> baseline =
      run_experiment(plain.value(), {});
  ASSERT_TRUE(baseline.ok()) << baseline.error().to_string();

  ObsConfig config;
  config.packet_trace = true;  // heaviest instrumentation on
  ObsContext obs(config);
  MasterOptions with_obs;
  with_obs.obs = &obs;
  Result<storage::ExperimentPackage> instrumented =
      run_experiment(observed.value(), std::move(with_obs));
  ASSERT_TRUE(instrumented.ok()) << instrumented.error().to_string();

  EXPECT_EQ(baseline.value().database().serialize(),
            instrumented.value().database().serialize());

  // The run actually got observed.
  EXPECT_EQ(obs.merged_cell(obs.ids().runs_completed).count, 3u);
  EXPECT_EQ(obs.merged_cell(obs.ids().runs_attempts).count, 3u);
  EXPECT_GT(obs.merged_cell(obs.ids().net_sent).count, 0u);
  EXPECT_GT(obs.merged_cell(obs.ids().bus_published).count, 0u);
  EXPECT_GT(obs.ledger().size(), 0u);
  // Packet lifecycles landed on the sim track.
  std::string json = obs.trace().to_json();
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("pkt "), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
}

TEST(ObsEndToEnd, DeterministicMetricsIdenticalAcrossWorkerCounts) {
  std::vector<std::string> rendered;
  std::vector<Bytes> packages;
  for (std::size_t workers : {1u, 3u}) {
    Result<Rig> rig = make_rig(4);
    ASSERT_TRUE(rig.ok());
    ObsContext obs;
    MasterOptions options;
    options.obs = &obs;
    options.run_workers = workers;
    Result<storage::ExperimentPackage> package =
        run_experiment(rig.value(), std::move(options));
    ASSERT_TRUE(package.ok()) << package.error().to_string();
    packages.push_back(package.value().database().serialize());
    rendered.push_back(obs.format_deterministic_metrics());
    EXPECT_EQ(obs.merged_cell(obs.ids().runs_completed).count, 4u);
  }
  EXPECT_EQ(packages[0], packages[1]);
  EXPECT_EQ(rendered[0], rendered[1]) << rendered[0];
  // Sanity: the rendering actually carries per-run ledger lines.
  EXPECT_NE(rendered[0].find("run/1/net.sent="), std::string::npos);
  EXPECT_NE(rendered[0].find("runs.completed=4"), std::string::npos);
}

TEST(ObsEndToEnd, RetriedRunsCountRetriesWithoutDuplicatingLedger) {
  std::vector<std::string> rendered;
  for (std::size_t workers : {1u, 2u}) {
    Result<Rig> rig = make_rig(3);
    ASSERT_TRUE(rig.ok());
    ObsContext obs;
    MasterOptions options;
    options.obs = &obs;
    options.run_workers = workers;
    options.abort_hook = [](std::int64_t run_id, int attempt) {
      return run_id == 2 && attempt == 1;  // first attempt of run 2 dies
    };
    Result<storage::ExperimentPackage> package =
        run_experiment(rig.value(), std::move(options));
    ASSERT_TRUE(package.ok()) << package.error().to_string();
    rendered.push_back(obs.format_deterministic_metrics());
    EXPECT_EQ(obs.merged_cell(obs.ids().runs_completed).count, 3u);
    EXPECT_EQ(obs.merged_cell(obs.ids().runs_attempts).count, 4u);
    EXPECT_EQ(obs.merged_cell(obs.ids().runs_retries).count, 1u);
    // Exactly one ledger entry per (run, name): the aborted attempt did not
    // record.
    std::size_t first = rendered.back().find("run/2/net.sent=");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(rendered.back().find("run/2/net.sent=", first + 1),
              std::string::npos);
  }
  EXPECT_EQ(rendered[0], rendered[1]);
}

TEST(ObsEndToEnd, MetricsJsonAndExportAreWellFormed) {
  Result<Rig> rig = make_rig(3);
  ASSERT_TRUE(rig.ok());
  ObsContext obs;
  MasterOptions options;
  options.obs = &obs;
  Result<storage::ExperimentPackage> package =
      run_experiment(rig.value(), std::move(options));
  ASSERT_TRUE(package.ok());

  std::string json = obs.metrics_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"run_summaries\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\""), std::string::npos);

  // Export is explicit and adds rows to the (otherwise empty) table.
  EXPECT_TRUE(package.value().metrics().empty());
  ASSERT_TRUE(obs.export_metrics(package.value()).ok());
  EXPECT_FALSE(package.value().metrics().empty());
}

/// Execute `options` under `master_options` on a platform built from
/// `topology` and `seed`.
Result<storage::ExperimentPackage> run_world(const TwoPartyOptions& options,
                                             const TopologyOptions& topology,
                                             std::uint64_t seed,
                                             MasterOptions master_options) {
  EXC_ASSIGN_OR_RETURN(ExperimentDescription description,
                       core::scenario::two_party_sd(options));
  SimPlatformConfig config;
  EXC_ASSIGN_OR_RETURN(config.topology,
                       core::scenario::topology_for(description, topology));
  config.seed = seed;
  EXC_ASSIGN_OR_RETURN(std::unique_ptr<SimPlatform> platform,
                       SimPlatform::create(description, std::move(config)));
  core::ExperiMaster master(description, *platform,
                            std::move(master_options));
  return master.execute();
}

// The deterministic rendering of two drop-heavy worlds, pinned at one run
// worker, so the per-link ledger rows are checked against fixed values and
// not only against another execution of the same code.  The congested
// chain drops to queue overflow, downed links and link loss; the churned
// random-geometric world drops at crashed receivers and suppresses flood
// duplicates.
TEST(ObsEndToEnd, DeterministicMetricsPinned) {
  TwoPartyOptions chain;
  chain.environment_count = 4;
  chain.replications = 2;
  chain.deadline_s = 6.0;
  chain.pairs_levels = {6};
  chain.bw_levels = {2000};
  chain.dynamic.sm_churn = true;
  chain.dynamic.churn_mean_uptime_s = 2.0;
  chain.dynamic.churn_mean_downtime_s = 0.5;
  chain.dynamic.partition_nodes = {"ENV0"};
  chain.dynamic.partition_start_s = 1.0;
  chain.dynamic.partition_duration_s = 2.0;
  TopologyOptions congested;
  congested.kind = TopologyKind::kChain;
  congested.link.bandwidth_bps = 300e3;
  congested.link.loss = 0.03;

  TwoPartyOptions geometric;
  geometric.sm_count = 2;
  geometric.su_count = 2;
  geometric.environment_count = 8;
  geometric.replications = 2;
  geometric.deadline_s = 6.0;
  geometric.dynamic.sm_churn = true;
  geometric.dynamic.churn_mean_uptime_s = 1.0;
  geometric.dynamic.churn_mean_downtime_s = 1.0;
  TopologyOptions churned;
  churned.kind = TopologyKind::kRandomGeometric;
  churned.radius = 0.5;

  struct World {
    const TwoPartyOptions& options;
    const TopologyOptions& topology;
    const char* sha256;
  };
  for (const World& world :
       {World{chain, congested,
              "8d85fd950108799465d66e4f022b07961a28b597f65129437baf0c8f119673f9"},
        World{geometric, churned,
              "38b1e3c407b34b704cd7e675a5918be449e440b8585212e054c56c8e6ffa243a"}}) {
    ObsConfig metrics_only;
    metrics_only.trace = false;
    ObsContext obs(metrics_only);
    MasterOptions options;
    options.obs = &obs;
    options.run_workers = 1;
    Result<storage::ExperimentPackage> package =
        run_world(world.options, world.topology, 5, std::move(options));
    ASSERT_TRUE(package.ok()) << package.error().to_string();
    const std::string rendered = obs.format_deterministic_metrics();
    EXPECT_NE(rendered.find(".dropped="), std::string::npos) << rendered;
    EXPECT_EQ(Sha256().update(rendered.data(), rendered.size()).finish_hex(),
              world.sha256)
        << rendered;
  }
}

/// The sim-track packet events of a rendered trace.
struct PacketTrack {
  struct Slice {
    int begins = 0;
    int ends = 0;
    double begin_ts = 0.0;
    double end_ts = 0.0;
  };
  std::map<std::string, Slice> slices;  ///< by async id
  std::map<std::string, int> instants;  ///< by name
  /// Begin timestamps of every slice id, for locating attempts.
  std::vector<std::pair<double, std::string>> begins;
  /// "run R attempt A" sim spans: [start, end] timestamps.
  std::map<std::string, std::pair<double, double>> attempts;
};

/// Value of `"key":` in one trace-event line: a quoted string's contents or
/// the bare token up to the next ',' or '}'.
std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return "";
  std::size_t from = at + tag.size();
  if (line[from] == '"') {
    return line.substr(from + 1, line.find('"', from + 1) - from - 1);
  }
  return line.substr(from, line.find_first_of(",}", from) - from);
}

PacketTrack parse_packet_track(const std::string& json) {
  PacketTrack track;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    const std::string phase = field(line, "ph");
    if (field(line, "pid") != "2" || phase == "M") continue;
    const double ts = std::stod(field(line, "ts"));
    if (phase == "X") {
      track.attempts[field(line, "name")] = {
          ts, ts + std::stod(field(line, "dur"))};
    } else if (phase == "i") {
      ++track.instants[field(line, "name")];
    } else if (phase == "b" || phase == "e") {
      PacketTrack::Slice& slice = track.slices[field(line, "id")];
      if (phase == "b") {
        ++slice.begins;
        slice.begin_ts = ts;
        track.begins.emplace_back(ts, field(line, "id"));
      } else {
        ++slice.ends;
        slice.end_ts = ts;
      }
    }
  }
  return track;
}

// The packet track is drawn from the lineage graph after each attempt:
// every slice opens at its send and closes once, at its packet's last
// event, and a retried run's attempts never share a slice id.
TEST(ObsEndToEnd, PacketTrackSlicesCloseOnce) {
  // Two parties with SU message loss, and the first attempt of run 2
  // aborted.  Background traffic puts packets on the air before the abort
  // hook fires, 10 ms into the attempt.
  TwoPartyOptions lossy;
  lossy.environment_count = 2;
  lossy.replications = 3;
  lossy.deadline_s = 10.0;
  lossy.loss_levels = {0.5};
  lossy.pairs_levels = {1};
  lossy.bw_levels = {1000};
  TwoPartyOptions quickstart;  // examples/quickstart's mesh
  quickstart.environment_count = 2;
  quickstart.replications = 3;

  for (const TwoPartyOptions* world : {&lossy, &quickstart}) {
    const bool retried = world == &lossy;
    ObsConfig config;
    config.packet_trace = true;
    ObsContext obs(config);
    MasterOptions options;
    options.obs = &obs;
    if (retried) {
      options.abort_hook = [](std::int64_t run_id, int attempt) {
        return run_id == 2 && attempt == 1;
      };
    }
    Result<storage::ExperimentPackage> package =
        run_world(*world, {}, 2026, std::move(options));
    ASSERT_TRUE(package.ok()) << package.error().to_string();

    const PacketTrack track = parse_packet_track(obs.trace().to_json());
    ASSERT_FALSE(track.slices.empty());
    for (const auto& [id, slice] : track.slices) {
      EXPECT_EQ(slice.begins, 1) << id;
      EXPECT_EQ(slice.ends, 1) << id;
      EXPECT_GE(slice.end_ts, slice.begin_ts) << id;
    }
    EXPECT_GT(track.instants.count("hop"), 0u);
    EXPECT_GT(track.instants.count("deliver"), 0u);
    if (!retried) continue;
    EXPECT_GT(track.instants.count("drop:fault:message_loss"), 0u);

    // Both attempts of run 2 drew slices, under distinct ids.
    std::set<std::string> first;
    std::set<std::string> retry;
    ASSERT_EQ(track.attempts.count("run 2 attempt 1"), 1u);
    ASSERT_EQ(track.attempts.count("run 2 attempt 2"), 1u);
    const auto [first_start, first_end] =
        track.attempts.at("run 2 attempt 1");
    const auto [retry_start, retry_end] =
        track.attempts.at("run 2 attempt 2");
    for (const auto& [ts, id] : track.begins) {
      if (ts >= first_start && ts < first_end) first.insert(id);
      if (ts > first_end && ts >= retry_start && ts <= retry_end) {
        retry.insert(id);
      }
    }
    EXPECT_FALSE(first.empty());
    EXPECT_FALSE(retry.empty());
    for (const std::string& id : first) EXPECT_EQ(retry.count(id), 0u) << id;
  }
}

}  // namespace
}  // namespace excovery::obs
