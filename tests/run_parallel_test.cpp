// Intra-experiment run parallelism (DESIGN.md §10): per-run RNG substreams,
// sharded execution on platform replicas, deterministic level-2 merge.  The
// contract under test is bit-identity: the conditioned package must not
// depend on the worker count, on retries, or on resume-after-abort layout.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "core/master.hpp"
#include "core/scenario.hpp"
#include "core/service.hpp"

namespace excovery::core {
namespace {

namespace fs = std::filesystem;

using scenario::TopologyOptions;
using scenario::TwoPartyOptions;

struct TestRig {
  ExperimentDescription description;
  std::unique_ptr<SimPlatform> platform;
};

Result<TestRig> make_setup(const TwoPartyOptions& options,
                           const TopologyOptions& topology_options = {},
                           std::uint64_t platform_seed = 42) {
  EXC_ASSIGN_OR_RETURN(ExperimentDescription description,
                       scenario::two_party_sd(options));
  EXC_ASSIGN_OR_RETURN(net::Topology topology,
                       scenario::topology_for(description, topology_options));
  SimPlatformConfig config;
  config.topology = std::move(topology);
  config.seed = platform_seed;
  EXC_ASSIGN_OR_RETURN(std::unique_ptr<SimPlatform> platform,
                       SimPlatform::create(description, std::move(config)));
  return TestRig{std::move(description), std::move(platform)};
}

TwoPartyOptions small_experiment(int replications = 4) {
  TwoPartyOptions options;
  options.replications = replications;
  options.environment_count = 1;
  return options;
}

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("excovery_runpar_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Stable textual form of one run's complete level-2 trace, for equality
/// assertions with readable failure output.
std::string format_run(const storage::RunData& data) {
  std::string out;
  for (const auto& [node, node_data] : data.nodes) {
    out += "node " + node + "\n";
    for (const storage::RawEvent& event : node_data.events) {
      out += strings::format("  E %lld %s %s\n",
                             static_cast<long long>(event.local_time_ns),
                             event.type.c_str(),
                             event.parameter.to_text().c_str());
    }
    for (const storage::RawPacket& packet : node_data.packets) {
      out += strings::format("  P %lld %s %zu\n",
                             static_cast<long long>(packet.local_time_ns),
                             packet.src_node.c_str(), packet.data.size());
    }
    for (const storage::NamedBlob& blob : node_data.blobs) {
      out += "  B " + blob.name + " " + blob.content + "\n";
    }
    for (const storage::NamedBlob& blob : node_data.plugin_data) {
      out += "  M " + blob.name + " " + blob.content + "\n";
    }
    for (const storage::LogSegment& segment : node_data.log_segments) {
      out += "  L " + segment.text;
    }
  }
  for (const storage::SyncMeasurement& sync : data.syncs) {
    out += strings::format("sync %s off=%lld start=%lld\n", sync.node.c_str(),
                           static_cast<long long>(sync.offset_ns),
                           static_cast<long long>(sync.run_start_ns));
  }
  return out;
}

/// Row-by-row textual dump of a package database; used to report the first
/// divergence when a bit-identity assertion fails.
std::string dump_database(const storage::Database& database) {
  std::string out;
  for (const std::string& name : database.table_names()) {
    const storage::Table* table = database.table(name);
    out += "== " + name + "\n";
    for (std::size_t r = 0; r < table->row_count(); ++r) {
      storage::RowView row = table->row(r);
      for (std::size_t c = 0; c < row.size(); ++c) {
        out += row[c].to_text();
        out += " | ";
      }
      out += "\n";
    }
  }
  return out;
}

void expect_same_package(const storage::Database& expected,
                         const storage::Database& actual,
                         const char* label) {
  if (expected.serialize() == actual.serialize()) return;
  std::string lhs = dump_database(expected);
  std::string rhs = dump_database(actual);
  std::size_t pos = 0;
  while (pos < std::min(lhs.size(), rhs.size()) && lhs[pos] == rhs[pos]) ++pos;
  std::size_t from = lhs.rfind('\n', pos);
  from = from == std::string::npos ? 0 : from + 1;
  ADD_FAILURE() << label << ": packages differ near offset " << pos
                << "\n expected: "
                << lhs.substr(from, std::min<std::size_t>(400, lhs.size() - from))
                << "\n actual:   "
                << rhs.substr(from, std::min<std::size_t>(400, rhs.size() - from));
}

/// Executes the experiment on a fresh platform with the given options and
/// returns the conditioned package.
Result<storage::ExperimentPackage> run_package(const TwoPartyOptions& options,
                                               MasterOptions master_options) {
  EXC_ASSIGN_OR_RETURN(TestRig rig, make_setup(options));
  ExperiMaster master(rig.description, *rig.platform,
                      std::move(master_options));
  return master.execute();
}

// Satellite (a): a run's trace is a pure function of (experiment seed,
// run id) — executing runs 1..K-1 first must not change run K at all.
TEST(RunParallel, RunTraceIndependentOfPriorRuns) {
  TwoPartyOptions options = small_experiment(3);

  Result<TestRig> alone = make_setup(options);
  ASSERT_TRUE(alone.ok()) << alone.error().to_string();
  ExperiMaster master_alone(alone.value().description,
                            *alone.value().platform);
  ASSERT_EQ(master_alone.plan().runs().size(), 3u);
  ASSERT_TRUE(master_alone.execute_run(master_alone.plan().runs()[2]).ok());

  Result<TestRig> full = make_setup(options);
  ASSERT_TRUE(full.ok());
  ExperiMaster master_full(full.value().description, *full.value().platform);
  for (const RunSpec& run : master_full.plan().runs()) {
    ASSERT_TRUE(master_full.execute_run(run).ok());
  }

  storage::RunData run_alone = alone.value().platform->level2().extract_run(3);
  storage::RunData run_full = full.value().platform->level2().extract_run(3);
  std::string formatted = format_run(run_alone);
  EXPECT_FALSE(formatted.empty());
  EXPECT_EQ(formatted, format_run(run_full));
}

// Tentpole: the conditioned package is bit-identical at every worker count
// (1 = sequential on the master's platform, 4 = sharded replicas,
// 0 = hardware concurrency).
TEST(RunParallel, PackageBitIdenticalAcrossWorkerCounts) {
  TwoPartyOptions options = small_experiment(5);

  MasterOptions sequential;
  sequential.run_workers = 1;
  Result<storage::ExperimentPackage> baseline = run_package(options, sequential);
  ASSERT_TRUE(baseline.ok()) << baseline.error().to_string();
  EXPECT_FALSE(baseline.value().database().serialize().empty());

  for (std::size_t workers : {std::size_t{4}, std::size_t{0}}) {
    MasterOptions parallel;
    parallel.run_workers = workers;
    Result<storage::ExperimentPackage> package = run_package(options, parallel);
    ASSERT_TRUE(package.ok()) << package.error().to_string();
    expect_same_package(baseline.value().database(),
                        package.value().database(),
                        ("run_workers=" + std::to_string(workers)).c_str());
  }
}

// The bytes of one small executed experiment, pinned at one worker.  The
// worker-count comparisons above cannot see a layout change that every
// worker count shares; this pin also covers the string event parameters,
// packet captures and run infos of a real execution.
TEST(RunParallel, PackageBytesPinnedAtOneWorker) {
  MasterOptions sequential;
  sequential.run_workers = 1;
  Result<storage::ExperimentPackage> package =
      run_package(small_experiment(2), sequential);
  ASSERT_TRUE(package.ok()) << package.error().to_string();
  const Bytes image = package.value().database().serialize();
  EXPECT_EQ(Sha256().update(image.data(), image.size()).finish_hex(),
            "340a3575293d2ae6e90f17346a79b246ab74fae27115bd8d05d3168de7922159");
}

// Satellite (d) with recovery in the mix: an aborted first attempt on one
// run (fresh RNG substream per attempt, partial data discarded) still
// converges to the sequential bytes.
TEST(RunParallel, RetriesPreserveBitIdentity) {
  TwoPartyOptions options = small_experiment(4);

  auto flaky = [](std::int64_t run_id, int attempt) {
    return run_id == 2 && attempt == 1;
  };
  MasterOptions sequential;
  sequential.run_workers = 1;
  sequential.abort_hook = flaky;
  Result<storage::ExperimentPackage> baseline = run_package(options, sequential);
  ASSERT_TRUE(baseline.ok()) << baseline.error().to_string();

  MasterOptions parallel;
  parallel.run_workers = 3;
  parallel.abort_hook = flaky;
  Result<storage::ExperimentPackage> package = run_package(options, parallel);
  ASSERT_TRUE(package.ok()) << package.error().to_string();
  expect_same_package(baseline.value().database(), package.value().database(),
                      "flaky run_workers=3");
}

// Run isolation: every attempt starts from an empty event queue, so a
// callback queued by one run never runs in a later run, and one queued by
// an aborted attempt never runs in its retry.
TEST(RunParallel, NoCallbackOutlivesItsAttempt) {
  Result<TestRig> rig = make_setup(small_experiment(3));
  ASSERT_TRUE(rig.ok()) << rig.error().to_string();
  sim::Scheduler& scheduler = rig.value().platform->scheduler();
  int sentinels_run = 0;
  MasterOptions options;
  options.run_workers = 1;
  options.abort_hook = [&](std::int64_t run_id, int attempt) {
    if (run_id == 1) {
      // Due after run 1 completes, before run 2's epoch.
      scheduler.schedule(sim::SimDuration::from_seconds(200),
                         [&sentinels_run] { ++sentinels_run; });
    } else if (run_id == 2 && attempt == 1) {
      // Due while the retry of run 2 executes.
      scheduler.schedule(sim::SimDuration::from_seconds(1),
                         [&sentinels_run] { ++sentinels_run; });
      return true;
    }
    return false;
  };
  ExperiMaster master(rig.value().description, *rig.value().platform,
                      std::move(options));
  Result<storage::ExperimentPackage> package = master.execute();
  ASSERT_TRUE(package.ok()) << package.error().to_string();
  EXPECT_EQ(master.aborted_attempts(), 1);
  EXPECT_EQ(master.completed_runs().size(), 3u);
  EXPECT_EQ(sentinels_run, 0);
}

// Satellite (c): a parallel execution that aborts mid-experiment, persists
// its level-2 hierarchy, and resumes on a fresh platform yields a package
// byte-for-byte equal to an uninterrupted sequential execution.
TEST(RunParallel, ResumeAfterAbortMatchesUninterruptedSequential) {
  TwoPartyOptions options = small_experiment(5);

  // Uninterrupted sequential reference.
  MasterOptions sequential;
  sequential.run_workers = 1;
  Result<storage::ExperimentPackage> reference =
      run_package(options, sequential);
  ASSERT_TRUE(reference.ok()) << reference.error().to_string();

  // Parallel execution where run 3 fails permanently.
  TempDir dir;
  {
    Result<TestRig> rig = make_setup(options);
    ASSERT_TRUE(rig.ok());
    MasterOptions failing;
    failing.run_workers = 2;
    // Keep the attempt budget at the reference's default: run epochs are a
    // function of max_attempts_per_run, so changing it between the
    // interrupted and the resumed/uninterrupted executions would shift every
    // timestamp.
    failing.abort_hook = [](std::int64_t run_id, int) { return run_id == 3; };
    ExperiMaster master(rig.value().description, *rig.value().platform,
                        std::move(failing));
    Result<storage::ExperimentPackage> package = master.execute();
    ASSERT_FALSE(package.ok());
    EXPECT_EQ(master.aborted_attempts(), 3);
    // Runs other than 3 that were claimed before the failure are merged and
    // completed; run 3 left no partial data behind.
    for (std::int64_t done :
         rig.value().platform->level2().completed_runs()) {
      EXPECT_NE(done, 3);
    }
    ASSERT_TRUE(rig.value()
                    .platform->level2()
                    .write_to_directory(dir.path.string())
                    .ok());
  }

  // Resume on a fresh platform from the persisted hierarchy (§VII:
  // "recovers from failures by resuming aborted runs").
  Result<storage::Level2Store> loaded =
      storage::Level2Store::load_from_directory(dir.path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  Result<TestRig> rig = make_setup(options);
  ASSERT_TRUE(rig.ok());
  rig.value().platform->level2() = std::move(loaded).value();

  int resumed_runs = 0;
  MasterOptions resume;
  resume.run_workers = 2;
  resume.progress = [&](const RunSpec&, int, bool) { ++resumed_runs; };
  ExperiMaster master(rig.value().description, *rig.value().platform,
                      std::move(resume));
  Result<storage::ExperimentPackage> package = master.execute();
  ASSERT_TRUE(package.ok()) << package.error().to_string();
  EXPECT_GE(resumed_runs, 1);  // at least run 3 was re-executed
  expect_same_package(reference.value().database(),
                      package.value().database(), "resume after abort");
}

// Same resume scenario through the sequential path: the re-executed middle
// run must be spliced back into run-id order, not appended.
TEST(RunParallel, SequentialResumeSplicesMiddleRun) {
  TwoPartyOptions options = small_experiment(4);

  MasterOptions sequential;
  sequential.run_workers = 1;
  Result<storage::ExperimentPackage> reference =
      run_package(options, sequential);
  ASSERT_TRUE(reference.ok());

  // Complete runs 1, 2 and 4 out of order on one platform, then resume.
  Result<TestRig> rig = make_setup(options);
  ASSERT_TRUE(rig.ok());
  {
    ExperiMaster first(rig.value().description, *rig.value().platform);
    const std::vector<RunSpec>& runs = first.plan().runs();
    ASSERT_TRUE(first.execute_run(runs[0]).ok());
    ASSERT_TRUE(first.execute_run(runs[1]).ok());
    ASSERT_TRUE(first.execute_run(runs[3]).ok());
  }
  ExperiMaster resumed(rig.value().description, *rig.value().platform);
  Result<storage::ExperimentPackage> package = resumed.execute();
  ASSERT_TRUE(package.ok()) << package.error().to_string();
  EXPECT_EQ(package.value().run_ids(),
            (std::vector<std::int64_t>{1, 2, 3, 4}));
  expect_same_package(reference.value().database(),
                      package.value().database(), "sequential resume");
}

// Campaign- and run-level parallelism nest without deadlocking: three
// experiments fan out over a two-worker ExperimentService pool (one queues),
// and each master shards its runs over run_workers = 2 helper threads of
// its own.  Every package is bit-identical to running that master alone.
TEST(RunParallel, CampaignNestingSharesPoolWithoutDeadlock) {
  TwoPartyOptions options = small_experiment(3);
  Result<ExperimentDescription> description = scenario::two_party_sd(options);
  ASSERT_TRUE(description.ok());

  ExperimentService::Config config;
  config.workers = 2;
  ExperimentService service(std::move(config));

  std::vector<std::shared_future<ServiceReply>> pending;
  for (int i = 0; i < 3; ++i) {
    Submission submission;
    submission.description = description.value();
    submission.scope.platform_seed = 100 + static_cast<std::uint64_t>(i);
    submission.run_workers = 2;  // nested: run workers inside a pool task
    pending.push_back(service.submit_async(submission));
  }
  std::vector<ServiceReply> replies;
  for (const std::shared_future<ServiceReply>& future : pending) {
    replies.push_back(future.get());
  }
  EXPECT_EQ(service.stats().simulations, 3u);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(replies[i].status.ok()) << replies[i].status.error().to_string();
    EXPECT_EQ(replies[i].outcome, SubmitOutcome::kSimulated);
    ASSERT_NE(replies[i].package, nullptr);
    Result<TestRig> rig =
        make_setup(options, {}, 100 + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(rig.ok());
    ExperiMaster master(rig.value().description, *rig.value().platform);
    Result<storage::ExperimentPackage> package = master.execute();
    ASSERT_TRUE(package.ok());
    expect_same_package(package.value().database(),
                        replies[i].package->database(),
                        ("campaign entry " + std::to_string(i)).c_str());
  }
}

// Master-level progress is serialized and reports every attempt exactly
// once even when runs execute on several workers.
TEST(RunParallel, MasterProgressSerializedUnderParallelism) {
  TwoPartyOptions options = small_experiment(6);
  Result<TestRig> rig = make_setup(options);
  ASSERT_TRUE(rig.ok());

  int calls = 0;  // unsynchronized on purpose
  std::atomic<int> concurrent{0};
  bool overlapped = false;
  MasterOptions master_options;
  master_options.run_workers = 3;
  master_options.progress = [&](const RunSpec&, int attempt, bool ok) {
    if (concurrent.fetch_add(1) != 0) overlapped = true;
    ++calls;
    EXPECT_EQ(attempt, 1);
    EXPECT_TRUE(ok);
    concurrent.fetch_sub(1);
  };
  ExperiMaster master(rig.value().description, *rig.value().platform,
                      std::move(master_options));
  Result<storage::ExperimentPackage> package = master.execute();
  ASSERT_TRUE(package.ok()) << package.error().to_string();
  EXPECT_EQ(calls, 6);
  EXPECT_FALSE(overlapped);
}

// The cheap replica constructor reproduces the master's platform exactly:
// a replica executing run K records the same trace the master would.
TEST(RunParallel, ReplicaReproducesMasterTrace) {
  TwoPartyOptions options = small_experiment(2);
  Result<TestRig> rig = make_setup(options);
  ASSERT_TRUE(rig.ok());
  SimPlatform& original = *rig.value().platform;

  Result<std::unique_ptr<SimPlatform>> replica =
      original.replicate(rig.value().description);
  ASSERT_TRUE(replica.ok()) << replica.error().to_string();

  ExperiMaster on_original(rig.value().description, original);
  ASSERT_TRUE(on_original.execute_run(on_original.plan().runs()[1]).ok());
  ExperiMaster on_replica(rig.value().description, *replica.value());
  ASSERT_TRUE(on_replica.execute_run(on_replica.plan().runs()[1]).ok());

  EXPECT_EQ(format_run(original.level2().extract_run(2)),
            format_run(replica.value()->level2().extract_run(2)));
}

}  // namespace
}  // namespace excovery::core
