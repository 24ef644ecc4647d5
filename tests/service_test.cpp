// ExperimentService behaviour (DESIGN.md §14): memoization layers
// (memory LRU, disk CAS), single-flight dedup of concurrent identical
// submissions, admission control at the configured queue depth, and the
// central invariant that cache hits are byte-identical to fresh
// simulations.  Runs under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "core/canonical.hpp"
#include "core/master.hpp"
#include "core/platform.hpp"
#include "core/scenario.hpp"
#include "core/service.hpp"
#include "obs/obs.hpp"
#include "storage/repository.hpp"

namespace excovery::core {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("excovery-service-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static inline int counter = 0;
};

/// A small but real campaign; distinct `seed`s give distinct digests.
Submission small_submission(std::uint64_t seed = 1) {
  scenario::TwoPartyOptions options;
  options.replications = 2;
  options.environment_count = 1;
  options.deadline_s = 5.0;
  options.seed = seed;
  Result<ExperimentDescription> description =
      scenario::two_party_sd(options);
  EXPECT_TRUE(description.ok());
  Submission submission;
  submission.description = std::move(description).value();
  submission.scope.platform_seed = 77;
  return submission;
}

Bytes bytes_of(const storage::ExperimentPackage& package) {
  return package.database().serialize();
}

/// Package bytes of an independent sequential (run_workers = 1) simulation
/// of `submission` on its own ExperiMaster, outside any service.
Bytes standalone_bytes(const Submission& submission) {
  Result<net::Topology> topology =
      scenario::topology_for(submission.description,
                             submission.scope.topology);
  EXPECT_TRUE(topology.ok());
  SimPlatformConfig platform_config;
  platform_config.topology = std::move(topology).value();
  platform_config.seed = submission.scope.platform_seed;
  Result<std::unique_ptr<SimPlatform>> platform = SimPlatform::create(
      submission.description, std::move(platform_config));
  EXPECT_TRUE(platform.ok());
  MasterOptions master_options;
  master_options.max_attempts_per_run =
      submission.scope.max_attempts_per_run;
  master_options.run_watchdog = submission.scope.run_watchdog;
  master_options.settle = submission.scope.settle;
  master_options.run_workers = 1;
  ExperiMaster master(submission.description, *platform.value(),
                      std::move(master_options));
  Result<storage::ExperimentPackage> fresh = master.execute();
  EXPECT_TRUE(fresh.ok());
  return fresh.ok() ? bytes_of(fresh.value()) : Bytes{};
}

TEST(ExperimentService, MissThenMemoryHitIsByteIdentical) {
  const Submission submission = small_submission();
  ExperimentService::Config config;
  config.workers = 1;
  ExperimentService service(std::move(config));

  const ServiceReply first = service.submit(submission);
  ASSERT_TRUE(first.status.ok()) << first.status.error().to_string();
  EXPECT_EQ(first.outcome, SubmitOutcome::kSimulated);
  EXPECT_EQ(first.digest, submission.digest());
  ASSERT_NE(first.package, nullptr);

  const ServiceReply second = service.submit(submission);
  EXPECT_EQ(second.outcome, SubmitOutcome::kMemoryHit);
  ASSERT_NE(second.package, nullptr);
  EXPECT_EQ(second.package.get(), first.package.get());  // aliases the cache

  // The answer-invisibility invariant: a fresh, independent simulation of
  // the same campaign produces the exact bytes the cache served.
  EXPECT_EQ(standalone_bytes(submission), bytes_of(*second.package));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.simulations, 1u);
  EXPECT_EQ(stats.memory_hits, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ExperimentService, ConcurrentIdenticalSubmissionsSimulateOnce) {
  constexpr int kClients = 4;
  ExperimentService* service_ptr = nullptr;

  ExperimentService::Config config;
  config.workers = 2;
  // Hold the one admitted simulation until all other clients have arrived
  // and coalesced onto its flight — making the dedup window deterministic.
  config.before_simulate = [&](const std::string&) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service_ptr->stats().coalesced <
               static_cast<std::uint64_t>(kClients - 1) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ExperimentService service(std::move(config));
  service_ptr = &service;

  const Submission submission = small_submission();
  std::vector<ServiceReply> replies(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back(
          [&, i] { replies[i] = service.submit(submission); });
    }
    for (std::thread& t : clients) t.join();
  }

  int simulated = 0;
  int coalesced = 0;
  for (const ServiceReply& reply : replies) {
    ASSERT_TRUE(reply.status.ok()) << reply.status.error().to_string();
    ASSERT_NE(reply.package, nullptr);
    // Single flight: everyone shares the one simulated package object.
    EXPECT_EQ(reply.package.get(), replies[0].package.get());
    if (reply.outcome == SubmitOutcome::kSimulated) ++simulated;
    if (reply.outcome == SubmitOutcome::kCoalesced) ++coalesced;
  }
  EXPECT_EQ(simulated, 1);
  EXPECT_EQ(coalesced, kClients - 1);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.simulations, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kClients - 1));
}

// Two distinct submissions simulate at once on the service pool, each
// master in turn sharding its runs over run_workers = 2 helper threads.
// Every reply is byte-identical to a standalone sequential run.
TEST(ExperimentService, DistinctSubmissionsSimulateInParallel) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  int in_flight = 0;

  ExperimentService::Config config;
  config.workers = 2;
  // Each simulation waits until BOTH are inside the hook: only true
  // parallel execution of distinct digests lets the test get past this.
  config.before_simulate = [&](const std::string&) {
    std::unique_lock lock(gate_mutex);
    ++in_flight;
    gate_cv.notify_all();
    gate_cv.wait_for(lock, std::chrono::seconds(30),
                     [&] { return in_flight >= 2; });
  };
  ExperimentService service(std::move(config));

  Submission submission_a = small_submission(1);
  Submission submission_b = small_submission(2);
  submission_a.run_workers = 2;
  submission_b.run_workers = 2;
  auto a = service.submit_async(submission_a);
  auto b = service.submit_async(submission_b);
  const ServiceReply reply_a = a.get();
  const ServiceReply reply_b = b.get();

  EXPECT_EQ(reply_a.outcome, SubmitOutcome::kSimulated);
  EXPECT_EQ(reply_b.outcome, SubmitOutcome::kSimulated);
  EXPECT_NE(reply_a.digest, reply_b.digest);
  {
    std::lock_guard lock(gate_mutex);
    EXPECT_EQ(in_flight, 2);
  }
  EXPECT_EQ(service.stats().simulations, 2u);

  ASSERT_NE(reply_a.package, nullptr);
  ASSERT_NE(reply_b.package, nullptr);
  EXPECT_EQ(bytes_of(*reply_a.package), standalone_bytes(submission_a));
  EXPECT_EQ(bytes_of(*reply_b.package), standalone_bytes(submission_b));
}

TEST(ExperimentService, AdmissionControlRejectsDeterministicallyAtDepth) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool released = false;

  ExperimentService::Config config;
  config.workers = 1;
  config.max_queue_depth = 2;
  config.before_simulate = [&](const std::string&) {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait_for(lock, std::chrono::seconds(30), [&] { return released; });
  };
  ExperimentService service(std::move(config));

  // Two distinct misses fill the admitted depth (one running-but-held, one
  // queued behind the single worker); the third must be rejected.
  auto first = service.submit_async(small_submission(1));
  auto second = service.submit_async(small_submission(2));
  const ServiceReply rejected = service.submit(small_submission(3));
  EXPECT_EQ(rejected.outcome, SubmitOutcome::kRejected);
  EXPECT_EQ(rejected.package, nullptr);
  ASSERT_FALSE(rejected.status.ok());
  EXPECT_EQ(rejected.status.error().code(), ErrorCode::kState);

  // An identical resubmission coalesces instead of being rejected: single
  // flight takes precedence over admission control.
  auto coalesced = service.submit_async(small_submission(1));

  {
    std::lock_guard lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();

  EXPECT_EQ(first.get().outcome, SubmitOutcome::kSimulated);
  EXPECT_EQ(second.get().outcome, SubmitOutcome::kSimulated);
  EXPECT_EQ(coalesced.get().outcome, SubmitOutcome::kSimulated);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.simulations, 2u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);

  // With the queue drained, the same submission is admitted again — here
  // it hits the cache outright.
  EXPECT_EQ(service.submit(small_submission(3)).outcome,
            SubmitOutcome::kSimulated);
}

TEST(ExperimentService, DiskHitAcrossServiceInstancesIsByteIdentical) {
  TempDir dir;
  Result<storage::Repository> repo =
      storage::Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());

  const Submission submission = small_submission();
  Bytes fresh_bytes;
  {
    ExperimentService::Config config;
    config.workers = 1;
    config.repository = &repo.value();
    ExperimentService service(std::move(config));
    const ServiceReply reply = service.submit(submission);
    ASSERT_EQ(reply.outcome, SubmitOutcome::kSimulated);
    fresh_bytes = bytes_of(*reply.package);
    EXPECT_TRUE(repo.value().contains_hash(reply.digest));
  }

  // A brand-new service with no memory cache must answer from disk.
  ExperimentService::Config config;
  config.workers = 1;
  config.memory_cache_capacity = 0;
  config.repository = &repo.value();
  ExperimentService service(std::move(config));
  const ServiceReply reply = service.submit(submission);
  EXPECT_EQ(reply.outcome, SubmitOutcome::kDiskHit);
  ASSERT_NE(reply.package, nullptr);
  EXPECT_EQ(bytes_of(*reply.package), fresh_bytes);
  EXPECT_EQ(service.memory_cache_size(), 0u);  // capacity 0 stays empty
  EXPECT_EQ(service.stats().disk_hits, 1u);
  EXPECT_EQ(service.stats().simulations, 0u);
}

TEST(ExperimentService, CorruptCasEntryDegradesToMiss) {
  TempDir dir;
  Result<storage::Repository> repo =
      storage::Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());

  const Submission submission = small_submission();
  const std::string digest = submission.digest();
  Bytes fresh_bytes;
  {
    ExperimentService::Config config;
    config.workers = 1;
    config.repository = &repo.value();
    ExperimentService service(std::move(config));
    const ServiceReply reply = service.submit(submission);
    ASSERT_EQ(reply.outcome, SubmitOutcome::kSimulated);
    fresh_bytes = bytes_of(*reply.package);
  }

  // Damage the stored package behind the repository's back: garbage, then
  // a well-formed database whose tables lack the package columns.
  const fs::path cas_file =
      dir.path / storage::Repository::cas_relative_path(digest);
  ASSERT_TRUE(fs::exists(cas_file));
  storage::Database wrong_columns;
  for (const std::string& name :
       storage::ExperimentPackage().database().table_names()) {
    ASSERT_TRUE(
        wrong_columns
            .create_table({name, {{"Only", ValueType::kString, true}}})
            .ok());
  }
  for (const Bytes& damaged :
       {Bytes{'g', 'a', 'r', 'b', 'a', 'g', 'e'}, wrong_columns.serialize()}) {
    std::ofstream(cas_file, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(damaged.data()),
               static_cast<std::streamsize>(damaged.size()));

    ExperimentService::Config config;
    config.workers = 1;
    config.memory_cache_capacity = 0;
    config.repository = &repo.value();
    ExperimentService service(std::move(config));
    const ServiceReply reply = service.submit(submission);
    // The unreadable entry degrades to a re-simulation, not a failure, and
    // the re-simulated package is still the canonical bytes.
    EXPECT_EQ(reply.outcome, SubmitOutcome::kSimulated);
    ASSERT_NE(reply.package, nullptr);
    EXPECT_EQ(bytes_of(*reply.package), fresh_bytes);
  }
}

TEST(ExperimentService, LruEvictsLeastRecentlyUsed) {
  ExperimentService::Config config;
  config.workers = 1;
  config.memory_cache_capacity = 1;
  ExperimentService service(std::move(config));

  EXPECT_EQ(service.submit(small_submission(1)).outcome,
            SubmitOutcome::kSimulated);
  EXPECT_EQ(service.submit(small_submission(2)).outcome,
            SubmitOutcome::kSimulated);
  EXPECT_EQ(service.memory_cache_size(), 1u);
  // Campaign 2 occupies the single slot; campaign 1 was evicted and must
  // re-simulate, while 2 still hits.
  EXPECT_EQ(service.submit(small_submission(2)).outcome,
            SubmitOutcome::kMemoryHit);
  EXPECT_EQ(service.submit(small_submission(1)).outcome,
            SubmitOutcome::kSimulated);
  EXPECT_EQ(service.stats().simulations, 3u);
}

TEST(ExperimentService, FailingSimulationReportsFailure) {
  Submission submission = small_submission();
  // An action the interpreter does not know makes every attempt fail.
  ASSERT_FALSE(submission.description.actor_processes.empty());
  ASSERT_FALSE(submission.description.actor_processes[0].actions.empty());
  submission.description.actor_processes[0].actions[0].name =
      "no_such_action";
  submission.scope.max_attempts_per_run = 1;

  ExperimentService::Config config;
  config.workers = 1;
  ExperimentService service(std::move(config));
  const ServiceReply reply = service.submit(submission);
  EXPECT_EQ(reply.outcome, SubmitOutcome::kFailed);
  EXPECT_EQ(reply.package, nullptr);
  EXPECT_FALSE(reply.status.ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.simulations, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ExperimentService, MetricsMirrorCacheBehaviour) {
  obs::ObsContext obs;
  ExperimentService::Config config;
  config.workers = 1;
  config.max_queue_depth = 1;
  config.obs = &obs;

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool released = false;
  config.before_simulate = [&](const std::string&) {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait_for(lock, std::chrono::seconds(30), [&] { return released; });
  };
  ExperimentService service(std::move(config));

  auto miss = service.submit_async(small_submission(1));
  const ServiceReply rejected = service.submit(small_submission(2));
  EXPECT_EQ(rejected.outcome, SubmitOutcome::kRejected);
  {
    std::lock_guard lock(gate_mutex);
    released = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(miss.get().status.ok());
  EXPECT_EQ(service.submit(small_submission(1)).outcome,
            SubmitOutcome::kMemoryHit);

  obs::MetricsRegistry& registry = obs.registry();
  const auto cell = [&](const char* name) {
    return obs.merged_cell(
        registry.counter(name, obs::MetricDomain::kWall));
  };
  EXPECT_EQ(cell("cache.hit").count, 1u);
  EXPECT_EQ(cell("cache.miss").count, 1u);
  EXPECT_EQ(cell("queue.rejected").count, 1u);
  const obs::MetricCell depth = obs.merged_cell(
      registry.gauge("queue.depth", obs::MetricDomain::kWall));
  EXPECT_TRUE(depth.gauge_set);
  EXPECT_EQ(depth.gauge_last, 0);  // drained
  EXPECT_GE(depth.gauge_max, 1);
}

}  // namespace
}  // namespace excovery::core
