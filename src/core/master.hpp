// ExperiMaster: "a program that executes experiment runs as specified in
// the description.  Each run is a sequence of actions performed on the
// participating nodes" (§IV) ... "ExCovery manages series of experiments
// and recovers from failures by resuming aborted runs" (§VII).
//
// Per-run workflow (§IV-C1): each run consists of three phases —
//   preparation: reset the environment to a defined initial condition
//     (drop leftover packets, stop stray faults), run_init on every node,
//     time-sync measurement per participant, topology probe;
//   execution: all process interpreters (actor processes per mapped node,
//     manipulation processes, environment processes) run concurrently under
//     the discrete-event scheduler until completion or the run watchdog;
//   clean-up: run_exit on every node (stops roles/faults, collects packet
//     captures and plugin measurements).
//
// Runs are independent — each resets the platform to a defined initial
// condition and consumes its own RNG substream — so with run_workers > 1
// the master shards the treatment plan across worker-owned platform
// replicas and merges each finished run back in run-id order.  The merged
// level-2 store, and therefore the conditioned package, is bit-identical
// to sequential execution (DESIGN.md §10).
//
// After all runs: collection & conditioning produce the level-3 package
// (storage::condition), completing the workflow of Fig. 3.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>

#include "core/description.hpp"
#include "core/plan.hpp"
#include "core/platform.hpp"
#include "core/run_executor.hpp"
#include "storage/conditioning.hpp"
#include "storage/package.hpp"

namespace excovery::core {

struct MasterOptions {
  /// Attempts per run before the experiment gives up (failure recovery).
  int max_attempts_per_run = 3;
  /// Simulated-time watchdog per run; a run whose processes have not all
  /// completed by then is aborted (and resumed/retried).
  sim::SimDuration run_watchdog = sim::SimDuration::from_seconds(300);
  /// Extra simulated settle time after the last process finishes, letting
  /// in-flight packets drain before clean-up.
  sim::SimDuration settle = sim::SimDuration::from_millis(200);
  /// Comment stored into ExperimentInfo.
  std::string comment;
  /// Directory for post-mortem flight-recorder dumps: every failed run
  /// attempt writes the lineage ring there as a readable artifact
  /// (DESIGN.md §16).  Empty falls back to EXCOVERY_FLIGHT_DIR, read once
  /// when the master is constructed; unset means no dumps.  Dump files are
  /// diagnostics only — they never feed back into the conditioned package.
  std::string flight_dir;

  /// Worker threads executing runs on platform replicas: 1 = sequential on
  /// the master's own platform, 0 = hardware concurrency.  The conditioned
  /// package is bit-identical for every value.
  std::size_t run_workers = 1;

  /// Observability context (metrics, tracing, per-run ledger); null = none.
  /// Attaching a context never changes the conditioned package: every
  /// recorded value is out-of-band (DESIGN.md §11).
  obs::ObsContext* obs = nullptr;

  /// Progress callback: (run, attempt, ok).  With run_workers > 1 it is
  /// invoked from worker threads, serialized by the master, in completion
  /// order rather than run order.
  std::function<void(const RunSpec&, int attempt, bool ok)> progress;
  /// Test hook: force the given (run_id, attempt) to abort mid-run.  With
  /// run_workers > 1 it is invoked concurrently from worker threads.
  std::function<bool(std::int64_t run_id, int attempt)> abort_hook;
};

class ExperiMaster {
 public:
  /// The master drives an already-created platform (the platform embodies
  /// the "platform setup" step of Fig. 3).
  ExperiMaster(const ExperimentDescription& description,
               SimPlatform& platform, MasterOptions options = {});

  /// Execute the full treatment plan and return the conditioned level-3
  /// package (collection + conditioning + storage of Fig. 3).
  Result<storage::ExperimentPackage> execute();

  /// Execute a single run on the master's platform (used by the sequential
  /// path of execute(); public for tests/benches).
  Status execute_run(const RunSpec& run, int attempt = 1);

  const TreatmentPlan& plan() const noexcept { return *plan_; }
  SimPlatform& platform() noexcept { return platform_; }

  /// Runs that completed (in execution order).
  const std::vector<std::int64_t>& completed_runs() const noexcept {
    return platform_.level2().completed_runs();
  }
  /// Total aborted attempts encountered (recovery metric).
  int aborted_attempts() const noexcept { return aborted_attempts_; }

 private:
  /// Retry loop around RunExecutor::execute_run for one run.  On abort the
  /// attempt's partial data is discarded from `platform`'s store.  Adds the
  /// number of aborted attempts to `aborted`.
  Status execute_with_retries(RunExecutor& executor, SimPlatform& platform,
                              const RunSpec& run, int& aborted);

  /// Control-channel RPC used for experiment_init / experiment_exit.
  Status node_rpc(const std::string& concrete_node, const std::string& method);

  Status run_all_sequential(const std::vector<const RunSpec*>& todo);
  Status run_all_sharded(const std::vector<const RunSpec*>& todo,
                         std::size_t workers);

  const ExperimentDescription& description_;
  SimPlatform& platform_;
  MasterOptions options_;
  std::unique_ptr<TreatmentPlan> plan_;
  std::unique_ptr<RunExecutor> executor_;  ///< drives the master's platform
  /// Metric shard the master's own executor records into (sequential path);
  /// merged into the obs context once the run phase completes.
  std::unique_ptr<obs::MetricsShard> obs_shard_;
  std::mutex progress_mutex_;
  std::atomic<std::size_t> progress_done_{0};
  std::size_t progress_total_ = 0;
  int aborted_attempts_ = 0;
  bool experiment_initialized_ = false;
};

}  // namespace excovery::core
