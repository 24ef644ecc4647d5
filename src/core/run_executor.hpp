// Single-run execution engine, shared by the sequential and the sharded
// (run-parallel) paths of ExperiMaster (DESIGN.md §10).
//
// One RunExecutor drives runs on one platform instance — the master's own
// platform in sequential mode, a worker-owned replica in parallel mode.
// Every attempt starts from the same defined initial condition (§IV-C1):
//   * the scheduler restarts from an empty queue at the run's canonical
//     epoch, a simulated-time slot derived from the run id alone, so
//     timestamps do not depend on which runs executed before on this
//     instance, and no callback of an earlier run or attempt survives;
//   * every order-dependent random stream is rebased on the per-run
//     substream (SimPlatform::begin_run);
//   * leftover packets/faults/traffic are cleared (reset_run_state).
// Together these make a run's recorded data a pure function of
// (description, platform config, run id, attempt) — the invariant the
// deterministic level-2 merge relies on.
#pragma once

#include <string>

#include "core/description.hpp"
#include "core/interpreter.hpp"
#include "core/plan.hpp"
#include "core/platform.hpp"
#include "obs/obs.hpp"

namespace excovery::core {

struct MasterOptions;

class RunExecutor : public ActionDispatcher {
 public:
  /// `options` (the master's) must outlive the executor.
  RunExecutor(const ExperimentDescription& description, SimPlatform& platform,
              const MasterOptions& options);

  /// Canonical simulated-time start of a run: every run gets its own slot,
  /// wide enough for max_attempts_per_run worst-case attempts, so a run's
  /// timestamps are identical no matter which instance executes it.
  sim::SimTime run_epoch(std::int64_t run_id) const noexcept;

  /// Execute one attempt of a run: restart the scheduler at the run's
  /// epoch, rebase the per-run RNG substreams, then run preparation /
  /// execution / clean-up.  Marks the run complete in the platform's
  /// level-2 store on success.
  Status execute_run(const RunSpec& run, int attempt = 1);

  /// Attach observability: per-attempt kernel/network/fault deltas are
  /// recorded into `shard`, run spans go to the context's trace buffer,
  /// and deterministic per-run values to its ledger.  Turns on full
  /// lineage-graph retention, from which each attempt derives its views
  /// (DESIGN.md §16): the successful attempt's critical paths (into the
  /// provenance ledger) and per-link counts (into the ledger), and — when
  /// the context asks for packet traces — every attempt's packet track.
  void attach_obs(obs::ObsContext& context, obs::MetricsShard& shard);

  SimPlatform& platform() noexcept { return platform_; }

 private:
  // ActionDispatcher implementation ----------------------------------------
  Status node_action(const std::string& concrete_node,
                     const std::string& method, ValueMap params) override;
  Status env_action(const std::string& method, ValueMap params) override;

  Status prepare_run(const RunSpec& run);
  Status run_processes(const RunSpec& run, int attempt);
  Status cleanup_run(const RunSpec& run);

  /// Snapshot of the monotonic kernel counters, taken at the start of an
  /// attempt so the recorded deltas cover exactly that attempt.
  struct KernelSample {
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t published = 0;
    std::uint64_t dispatched = 0;
  };
  KernelSample sample_kernel() const;
  void record_attempt_obs(const RunSpec& run, const Status& status,
                          const KernelSample& before, std::int64_t sim_start_ns,
                          std::int64_t wall_start_ns);
  /// Failed attempt: dump the lineage ring to the flight directory (no-op
  /// when none is configured).
  void dump_flight_recorder(const Status& failure);

  const ExperimentDescription& description_;
  SimPlatform& platform_;
  const MasterOptions& options_;
  const RunSpec* current_run_ = nullptr;
  faults::FaultHandle env_drop_all_;
  faults::FaultHandle env_partition_;
  obs::ObsContext* obs_ = nullptr;
  obs::MetricsShard* obs_shard_ = nullptr;
};

}  // namespace excovery::core
