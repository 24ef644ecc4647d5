#include "core/master.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <thread>

#include "common/log.hpp"
#include "common/strings.hpp"

namespace excovery::core {

namespace {

constexpr const char* kComponent = "core.master";

/// Outcome slot for one sharded run, filled by whichever worker claims it.
struct RunSlot {
  bool executed = false;  ///< claimed and run (not skipped after a failure)
  std::optional<Error> error;
  storage::RunData data;
  int aborted = 0;
};

}  // namespace

ExperiMaster::ExperiMaster(const ExperimentDescription& description,
                           SimPlatform& platform, MasterOptions options)
    : description_(description),
      platform_(platform),
      options_(std::move(options)) {
  if (options_.flight_dir.empty()) {
    if (const char* env = std::getenv("EXCOVERY_FLIGHT_DIR")) {
      options_.flight_dir = env;
    }
  }
  Result<TreatmentPlan> plan = TreatmentPlan::generate(description);
  // Plan generation fails only on malformed actor maps, which validate()
  // catches earlier; keep an empty plan on error and surface it in
  // execute().
  if (plan.ok()) {
    plan_ = std::make_unique<TreatmentPlan>(std::move(plan).value());
  }
  executor_ =
      std::make_unique<RunExecutor>(description_, platform_, options_);
  if (options_.obs != nullptr) {
    obs_shard_ =
        std::make_unique<obs::MetricsShard>(options_.obs->make_shard());
    executor_->attach_obs(*options_.obs, *obs_shard_);
  }
}

Result<storage::ExperimentPackage> ExperiMaster::execute() {
  if (!plan_) return err_validation("treatment plan generation failed");

  // experiment_init on every participant, once per experiment.  A resumed
  // experiment (completed runs already in the store) skips it: the nodes
  // were initialized by the interrupted execution and the recorded init
  // events are already in the loaded level-2 store.
  const bool resuming = !platform_.level2().completed_runs().empty();
  if (!experiment_initialized_) {
    if (!resuming) {
      for (const std::string& node : platform_.node_names()) {
        EXC_TRY(node_rpc(node, "experiment_init"));
      }
    }
    experiment_initialized_ = true;
  }

  // Topology before the experiment (§IV-B4: "before and after"), plus the
  // advanced recording (adjacency + link quality) the paper anticipates.
  // Replace-by-name keeps a resumed experiment's blob list identical to an
  // uninterrupted one.
  std::vector<std::string> all_nodes = platform_.node_names();
  platform_.level2()
      .node(kEnvironmentNode)
      .set_experiment_blob("topology_before",
                           platform_.measure_topology(all_nodes));
  platform_.level2()
      .node(kEnvironmentNode)
      .set_experiment_blob("topology_detail",
                           platform_.measure_topology_detailed());

  // Resume: skip runs already completed in the level-2 store (§VII:
  // "recovers from failures by resuming aborted runs").
  std::vector<const RunSpec*> todo =
      plan_->remaining(platform_.level2().completed_runs());
  std::size_t workers = options_.run_workers != 0
                            ? options_.run_workers
                            : std::max<std::size_t>(
                                  1, std::thread::hardware_concurrency());
  workers = std::min(workers, todo.size());
  // Resume with a gap: a run with a smaller id than an already-completed one
  // must execute at its canonical epoch, but this platform's clock is
  // already past it (an interrupted sharded execution completed later runs
  // first).  A fresh replica starts at simulated time zero, so the sharded
  // path — which also splices the run back into run-id order — reproduces
  // the uninterrupted store exactly; the in-place sequential path cannot.
  std::int64_t max_completed = 0;
  for (std::int64_t run : platform_.level2().completed_runs()) {
    max_completed = std::max(max_completed, run);
  }
  const bool gap_resume =
      !todo.empty() && todo.front()->run_id < max_completed;
  progress_total_ = todo.size();
  progress_done_.store(0, std::memory_order_relaxed);
  obs::WallSpan runs_span;
  if (options_.obs != nullptr) {
    runs_span = obs::WallSpan(
        &options_.obs->trace(),
        strings::format("execute %zu run(s), %zu worker(s)", todo.size(),
                        std::max<std::size_t>(workers, 1)),
        "master");
  }
  if (workers <= 1 && !gap_resume) {
    EXC_TRY(run_all_sequential(todo));
  } else if (!todo.empty()) {
    EXC_TRY(run_all_sharded(todo, std::max<std::size_t>(workers, 1)));
  }
  runs_span = obs::WallSpan();  // close the span before conditioning
  if (options_.obs != nullptr && obs_shard_ != nullptr) {
    // Fold the sequential path's shard into the merged view; re-arm it so a
    // later execute() on the same master starts from zero again.
    options_.obs->merge_shard(*obs_shard_);
    *obs_shard_ = options_.obs->make_shard();
  }

  platform_.level2()
      .node(kEnvironmentNode)
      .set_experiment_blob("topology_after",
                           platform_.measure_topology(all_nodes));

  // Experiment-scope exit events must not attach to whichever run happened
  // to execute last on this platform instance (run 0 is never completed, so
  // they stay out of the conditioned package in every execution layout).
  platform_.recorder().begin_run(0);
  for (const std::string& node : platform_.node_names()) {
    EXC_TRY(node_rpc(node, "experiment_exit"));
  }
  experiment_initialized_ = false;

  // Collection & conditioning into the level-3 package.
  storage::ConditioningOptions conditioning;
  conditioning.experiment_name = description_.name;
  conditioning.comment = options_.comment;
  obs::WallSpan condition_span;
  if (options_.obs != nullptr) {
    obs::ObsContext* obs = options_.obs;
    condition_span = obs::WallSpan(&obs->trace(), "condition", "storage");
    obs->add(obs->ids().condition_shards,
             platform_.level2().node_names().size());
    conditioning.timing_hook = [obs](std::string_view phase,
                                     std::int64_t wall_ns) {
      obs->observe(obs->ids().condition_wall_ns,
                   static_cast<double>(wall_ns));
      obs->trace().instant(obs::Track::kWall, obs::current_thread_tid(),
                           "condition:" + std::string(phase), "storage",
                           obs->trace().wall_now_ns());
    };
  }
  return storage::condition(platform_.level2(), description_.to_xml_text(),
                            conditioning);
}

Status ExperiMaster::execute_run(const RunSpec& run, int attempt) {
  return executor_->execute_run(run, attempt);
}

Status ExperiMaster::execute_with_retries(RunExecutor& executor,
                                          SimPlatform& platform,
                                          const RunSpec& run, int& aborted) {
  Status status = err_aborted("not attempted");
  for (int attempt = 1; attempt <= options_.max_attempts_per_run; ++attempt) {
    status = executor.execute_run(run, attempt);
    if (options_.progress) {
      std::lock_guard lock(progress_mutex_);
      options_.progress(run, attempt, status.ok());
    }
    if (status.ok()) {
      if (options_.obs != nullptr) {
        std::size_t done =
            progress_done_.fetch_add(1, std::memory_order_relaxed) + 1;
        options_.obs->report_progress(done, progress_total_, run.run_id,
                                      attempt);
      }
      return {};
    }
    ++aborted;
    // Only attempts that actually get another try count as retries.
    if (options_.obs != nullptr &&
        attempt < options_.max_attempts_per_run) {
      options_.obs->add(options_.obs->ids().runs_retries, 1);
    }
    EXC_LOG_WARN(kComponent,
                 "run " << run.run_id << " attempt " << attempt
                        << " aborted: " << status.error().to_string());
    // Discard the aborted run's partial data before retrying.
    platform.level2().discard_run(run.run_id);
    platform.reset_run_state();
  }
  return std::move(status).context(
      strings::format("run %lld failed after %d attempts",
                      static_cast<long long>(run.run_id),
                      options_.max_attempts_per_run));
}

Status ExperiMaster::run_all_sequential(
    const std::vector<const RunSpec*>& todo) {
  for (const RunSpec* run : todo) {
    EXC_TRY(execute_with_retries(*executor_, platform_, *run,
                                 aborted_attempts_));
  }
  return {};
}

Status ExperiMaster::run_all_sharded(const std::vector<const RunSpec*>& todo,
                                     std::size_t workers) {
  std::vector<RunSlot> slots(todo.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};

  // Work claiming: each participating thread lazily builds its own platform
  // replica, then pulls run indexes off the shared counter until the plan
  // is exhausted.  A failure poisons the remaining (unclaimed) runs so the
  // experiment stops quickly; already-claimed runs still finish and are
  // merged, matching sequential resume semantics.
  auto work = [&] {
    std::unique_ptr<SimPlatform> replica;
    std::unique_ptr<RunExecutor> executor;
    // Each worker records into its own shard — no synchronisation on the
    // hot path — and folds it into the context when its claim loop ends.
    // Counter merges commute and histogram sums use exact (order-invariant)
    // summation, so the merged totals do not depend on which worker claimed
    // which run.
    std::unique_ptr<obs::MetricsShard> shard;
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= todo.size()) break;
      RunSlot& slot = slots[i];
      if (failed.load(std::memory_order_relaxed)) continue;
      if (!executor) {
        Result<std::unique_ptr<SimPlatform>> r =
            platform_.replicate(description_);
        if (!r.ok()) {
          slot.error = std::move(r).error();
          failed.store(true, std::memory_order_relaxed);
          continue;
        }
        replica = std::move(r).value();
        executor =
            std::make_unique<RunExecutor>(description_, *replica, options_);
        if (options_.obs != nullptr) {
          shard = std::make_unique<obs::MetricsShard>(
              options_.obs->make_shard());
          executor->attach_obs(*options_.obs, *shard);
        }
      }
      const RunSpec& run = *todo[i];
      slot.executed = true;
      Status status =
          execute_with_retries(*executor, *replica, run, slot.aborted);
      if (status.ok()) {
        slot.data = replica->level2().extract_run(run.run_id);
      } else {
        slot.error = std::move(status).error();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    if (shard != nullptr && options_.obs != nullptr) {
      options_.obs->merge_shard(*shard);
    }
  };

  // The calling thread works alongside `workers - 1` dedicated helper
  // threads.  Once they are joined, every claimed run is in its slot and
  // every worker's metric shard is merged.  A jthread also joins when
  // unwinding, before the state `work` refers to is destroyed.
  std::vector<std::jthread> helpers;
  helpers.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(work);
  work();
  for (std::jthread& helper : helpers) helper.join();

  // Deterministic merge: todo order is ascending run-id order, and
  // merge_run splices each run in where that order dictates, so the master
  // store is byte-identical to one filled by sequential execution.
  std::optional<Error> failure;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    RunSlot& slot = slots[i];
    aborted_attempts_ += slot.aborted;
    if (slot.error) {
      if (!failure) failure = std::move(*slot.error);
      continue;
    }
    if (!slot.executed) continue;  // skipped after another run failed
    platform_.level2().merge_run(std::move(slot.data));
    platform_.level2().mark_run_complete(todo[i]->run_id);
  }
  if (failure) return std::move(*failure);
  return {};
}

Status ExperiMaster::node_rpc(const std::string& concrete_node,
                              const std::string& method) {
  rpc::RpcClient client = platform_.client(concrete_node);
  Result<Value> outcome =
      client.call(method, ValueArray{Value{ValueMap{}}});
  if (!outcome.ok()) return std::move(outcome).error();
  return {};
}

}  // namespace excovery::core
