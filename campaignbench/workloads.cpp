#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/hash.hpp"
#include "core/master.hpp"
#include "core/scenario.hpp"
#include "core/service.hpp"
#include "measure.hpp"
#include "obs/obs.hpp"
#include "rpc/codec.hpp"
#include "stats/analysis.hpp"
#include "storage/repository.hpp"

namespace campaignbench {

namespace core = excovery::core;
namespace obs = excovery::obs;
namespace rpc = excovery::rpc;
namespace stats = excovery::stats;
namespace storage = excovery::storage;
namespace fs = std::filesystem;
using excovery::Bytes;
using excovery::Result;

namespace {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

std::string sha256_hex(const Bytes& bytes) {
  return excovery::Sha256().update(bytes.data(), bytes.size()).finish_hex();
}

// ---- samples ----------------------------------------------------------------

/// Work measured in one block: a paper-campaign block of experiments, one
/// sv-sweep or stress-mesh experiment, or one service-mix batch.  Rates are
/// medians over blocks, so a stall that hits one block moves them little.
struct Block {
  double runs = 0.0;
  double experiments = 0.0;
  double busy_s = 0.0;  ///< wall time of the measured pipeline
  double cpu_s = 0.0;   ///< process CPU over the same intervals
  std::vector<double> experiment_ms;
};

/// What one measured phase (untraced or traced) collected.
struct Phase {
  std::vector<double> setup_s;  ///< one value per set-up unit
  std::vector<double> run_ms;
  std::vector<double> experiment_ms;
  std::vector<Block> blocks;
  std::uint64_t runs = 0;
  std::uint64_t experiments = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::string first_sha256;  ///< package digest of the first experiment

  // Other tenants of a shared host slow whole stretches of blocks; the
  // quartile on the fast side of the blocks tracks the program's own speed
  // far more steadily than their mean or median.
  double runs_per_s() const {
    return quartile_over_blocks(
        0.75, [](const Block& b) { return b.runs / b.busy_s; });
  }
  double experiments_per_s() const {
    return quartile_over_blocks(
        0.75, [](const Block& b) { return b.experiments / b.busy_s; });
  }
  double cpu_ms_per_run() const {
    return quartile_over_blocks(
        0.25, [](const Block& b) { return b.cpu_s * 1e3 / b.runs; });
  }

 private:
  template <typename Ratio>
  double quartile_over_blocks(double quartile, Ratio ratio) const {
    std::vector<double> values;
    for (const Block& block : blocks) {
      if (block.runs > 0 && block.busy_s > 0) values.push_back(ratio(block));
    }
    return quantile(std::move(values), quartile);
  }
};

/// Per-layer samples of the traced run, by metric name.
class LayerTrace {
 public:
  void add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  double median_of(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }
  double sum_of(const std::string& name) const {
    auto it = samples_.find(name);
    if (it == samples_.end()) return 0.0;
    double sum = 0.0;
    for (double value : it->second) sum += value;
    return sum;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Per-run wall time from the master's progress callback: each callback
/// closes the interval its worker thread opened at the previous one (or at
/// execute()), and a run's time sums its attempts.  The master serialises
/// the callbacks.
class RunClock {
 public:
  void start() { start_ns_ = now_ns(); }
  void on_progress(std::int64_t run_id, bool ok) {
    const std::int64_t now = now_ns();
    auto [last, inserted] =
        last_ns_.try_emplace(std::this_thread::get_id(), start_ns_);
    double& pending = pending_ms_[run_id];
    pending += static_cast<double>(now - last->second) * 1e-6;
    last->second = now;
    if (ok) {
      run_ms.push_back(pending);
      pending_ms_.erase(run_id);
    }
  }
  std::vector<double> run_ms;

 private:
  std::int64_t start_ns_ = 0;
  std::unordered_map<std::thread::id, std::int64_t> last_ns_;
  std::unordered_map<std::int64_t, double> pending_ms_;
};

// ---- one experiment through the public API ---------------------------------

/// An executed experiment, kept alive so probes can inspect its platform.
/// Members are ordered so the master is destroyed before what it uses.
struct Execution {
  core::ExperimentDescription description;
  std::unique_ptr<core::SimPlatform> platform;
  std::unique_ptr<obs::ObsContext> obs;  // traced runs only
  RunClock clock;
  std::unique_ptr<core::ExperiMaster> master;
  std::optional<storage::ExperimentPackage> package;
  Bytes bytes;
  bool connected = true;
  double setup_s = 0.0;
  double execute_s = 0.0;
  double execute_allocs = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string error;  ///< non-empty when a step failed
};

std::unique_ptr<Execution> failed(std::unique_ptr<Execution> execution,
                                  const char* step,
                                  const excovery::Error& error) {
  execution->error = std::string(step) + ": " + error.to_string();
  return execution;
}

/// description text -> parse -> topology -> platform -> master [set-up]
/// -> execute -> serialize -> responsiveness.  With a trace, the calls into
/// each layer are timed and an ObsContext is attached to the master.
std::unique_ptr<Execution> execute(const ExperimentInput& input,
                                   LayerTrace* trace,
                                   bool setup_only = false) {
  auto ex = std::make_unique<Execution>();
  const std::int64_t start = now_ns();
  const double cpu_start = cpu_seconds();

  Stopwatch watch;
  Result<core::ExperimentDescription> parsed =
      core::ExperimentDescription::parse(input.description_xml);
  if (trace != nullptr) {
    trace->add("xml.parse_ns", watch.ns());
    trace->add("xml.parse_allocs", watch.allocs());
  }
  if (!parsed.ok()) return failed(std::move(ex), "parse", parsed.error());
  ex->description = std::move(parsed).value();

  watch.restart();
  Result<excovery::net::Topology> topology =
      core::scenario::topology_for(ex->description, input.scope.topology);
  if (!topology.ok()) return failed(std::move(ex), "topology", topology.error());
  ex->connected = topology.value().connected();
  core::SimPlatformConfig config;
  config.topology = std::move(topology).value();
  config.seed = input.scope.platform_seed;
  Result<std::unique_ptr<core::SimPlatform>> platform =
      core::SimPlatform::create(ex->description, std::move(config));
  if (trace != nullptr) {
    trace->add("platform.create_ns", watch.ns());
    trace->add("platform.create_allocs", watch.allocs());
  }
  if (!platform.ok()) return failed(std::move(ex), "platform", platform.error());
  ex->platform = std::move(platform).value();

  core::MasterOptions options;
  options.max_attempts_per_run = input.scope.max_attempts_per_run;
  options.run_watchdog = input.scope.run_watchdog;
  options.settle = input.scope.settle;
  options.run_workers = input.run_workers;
  RunClock* clock = &ex->clock;
  options.progress = [clock](const core::RunSpec& run, int, bool ok) {
    clock->on_progress(run.run_id, ok);
  };
  if (trace != nullptr) {
    ex->obs = std::make_unique<obs::ObsContext>(obs::ObsConfig{.trace = false});
    options.obs = ex->obs.get();
  }
  ex->master = std::make_unique<core::ExperiMaster>(
      ex->description, *ex->platform, std::move(options));
  ex->setup_s = seconds_since(start);
  if (setup_only) return ex;

  ex->clock.start();
  watch.restart();
  Result<storage::ExperimentPackage> package = ex->master->execute();
  ex->execute_s = watch.ns() * 1e-9;
  ex->execute_allocs = watch.allocs();
  if (!package.ok()) return failed(std::move(ex), "execute", package.error());
  ex->package = std::move(package).value();

  watch.restart();
  ex->bytes = ex->package->database().serialize();
  if (trace != nullptr) trace->add("package.serialize_ns", watch.ns());
  Result<stats::Proportion> responsiveness =
      stats::responsiveness(*ex->package, input.deadline_s, 1);
  if (!responsiveness.ok()) {
    return failed(std::move(ex), "responsiveness", responsiveness.error());
  }
  ex->wall_s = seconds_since(start);
  ex->cpu_s = cpu_seconds() - cpu_start;
  return ex;
}

/// sv-sweep shape: responsiveness is non-increasing in loss, non-decreasing
/// in deadline, and 1.0 at loss 0 from a 0.9 s deadline on.  Runs are in
/// plan order: loss level outermost, replications innermost.
std::optional<std::string> check_sweep_shape(
    const storage::ExperimentPackage& package, const ExperimentInput& input) {
  static const double kDeadlines[] = {0.25, 0.5, 0.9, 1.2, 1.9,
                                      2.2,  3.5, 4.0, 6.0, 8.0};
  constexpr std::size_t kCount = std::size(kDeadlines);
  Result<std::vector<stats::RunDiscovery>> discoveries =
      stats::discoveries(package);
  if (!discoveries.ok()) return "discoveries: " + discoveries.error().to_string();
  const std::size_t levels = input.loss_levels.size();
  std::vector<std::vector<double>> hits(levels, std::vector<double>(kCount));
  std::vector<double> trials(levels);
  for (const stats::RunDiscovery& run : discoveries.value()) {
    const auto level =
        static_cast<std::size_t>((run.run_id - 1) / input.replications);
    if (level >= levels) continue;
    ++trials[level];
    double first = 1e300;
    for (const auto& [provider, latency] : run.latencies) {
      first = std::min(first, latency);
    }
    for (std::size_t d = 0; d < kCount; ++d) {
      if (first <= kDeadlines[d]) ++hits[level][d];
    }
  }
  for (std::size_t level = 0; level < levels; ++level) {
    if (trials[level] == 0) return "sv-sweep: a loss level has no runs";
    for (std::size_t d = 0; d < kCount; ++d) {
      const double r = hits[level][d] / trials[level];
      if (d > 0 && r < hits[level][d - 1] / trials[level]) {
        return "sv-sweep: responsiveness decreases with the deadline";
      }
      if (level > 0 && r > hits[level - 1][d] / trials[level - 1]) {
        return "sv-sweep: responsiveness increases with loss";
      }
      if (level == 0 && kDeadlines[d] >= 0.9 && r != 1.0) {
        return "sv-sweep: responsiveness below 1.0 at loss 0";
      }
    }
  }
  return std::nullopt;
}

/// Add one executed experiment to a phase's current block and samples.
void account(Phase& phase, const ExperimentInput& input,
             const Execution& ex) {
  const std::size_t planned = ex.master ? ex.master->plan().run_count() : 1;
  phase.attempted += planned;
  if (!ex.error.empty()) {
    phase.failed += planned;
    phase.problems.push_back(ex.error);
    return;
  }
  const std::size_t completed = ex.master->completed_runs().size();
  phase.failed += planned - std::min(planned, completed);
  phase.runs += completed;
  ++phase.experiments;
  Block& block = phase.blocks.back();
  block.runs += static_cast<double>(completed);
  block.experiments += 1;
  block.busy_s += ex.wall_s;
  block.cpu_s += ex.cpu_s;
  block.experiment_ms.push_back(ex.wall_s * 1e3);
  phase.experiment_ms.push_back(ex.wall_s * 1e3);
  phase.run_ms.insert(phase.run_ms.end(), ex.clock.run_ms.begin(),
                      ex.clock.run_ms.end());
  if (phase.first_sha256.empty()) phase.first_sha256 = sha256_hex(ex.bytes);
  if (!ex.connected) phase.problems.push_back("topology is not connected");
  if (!input.loss_levels.empty()) {
    if (auto problem = check_sweep_shape(*ex.package, input)) {
      phase.problems.push_back(*problem);
    }
  }
}

// ---- traced probes ---------------------------------------------------------

/// Per-layer state of a traced phase.
struct Tracer {
  LayerTrace trace;
  fs::path work_dir;
  bool probed_once = false;
};

std::uint64_t obs_count(const obs::ObsContext& context, obs::MetricId id) {
  return context.merged_cell(id).count;
}

/// Time the calls into each layer that the executed pipeline made
/// internally or that a user makes on its result.  Nothing here is part of
/// the measured pipeline time.
void probe_execution(const ExperimentInput& input, Execution& ex,
                     Tracer& tracer, Phase& phase) {
  LayerTrace& trace = tracer.trace;
  Stopwatch watch;
  const std::string xml_text = ex.description.to_xml_text();
  trace.add("xml.write_ns", watch.ns());

  watch.restart();
  const std::string digest = core::campaign_digest(ex.description, input.scope);
  trace.add("canonical.digest_ns", watch.ns());

  watch.restart();
  Result<core::TreatmentPlan> plan = core::TreatmentPlan::generate(ex.description);
  trace.add("plan.generate_ns", watch.ns());
  if (!plan.ok()) phase.problems.push_back("plan: " + plan.error().to_string());

  // Conditioning replayed on the master's level-2 store must reproduce the
  // executed package byte for byte.
  storage::ConditioningOptions conditioning;
  conditioning.experiment_name = ex.description.name;
  double build_ns = 0.0;
  double merge_ns = 0.0;
  conditioning.timing_hook = [&](std::string_view step, std::int64_t ns) {
    (step == "merge" ? merge_ns : build_ns) += static_cast<double>(ns);
  };
  watch.restart();
  Result<storage::ExperimentPackage> replay =
      storage::condition(ex.platform->level2(), xml_text, conditioning);
  const double condition_ns = watch.ns();
  const double condition_allocs = watch.allocs();
  if (!replay.ok() || replay.value().database().serialize() != ex.bytes) {
    phase.problems.push_back("condition replay differs from the package");
  }
  trace.add("condition.ns", condition_ns);
  trace.add("condition.build_shards_ns", build_ns);
  trace.add("condition.merge_ns", merge_ns);
  trace.add("condition.allocs", condition_allocs);

  const double runs =
      static_cast<double>(ex.master->completed_runs().size());
  const double runs_ns = ex.execute_s * 1e9 - condition_ns;
  trace.add("master.execute_ns", ex.execute_s * 1e9);
  trace.add("master.runs_ns", runs_ns);
  trace.add("master.run_allocs",
            (ex.execute_allocs - condition_allocs) / std::max(runs, 1.0));
  trace.add("master.aborted_attempts", ex.master->aborted_attempts());
  trace.add("runs", runs);

  const obs::ObsContext& context = *ex.obs;
  const obs::MetricIds& ids = context.ids();
  const double events =
      static_cast<double>(obs_count(context, ids.sched_events_executed));
  trace.add("sim.events_executed", events);
  trace.add("net.sent", obs_count(context, ids.net_sent));
  trace.add("net.delivered", obs_count(context, ids.net_delivered));
  trace.add("net.forwarded", obs_count(context, ids.net_forwarded));
  trace.add("net.dropped", obs_count(context, ids.net_dropped));
  trace.add("net.bytes_sent", obs_count(context, ids.net_bytes_sent));
  trace.add("faults.activations", obs_count(context, ids.fault_activations));
  trace.add("faults.packets_dropped",
            obs_count(context, ids.fault_packets_dropped));

  double level2_events = 0.0;
  double level2_packets = 0.0;
  for (const std::string& node : ex.platform->level2().node_names()) {
    const storage::NodeStore* store = ex.platform->level2().find_node(node);
    level2_events += static_cast<double>(store->events().size());
    level2_packets += static_cast<double>(store->packets().size());
  }
  trace.add("level2.events", level2_events);
  trace.add("level2.packets", level2_packets);
  trace.add("package.bytes", static_cast<double>(ex.bytes.size()));

  // Analysis: the three extraction functions a study calls on a package.
  watch.restart();
  Result<stats::Proportion> responsiveness =
      stats::responsiveness(*ex.package, input.deadline_s, 1);
  Result<std::vector<stats::RunDiscovery>> discoveries =
      stats::discoveries(*ex.package);
  Result<std::vector<stats::RequestResponsePair>> pairs =
      stats::pair_requests(*ex.package);
  trace.add("analysis.ns", watch.ns());
  Result<std::vector<stats::PacketStats>> packets =
      stats::packet_stats(*ex.package);
  if (!responsiveness.ok() || !discoveries.ok() || !pairs.ok() ||
      !packets.ok()) {
    phase.problems.push_back("analysis of the package failed");
    return;
  }
  double sd_messages = 0.0;
  for (const stats::PacketStats& run : packets.value()) {
    sd_messages += static_cast<double>(run.sd_messages);
  }
  trace.add("sd.messages", sd_messages);
  trace.add("sd.request_pairs", static_cast<double>(pairs.value().size()));

  // Repository: store the package under its digest in an empty repository
  // and fetch it back.
  const fs::path probe_dir = tracer.work_dir / "probe-cas";
  fs::remove_all(probe_dir);
  Result<storage::Repository> repository =
      storage::Repository::open(probe_dir.string());
  if (!repository.ok()) {
    phase.problems.push_back("probe repository: " +
                             repository.error().to_string());
    return;
  }
  watch.restart();
  excovery::Status stored =
      repository.value().store_by_hash(digest, *ex.package);
  trace.add("repository.store_ns", watch.ns());
  watch.restart();
  Result<storage::ExperimentPackage> fetched =
      repository.value().fetch_by_hash(digest);
  trace.add("repository.fetch_ns", watch.ns());
  if (!stored.ok() || !fetched.ok() ||
      fetched.value().database().serialize() != ex.bytes) {
    phase.problems.push_back("repository round trip differs from the package");
  }
  fs::remove_all(probe_dir);
}

/// Probes made once per traced run: the control plane, package loading and
/// the run-worker scaling rerun (whose packages must match byte for byte).
void probe_once(const ExperimentInput& input, Execution& ex, Tracer& tracer,
                Phase& phase) {
  LayerTrace& trace = tracer.trace;
  for (const std::string& node : ex.platform->node_names()) {
    rpc::RpcClient client = ex.platform->client(node);
    Stopwatch watch;
    Result<excovery::Value> clock =
        client.call("clock_read", excovery::ValueArray{excovery::ValueMap{}});
    trace.add("rpc.round_trip_ns", watch.ns());
    trace.add("rpc.round_trip_allocs", watch.allocs());
    if (!clock.ok()) phase.problems.push_back("clock_read failed on " + node);
  }
  for (int i = 0; i < 200; ++i) {
    Stopwatch watch;
    rpc::MethodCall call{
        "sd_start_search",
        {excovery::ValueMap{{"type", excovery::Value{"_expservice._udp"}}}}};
    Result<rpc::MethodCall> decoded = rpc::decode_call(rpc::encode(call));
    Result<rpc::MethodResponse> response = rpc::decode_response(
        rpc::encode(rpc::MethodResponse::success(excovery::Value{true})));
    trace.add("rpc.codec_ns", watch.ns());
    if (!decoded.ok() || !response.ok()) {
      phase.problems.push_back("rpc codec round trip failed");
      break;
    }
  }

  Stopwatch watch;
  Result<storage::Database> database = storage::Database::deserialize(ex.bytes);
  std::optional<Result<storage::ExperimentPackage>> loaded;
  if (database.ok()) {
    loaded = storage::ExperimentPackage::from_database(
        std::move(database).value());
  }
  trace.add("package.load_ns", watch.ns());
  if (!loaded || !loaded->ok()) phase.problems.push_back("package load failed");

  // The same experiment at one and at four run workers: identical bytes,
  // and the execute() speed-up of four workers over one.
  ExperimentInput one = input;
  one.run_workers = 1;
  ExperimentInput four = input;
  four.run_workers = 4;
  std::unique_ptr<Execution> sequential = execute(one, nullptr);
  std::unique_ptr<Execution> parallel = execute(four, nullptr);
  if (!sequential->error.empty() || !parallel->error.empty() ||
      sequential->bytes != ex.bytes || parallel->bytes != ex.bytes) {
    phase.problems.push_back(
        "package bytes differ between run_workers 1 and 4");
    return;
  }
  trace.add("master.scaling_4v1", sequential->execute_s / parallel->execute_s);
}

/// All traced probes of one executed experiment.
void probe(const ExperimentInput& input, Execution& ex, Tracer& tracer,
           Phase& phase) {
  probe_execution(input, ex, tracer, phase);
  if (tracer.probed_once) return;
  tracer.probed_once = true;
  probe_once(input, ex, tracer, phase);
}

/// The service front door for workloads that drive the master directly:
/// one service over an empty repository answers a miss and a memory hit,
/// a second service over the same repository a disk hit, and all three
/// serve the executed package.
void probe_service(const ExperimentInput& input, const Execution& ex,
                   Tracer& tracer, Phase& phase) {
  const fs::path dir = tracer.work_dir / "probe-service";
  fs::remove_all(dir);
  Result<storage::Repository> repository =
      storage::Repository::open(dir.string());
  if (!repository.ok()) {
    phase.problems.push_back("probe repository: " +
                             repository.error().to_string());
    return;
  }
  core::Submission submission;
  submission.description = ex.description;
  submission.scope = input.scope;
  submission.run_workers = input.run_workers;
  core::ServiceStats counts;
  bool served_package = true;
  for (int submits : {2, 1}) {
    core::ExperimentService::Config config;
    config.workers = 1;
    config.repository = &repository.value();
    core::ExperimentService service(std::move(config));
    for (int i = 0; i < submits; ++i) {
      const core::ServiceReply reply = service.submit(submission);
      served_package = served_package && reply.package != nullptr &&
                       reply.package->database().serialize() == ex.bytes;
    }
    const core::ServiceStats stats = service.stats();
    counts.memory_hits += stats.memory_hits;
    counts.disk_hits += stats.disk_hits;
    counts.misses += stats.misses;
  }
  if (!served_package || counts.misses != 1 || counts.memory_hits != 1 ||
      counts.disk_hits != 1) {
    phase.problems.push_back("service probe: unexpected replies");
  }
  LayerTrace& trace = tracer.trace;
  trace.add("service.memory_hits", static_cast<double>(counts.memory_hits));
  trace.add("service.disk_hits", static_cast<double>(counts.disk_hits));
  trace.add("service.misses", static_cast<double>(counts.misses));
  fs::remove_all(dir);
}

// ---- workload loops --------------------------------------------------------

using MakeInput = std::function<ExperimentInput(std::uint64_t index)>;

/// Executes experiments back to back until `seconds` have passed, in
/// blocks of `block`; a set-up sample is the set-up time summed over one
/// block.  `setup_only` extra set-ups are measured first.
void run_experiments(const MakeInput& make, int block, int setup_only,
                     double seconds, Phase& phase, Tracer* tracer,
                     std::uint64_t& index) {
  for (int i = 0; i < setup_only; ++i) {
    std::unique_ptr<Execution> ex = execute(make(index++), nullptr, true);
    if (ex->error.empty()) phase.setup_s.push_back(ex->setup_s);
  }
  LayerTrace* trace = tracer != nullptr ? &tracer->trace : nullptr;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    double block_setup_s = 0.0;
    phase.blocks.emplace_back();
    for (int i = 0; i < block; ++i) {
      const ExperimentInput input = make(index++);
      std::unique_ptr<Execution> ex = execute(input, trace);
      block_setup_s += ex->setup_s;
      account(phase, input, *ex);
      if (tracer == nullptr || !ex->error.empty()) continue;
      const bool first = !tracer->probed_once;
      probe(input, *ex, *tracer, phase);
      if (first) probe_service(input, *ex, *tracer, phase);
    }
    phase.setup_s.push_back(block_setup_s);
  } while (now_ns() < deadline);
}

/// One client submits batches to an ExperimentService over a fresh on-disk
/// repository per batch, waiting for each reply.  A set-up sample is the
/// repository open plus service construction.
void run_service(const RunOptions& options, double seconds, Phase& phase,
                 Tracer* tracer, std::uint64_t& batch) {
  LayerTrace* trace = tracer != nullptr ? &tracer->trace : nullptr;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    const std::vector<ExperimentInput> inputs =
        service_batch(options.seed, batch, options.sizes);
    const fs::path dir =
        fs::path(options.work_dir) / ("service-" + std::to_string(batch++));
    fs::remove_all(dir);

    const std::int64_t setup_start = now_ns();
    const double setup_cpu_start = cpu_seconds();
    Result<storage::Repository> opened = storage::Repository::open(dir.string());
    if (!opened.ok()) {
      phase.attempted += inputs.size();
      phase.failed += inputs.size();
      phase.problems.push_back("repository: " + opened.error().to_string());
      return;
    }
    storage::Repository repository = std::move(opened).value();
    core::ExperimentService::Config config;
    config.workers = 1;
    config.memory_cache_capacity = 4;
    config.repository = &repository;
    auto service = std::make_unique<core::ExperimentService>(std::move(config));
    // The client prepares its submissions from the description texts.
    std::vector<std::pair<const ExperimentInput*, core::Submission>> submissions;
    for (const ExperimentInput& input : inputs) {
      Stopwatch watch;
      Result<core::ExperimentDescription> parsed =
          core::ExperimentDescription::parse(input.description_xml);
      if (trace != nullptr) {
        trace->add("xml.parse_ns", watch.ns());
        trace->add("xml.parse_allocs", watch.allocs());
      }
      if (!parsed.ok()) {
        ++phase.attempted;
        ++phase.failed;
        phase.problems.push_back("parse: " + parsed.error().to_string());
        continue;
      }
      core::Submission submission;
      submission.description = std::move(parsed).value();
      submission.scope = input.scope;
      submission.run_workers = input.run_workers;
      submissions.emplace_back(&input, std::move(submission));
    }
    phase.setup_s.push_back(seconds_since(setup_start));
    phase.blocks.emplace_back();
    Block& block = phase.blocks.back();
    block.busy_s = phase.setup_s.back();
    block.cpu_s = cpu_seconds() - setup_cpu_start;

    std::map<std::string, Bytes> first_bytes;  // digest -> simulated package
    for (const auto& [input_ptr, submission] : submissions) {
      const ExperimentInput& input = *input_ptr;
      ++phase.attempted;
      const std::int64_t start = now_ns();
      const double cpu_start = cpu_seconds();
      const core::ServiceReply reply = service->submit(submission);
      const double wall_s = seconds_since(start);
      const double cpu_s = cpu_seconds() - cpu_start;
      if (!reply.status.ok() || reply.package == nullptr) {
        ++phase.failed;
        phase.problems.push_back(std::string(core::to_string(reply.outcome)) +
                                 ": " + reply.status.error().to_string());
        continue;
      }
      const std::size_t runs = reply.package->run_ids().size();
      block.runs += static_cast<double>(runs);
      block.experiments += 1;
      block.busy_s += wall_s;
      block.cpu_s += cpu_s;
      ++phase.experiments;
      phase.runs += runs;
      block.experiment_ms.push_back(wall_s * 1e3);
      phase.experiment_ms.push_back(wall_s * 1e3);
      // A submission's wall time, spread over the runs its package holds.
      phase.run_ms.insert(
          phase.run_ms.end(), runs,
          wall_s * 1e3 / static_cast<double>(std::max<std::size_t>(runs, 1)));

      // The first submission of a digest simulates; every repeat is served
      // from a cache, byte-identical to that simulation.
      Bytes bytes = reply.package->database().serialize();
      if (phase.first_sha256.empty()) phase.first_sha256 = sha256_hex(bytes);
      auto [entry, first] = first_bytes.try_emplace(reply.digest);
      if (first) {
        if (reply.outcome != core::SubmitOutcome::kSimulated) {
          phase.problems.push_back("a new digest was not simulated");
        }
        entry->second = std::move(bytes);
      } else {
        if (reply.outcome != core::SubmitOutcome::kMemoryHit &&
            reply.outcome != core::SubmitOutcome::kDiskHit) {
          phase.problems.push_back("a repeated digest missed the caches");
        }
        if (bytes != entry->second) {
          phase.problems.push_back("a cached package differs from its simulation");
        }
      }
      if (tracer == nullptr || !first) continue;

      // Traced misses are re-executed directly through the master so the
      // layers the service drives internally can be timed; the direct
      // package must equal the served one.
      std::unique_ptr<Execution> ex = execute(input, trace);
      if (!ex->error.empty() || ex->bytes != entry->second) {
        phase.problems.push_back("direct execution differs from the service");
        continue;
      }
      probe(input, *ex, *tracer, phase);
    }
    if (trace != nullptr) {
      const core::ServiceStats counts = service->stats();
      trace->add("service.memory_hits", static_cast<double>(counts.memory_hits));
      trace->add("service.disk_hits", static_cast<double>(counts.disk_hits));
      trace->add("service.misses", static_cast<double>(counts.misses));
    }
    service.reset();
    fs::remove_all(dir);
  } while (now_ns() < deadline);
}

/// Run one workload for `seconds`, continuing the input sequence at `index`.
void run_phase(const RunOptions& options, double seconds, Phase& phase,
               Tracer* tracer, std::uint64_t& index) {
  const Sizes& sizes = options.sizes;
  const std::uint64_t seed = options.seed;
  if (options.workload == "paper-campaign") {
    run_experiments(
        [seed](std::uint64_t i) { return paper_experiment(seed, i); },
        sizes.campaign_block, 0, seconds, phase, tracer, index);
  } else if (options.workload == "sv-sweep") {
    run_experiments(
        [&](std::uint64_t i) { return sweep_experiment(seed, i, sizes); }, 1,
        5, seconds, phase, tracer, index);
  } else if (options.workload == "stress-mesh") {
    run_experiments(
        [&](std::uint64_t i) { return mesh_experiment(seed, i, sizes); }, 1,
        5, seconds, phase, tracer, index);
  } else {
    run_service(options, seconds, phase, tracer, index);
  }
}

// ---- reports ---------------------------------------------------------------

/// Tail percentiles, fixed per workload so that every run and every later
/// commit reports the same statistic.  p90 where a 20 s run has thousands
/// of samples (higher percentiles there mostly measure other tenants of a
/// shared host); otherwise the highest quartile that keeps ten samples
/// beyond it, and the maximum for the dozen stress-mesh experiments.
struct TailPercentiles {
  double run;
  double experiment;
};

TailPercentiles tail_percentiles(const std::string& workload) {
  if (workload == "sv-sweep") return {90.0, 75.0};
  if (workload == "stress-mesh") return {75.0, 100.0};
  // service-mix's p90 falls among the misses' package writes, whose latency
  // on a shared virtual disk measures the other tenants.
  if (workload == "service-mix") return {75.0, 75.0};
  return {90.0, 90.0};  // paper-campaign
}

std::string tail_note(const Tail& t) {
  char text[96];
  std::snprintf(text, sizeof text, "p%g of %zu samples, %zu beyond%s",
                t.percentile, t.samples, t.beyond,
                t.beyond < 10 && t.percentile < 100.0 ? " (fewer than 10!)"
                                                     : "");
  return text;
}

/// Where blocks hold many experiments (paper-campaign, service-mix), the
/// experiments of one block share one stretch of host time, so the tail is
/// taken within each block and the median over blocks is reported: a host
/// stall then spoils a few blocks instead of moving the statistic.
Metric experiment_tail(const Phase& phase, double percentile) {
  std::vector<double> per_block;
  for (const Block& block : phase.blocks) {
    if (block.experiment_ms.size() >= 20) {
      per_block.push_back(tail(block.experiment_ms, percentile).value);
    }
  }
  if (per_block.empty()) {
    const Tail whole = tail(phase.experiment_ms, percentile);
    return {"experiment_tail_ms", whole.value, "ms", tail_note(whole)};
  }
  char note[96];
  std::snprintf(note, sizeof note, "median over %zu blocks of each's p%g",
                per_block.size(), percentile);
  return {"experiment_tail_ms", median(per_block), "ms", note};
}

std::vector<Metric> end_to_end(const std::string& workload,
                               const Phase& phase) {
  const TailPercentiles percentiles = tail_percentiles(workload);
  const Tail run_tail = tail(phase.run_ms, percentiles.run);
  const std::string runs_note = std::to_string(phase.run_ms.size()) + " samples";
  const std::string experiments_note =
      std::to_string(phase.experiment_ms.size()) + " samples";
  return {
      {"setup_s", median(phase.setup_s), "s",
       "median of " + std::to_string(phase.setup_s.size()) + " set-ups"},
      {"runs_per_s", phase.runs_per_s(), "1/s",
       std::to_string(phase.runs) + " runs"},
      {"experiments_per_s", phase.experiments_per_s(), "1/s",
       std::to_string(phase.experiments) + " experiments"},
      {"run_p50_ms", median(phase.run_ms), "ms", runs_note},
      {"run_tail_ms", run_tail.value, "ms", tail_note(run_tail)},
      {"experiment_p50_ms", median(phase.experiment_ms), "ms",
       experiments_note},
      experiment_tail(phase, percentiles.experiment),
      {"peak_rss_mb", peak_rss_mb(), "MB", ""},
      {"cpu_ms_per_run", phase.cpu_ms_per_run(), "ms", ""},
  };
}

std::vector<Metric> per_layer(const std::string& workload,
                              const Phase& untraced, const Phase& traced,
                              const LayerTrace& t) {
  const double runs = std::max(t.sum_of("runs"), 1.0);
  const double aborted = t.sum_of("master.aborted_attempts");
  const double events = t.sum_of("sim.events_executed");
  const double served = t.sum_of("service.memory_hits") +
                        t.sum_of("service.disk_hits") +
                        t.sum_of("service.misses");
  // Throughput the traced run is compared on: experiments for the
  // experiment-bound workloads, runs for the run-bound ones.
  const bool by_experiment =
      workload == "paper-campaign" || workload == "service-mix";
  const double base = by_experiment ? untraced.experiments_per_s()
                                    : untraced.runs_per_s();
  const double traced_rate = by_experiment ? traced.experiments_per_s()
                                           : traced.runs_per_s();
  auto per_run = [&](const char* name) { return t.sum_of(name) / runs; };
  return {
      {"xml.parse_ns", t.median_of("xml.parse_ns"), "ns", ""},
      {"xml.parse_allocs", t.median_of("xml.parse_allocs"), "count", ""},
      {"xml.write_ns", t.median_of("xml.write_ns"), "ns", ""},
      {"canonical.digest_ns", t.median_of("canonical.digest_ns"), "ns", ""},
      {"plan.generate_ns", t.median_of("plan.generate_ns"), "ns", ""},
      {"platform.create_ns", t.median_of("platform.create_ns"), "ns", ""},
      {"platform.create_allocs", t.median_of("platform.create_allocs"),
       "count", ""},
      {"master.execute_ns", t.median_of("master.execute_ns"), "ns", ""},
      {"master.runs_ns", t.median_of("master.runs_ns"), "ns", ""},
      {"master.run_allocs", t.median_of("master.run_allocs"), "count", ""},
      {"master.aborted_attempts", aborted, "count", ""},
      {"master.useful_ratio", runs / (runs + aborted), "ratio", ""},
      {"master.scaling_4v1", t.median_of("master.scaling_4v1"), "ratio", ""},
      {"rpc.round_trip_ns", t.median_of("rpc.round_trip_ns"), "ns", ""},
      {"rpc.round_trip_allocs", t.median_of("rpc.round_trip_allocs"),
       "count", ""},
      {"rpc.codec_ns", t.median_of("rpc.codec_ns"), "ns", ""},
      {"sim.events_executed", events / runs, "count", "per run"},
      {"sim.host_ns_per_event",
       events > 0 ? t.sum_of("master.runs_ns") / events : 0.0, "ns", ""},
      {"net.sent", per_run("net.sent"), "count", "per run"},
      {"net.delivered", per_run("net.delivered"), "count", "per run"},
      {"net.forwarded", per_run("net.forwarded"), "count", "per run"},
      {"net.dropped", per_run("net.dropped"), "count", "per run"},
      {"net.bytes_sent", per_run("net.bytes_sent"), "bytes", "per run"},
      {"faults.activations", per_run("faults.activations"), "count",
       "per run"},
      {"faults.packets_dropped", per_run("faults.packets_dropped"), "count",
       "per run"},
      {"sd.messages_per_run", per_run("sd.messages"), "count", ""},
      {"sd.request_pairs", per_run("sd.request_pairs"), "count", "per run"},
      {"condition.ns", t.median_of("condition.ns"), "ns", ""},
      {"condition.build_shards_ns", t.median_of("condition.build_shards_ns"),
       "ns", ""},
      {"condition.merge_ns", t.median_of("condition.merge_ns"), "ns", ""},
      {"condition.allocs", t.median_of("condition.allocs"), "count", ""},
      {"level2.events_per_run", per_run("level2.events"), "count", ""},
      {"level2.packets_per_run", per_run("level2.packets"), "count", ""},
      {"package.bytes", t.median_of("package.bytes"), "bytes", ""},
      {"package.serialize_ns", t.median_of("package.serialize_ns"), "ns", ""},
      {"package.load_ns", t.median_of("package.load_ns"), "ns", ""},
      {"repository.store_ns", t.median_of("repository.store_ns"), "ns", ""},
      {"repository.fetch_ns", t.median_of("repository.fetch_ns"), "ns", ""},
      {"service.memory_hits", t.sum_of("service.memory_hits"), "count", ""},
      {"service.disk_hits", t.sum_of("service.disk_hits"), "count", ""},
      {"service.misses", t.sum_of("service.misses"), "count", ""},
      {"service.hit_ratio",
       served > 0 ? (served - t.sum_of("service.misses")) / served : 0.0,
       "ratio", ""},
      {"analysis.ns", t.median_of("analysis.ns"), "ns", ""},
      {"trace.runs_per_s", traced.runs_per_s(), "1/s",
       "untraced " + std::to_string(untraced.runs_per_s())},
      {"trace.experiments_per_s", traced.experiments_per_s(), "1/s",
       "untraced " + std::to_string(untraced.experiments_per_s())},
      {"trace.overhead", base > 0 ? 1.0 - traced_rate / base : 0.0, "ratio",
       by_experiment ? "on experiments_per_s" : "on runs_per_s"},
  };
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-campaign", "sv-sweep", "stress-mesh", "service-mix"};
  return names;
}

bool known_workload(const std::string& name) {
  const std::vector<std::string>& names = workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

Report run_workload(const RunOptions& options) {
  fs::create_directories(options.work_dir);
  std::uint64_t index = 0;
  Phase untraced;
  Phase traced;
  Tracer tracer;
  tracer.work_dir = options.work_dir;
  run_phase(options, options.trace ? options.seconds / 2 : options.seconds,
            untraced, nullptr, index);
  if (options.trace) {
    set_alloc_counting(true);
    run_phase(options, options.seconds / 2, traced, &tracer, index);
    set_alloc_counting(false);
  }

  Report report;
  for (const Phase* phase : {&untraced, &traced}) {
    report.attempted += phase->attempted;
    report.failed += phase->failed;
    report.problems.insert(report.problems.end(), phase->problems.begin(),
                           phase->problems.end());
  }
  report.metrics =
      options.trace
          ? per_layer(options.workload, untraced, traced, tracer.trace)
          : end_to_end(options.workload, untraced);
  report.package_sha256 = untraced.first_sha256;
  return report;
}

}  // namespace campaignbench
