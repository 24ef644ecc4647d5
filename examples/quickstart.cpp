// Quickstart: describe, execute and analyse a minimal service discovery
// experiment — one publisher (SM), one requester (SU), two bystander nodes,
// five replications on a simulated wireless mesh.
//
//   $ ./quickstart [--run-workers N] [--log-level LEVEL]
//                  [--trace-out FILE] [--metrics-out FILE]
//                  [--provenance-out FILE] [--packet-trace]
//                  [--cache] [--repo DIR]
//
// --run-workers N executes the treatment plan's runs on N parallel platform
// replicas (0 = hardware concurrency); the conditioned package is
// bit-identical to the sequential default (DESIGN.md §10).
//
// --cache routes execution through the memoizing ExperimentService
// (DESIGN.md §14): the campaign is submitted twice and the second
// submission is answered from the result cache — byte-identical to the
// simulated package and orders of magnitude faster.  --repo DIR (implies
// --cache) additionally persists results in a content-addressed on-disk
// repository, so re-running the program with the same DIR starts with a
// warm cache and never simulates at all.
//
// --log-level sets the global log threshold (trace|debug|info|warn|error).
// --trace-out writes a Chrome/Perfetto trace_event JSON file with a wall
// track (workers, conditioning) and a simulated-time track (runs, and with
// --packet-trace per-packet lifecycles); open it in https://ui.perfetto.dev.
// --metrics-out writes the runtime metrics (counters, histograms and the
// per-run ledger) as JSON.
// --provenance-out writes each run's discovery critical paths — which query
// round, retransmission or cache hop produced every sd_service_add, with
// per-edge simulated latencies — as JSON (DESIGN.md §16).  All
// observability is out-of-band: the package bytes are identical with and
// without these flags (DESIGN.md §11).
//
// The program walks the full ExCovery workflow (Fig. 3 of the paper):
//   1. build the abstract experiment description (Fig. 9/10 processes),
//   2. set up the simulated platform,
//   3. execute the treatment plan with the ExperiMaster,
//   4. collect + condition measurements into a level-3 package,
//   5. query the package: responsiveness and the run-1 event timeline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common/log.hpp"
#include "core/master.hpp"
#include "core/scenario.hpp"
#include "core/service.hpp"
#include "obs/obs.hpp"
#include "stats/analysis.hpp"
#include "storage/repository.hpp"

using namespace excovery;

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--run-workers N] [--log-level "
               "trace|debug|info|warn|error]\n"
               "          [--trace-out FILE] [--metrics-out FILE] "
               "[--provenance-out FILE]\n"
               "          [--packet-trace] [--cache] [--repo DIR]\n",
               prog);
  return 2;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  core::MasterOptions master_options;
  std::string trace_out;
  std::string metrics_out;
  std::string provenance_out;
  bool packet_trace = false;
  bool cache_mode = false;
  std::string repo_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cache") == 0) {
      cache_mode = true;
    } else if (std::strcmp(argv[i], "--repo") == 0 && i + 1 < argc) {
      repo_dir = argv[++i];
      cache_mode = true;  // a repository only makes sense with the service
    } else if (std::strcmp(argv[i], "--run-workers") == 0 && i + 1 < argc) {
      master_options.run_workers =
          static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--log-level") == 0 && i + 1 < argc) {
      Result<LogLevel> level = parse_log_level(argv[++i]);
      if (!level.ok()) {
        std::fprintf(stderr, "--log-level: %s\n",
                     level.error().to_string().c_str());
        return 2;
      }
      Logger::instance().set_level(level.value());
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--provenance-out") == 0 &&
               i + 1 < argc) {
      provenance_out = argv[++i];
    } else if (std::strcmp(argv[i], "--packet-trace") == 0) {
      packet_trace = true;
    } else {
      return usage(argv[0]);
    }
  }

  // Observability: attach a context whenever any output was requested (a
  // context costs nothing measurable and never changes the package bytes).
  obs::ObsConfig obs_config;
  obs_config.trace = !trace_out.empty();
  obs_config.packet_trace = packet_trace;
  obs::ObsContext obs(obs_config);
  master_options.obs = &obs;

  // 1. The experiment description.  scenario::two_party_sd builds exactly
  //    the SM/SU processes of the paper's Figures 9 and 10.
  core::scenario::TwoPartyOptions options;
  options.sm_count = 1;
  options.su_count = 1;
  options.environment_count = 2;
  options.replications = 5;
  options.deadline_s = 30.0;  // the SU's search deadline (Fig. 10)

  Result<core::ExperimentDescription> description =
      core::scenario::two_party_sd(options);
  if (!description.ok()) {
    std::fprintf(stderr, "description: %s\n",
                 description.error().to_string().c_str());
    return 1;
  }
  std::printf("=== experiment description (excerpt) ===\n%.1200s...\n\n",
              description.value().to_xml_text().c_str());

  // The analysis below works on whichever package the chosen execution
  // path produced; these two keep it alive.
  std::optional<storage::ExperimentPackage> direct_package;
  std::shared_ptr<const storage::ExperimentPackage> cached_package;
  const storage::ExperimentPackage* result = nullptr;

  // Repository must outlive the service that stores into it.
  std::optional<storage::Repository> repository;

  if (cache_mode) {
    // 2-4 via the memoizing experiment service (DESIGN.md §14): submit the
    // identical campaign twice.  The first submission misses (or, with a
    // warm --repo directory, hits the disk CAS); the second is served from
    // the in-memory cache.
    if (!repo_dir.empty()) {
      Result<storage::Repository> opened = storage::Repository::open(repo_dir);
      if (!opened.ok()) {
        std::fprintf(stderr, "repo: %s\n",
                     opened.error().to_string().c_str());
        return 1;
      }
      repository = std::move(opened).value();
    }
    core::ExperimentService::Config service_config;
    service_config.workers = 1;
    service_config.repository = repository ? &*repository : nullptr;
    service_config.obs = &obs;
    core::ExperimentService service(std::move(service_config));

    core::Submission submission;
    submission.description = description.value();
    submission.scope.platform_seed = 2026;
    submission.run_workers = master_options.run_workers;

    std::printf("=== experiment service ===\ncampaign digest: %s\n",
                submission.digest().c_str());
    const auto start_first = std::chrono::steady_clock::now();
    core::ServiceReply first = service.submit(submission);
    const double first_ms = ms_since(start_first);
    if (!first.status.ok()) {
      std::fprintf(stderr, "submit: %s\n",
                   first.status.error().to_string().c_str());
      return 1;
    }
    const auto start_second = std::chrono::steady_clock::now();
    core::ServiceReply second = service.submit(submission);
    const double second_ms = ms_since(start_second);
    if (!second.status.ok()) {
      std::fprintf(stderr, "submit: %s\n",
                   second.status.error().to_string().c_str());
      return 1;
    }

    std::printf("submission 1: %-10s %10.3f ms\n",
                std::string(core::to_string(first.outcome)).c_str(),
                first_ms);
    std::printf("submission 2: %-10s %10.3f ms  (%.0fx faster)\n",
                std::string(core::to_string(second.outcome)).c_str(),
                second_ms, second_ms > 0 ? first_ms / second_ms : 0.0);
    const bool identical = first.package->database().serialize() ==
                           second.package->database().serialize();
    std::printf("cached == fresh bytes: %s\n",
                identical ? "identical" : "DIFFERENT (bug!)");
    const core::ServiceStats stats = service.stats();
    std::printf(
        "stats: %llu memory hit(s), %llu disk hit(s), %llu miss(es), "
        "%llu simulation(s)\n",
        static_cast<unsigned long long>(stats.memory_hits),
        static_cast<unsigned long long>(stats.disk_hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.simulations));
    if (repository) {
      std::printf("repository %s: %zu content-addressed package(s)\n",
                  repo_dir.c_str(), repository->cas_size());
    }
    std::printf("\n");
    cached_package = std::move(second.package);
    result = cached_package.get();
  } else {
    // 2. Platform setup: a full-mesh topology containing every node the
    //    description names, with imperfect per-node clocks.
    Result<net::Topology> topology =
        core::scenario::topology_for(description.value(), {});
    if (!topology.ok()) {
      std::fprintf(stderr, "topology: %s\n",
                   topology.error().to_string().c_str());
      return 1;
    }
    core::SimPlatformConfig config;
    config.topology = std::move(topology).value();
    config.seed = 2026;
    Result<std::unique_ptr<core::SimPlatform>> platform =
        core::SimPlatform::create(description.value(), std::move(config));
    if (!platform.ok()) {
      std::fprintf(stderr, "platform: %s\n",
                   platform.error().to_string().c_str());
      return 1;
    }

    // 3 + 4. Execute all runs and condition the results.  With
    //    --run-workers > 1 the runs execute in parallel on platform
    //    replicas; the package bytes do not change.
    core::ExperiMaster master(description.value(), *platform.value(),
                              std::move(master_options));
    std::printf("=== treatment plan ===\n%s\n",
                master.plan().format().c_str());
    Result<storage::ExperimentPackage> package = master.execute();
    if (!package.ok()) {
      std::fprintf(stderr, "execution: %s\n",
                   package.error().to_string().c_str());
      return 1;
    }
    direct_package = std::move(package).value();
    result = &*direct_package;
  }

  // 5. Analysis: responsiveness and the event timeline of run 1.
  Result<stats::Proportion> responsiveness =
      stats::responsiveness(*result, 5.0, 1);
  if (responsiveness.ok()) {
    std::printf(
        "responsiveness(deadline=5s): %.2f  [wilson 95%%: %.2f..%.2f]  "
        "(%zu/%zu runs)\n\n",
        responsiveness.value().estimate, responsiveness.value().lower,
        responsiveness.value().upper, responsiveness.value().successes,
        responsiveness.value().trials);
  }

  std::printf("=== run 1 timeline ===\n");
  Result<std::vector<storage::EventRow>> events = result->events(1);
  if (events.ok()) {
    for (const storage::EventRow& event : events.value()) {
      std::printf("%10.6fs  %-12s %-22s %s\n", event.common_time,
                  event.node_id.c_str(), event.event_type.c_str(),
                  event.parameter.c_str());
    }
  }
  std::printf("\npackage: %zu events, %zu packets across %zu runs\n",
              result->event_count(), result->packet_count(),
              result->run_ids().size());

  // Observability exports: runtime metrics and the dual-track trace.
  std::printf("\n=== runtime metrics (deterministic domain, excerpt) ===\n");
  std::string deterministic = obs.format_deterministic_metrics();
  std::fwrite(deterministic.data(), 1,
              std::min<std::size_t>(deterministic.size(), 2000), stdout);
  if (deterministic.size() > 2000) std::printf("...\n");
  if (!metrics_out.empty()) {
    Status written = obs.write_metrics_json(metrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics-out: %s\n",
                   written.error().to_string().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!provenance_out.empty()) {
    Status written = obs.write_provenance_json(provenance_out);
    if (!written.ok()) {
      std::fprintf(stderr, "provenance-out: %s\n",
                   written.error().to_string().c_str());
      return 1;
    }
    std::printf("provenance written to %s (%zu critical-path step(s))\n",
                provenance_out.c_str(), obs.provenance().size());
  }
  if (!trace_out.empty()) {
    Status written = obs.trace().write_json(trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "trace-out: %s\n",
                   written.error().to_string().c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu events) — open in "
                "https://ui.perfetto.dev\n",
                trace_out.c_str(), obs.trace().size());
  }
  return 0;
}
