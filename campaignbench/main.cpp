// End-to-end campaign benchmark (see README.md).
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//   campaign_bench --smoke [--seed N] [--work-dir DIR]
//
// NAME is paper-campaign, sv-sweep, stress-mesh or service-mix.  With
// --trace 0 the workload runs untraced for S seconds and every end-to-end
// metric is printed; with --trace 1 it runs S/2 seconds untraced and S/2
// traced, and the per-layer metrics plus the tracing overhead are printed.
// The last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 1 when any output check failed.
//
// --smoke runs every workload at a tiny size, untraced and traced, with all
// output checks on, and exits 1 if any of them fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/log.hpp"
#include "measure.hpp"
#include "workloads.hpp"

using namespace campaignbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: campaign_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n"
               "       campaign_bench --smoke [--seed N] [--work-dir DIR]\n"
               "workloads: paper-campaign sv-sweep stress-mesh service-mix\n");
  return 2;
}

void print_report(const RunOptions& options, const Report& report) {
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const Metric& metric : report.metrics) {
    std::printf("  %-26s %16.6f %-6s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }
  std::printf("  failed_fraction %.6f (%llu of %llu attempted)\n",
              report.attempted > 0
                  ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                  : 0.0,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("  package sha256 (first experiment): %s\n",
              report.package_sha256.c_str());
  for (const std::string& problem : report.problems) {
    std::printf("  CHECK FAILED: %s\n", problem.c_str());
  }
}

std::string result_json(const Report& report) {
  JsonObject metrics;
  for (const Metric& metric : report.metrics) {
    metrics.object(metric.name, JsonObject()
                                    .number("value", metric.value)
                                    .string("unit", metric.unit));
  }
  return JsonObject()
      .boolean("correct", report.correct())
      .integer("attempted", report.attempted)
      .integer("failed", report.failed)
      .object("metrics", metrics)
      .str();
}

int smoke(RunOptions options) {
  options.sizes = smoke_sizes();
  options.seconds = 0.2;
  bool ok = true;
  for (const std::string& workload : workload_names()) {
    for (bool trace : {false, true}) {
      options.workload = workload;
      options.trace = trace;
      const Report report = run_workload(options);
      print_report(options, report);
      ok = ok && report.correct();
    }
  }
  std::printf("smoke: %s\n", ok ? "all checks passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.work_dir = "campaign-bench-work";
  bool smoke_mode = false;
  bool have_workload = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--smoke") == 0) {
      smoke_mode = true;
    } else if (std::strcmp(arg, "--workload") == 0 && has_value) {
      options.workload = argv[++i];
      have_workload = known_workload(options.workload);
      if (!have_workload) return usage();
    } else if (std::strcmp(arg, "--seed") == 0 && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--seconds") == 0 && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = options.seconds > 0;
      if (!have_seconds) return usage();
    } else if (std::strcmp(arg, "--trace") == 0 && has_value) {
      const std::string value = argv[++i];
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else if (std::strcmp(arg, "--work-dir") == 0 && has_value) {
      options.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  // Aborted attempts are counted by the benchmark; their warnings would only
  // interleave with the report.
  excovery::Logger::instance().set_level(excovery::LogLevel::kError);
  if (smoke_mode) return smoke(options);
  if (!have_workload || !have_seconds) return usage();

  options.sizes = full_sizes();
  const Report report = run_workload(options);
  print_report(options, report);
  std::printf("%s\n", result_json(report).c_str());
  return report.correct() ? 0 : 1;
}
