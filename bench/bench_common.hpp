// Shared helpers for the benches: build a scenario, run it on a fresh
// simulated platform, return the conditioned package; and the harness the
// perf binaries share (statistics, clocks, flags, the curated JSON format).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/master.hpp"
#include "core/scenario.hpp"
#include "net/topology.hpp"
#include "stats/analysis.hpp"

namespace excovery::bench {

struct Executed {
  core::ExperimentDescription description;
  std::unique_ptr<core::SimPlatform> platform;
  storage::ExperimentPackage package;
};

inline Result<Executed> execute_description(
    core::ExperimentDescription description, std::uint64_t platform_seed = 42,
    const core::scenario::TopologyOptions& topology_options = {},
    core::MasterOptions master_options = {}) {
  EXC_ASSIGN_OR_RETURN(net::Topology topology,
                       core::scenario::topology_for(description,
                                                    topology_options));
  core::SimPlatformConfig config;
  config.topology = std::move(topology);
  config.seed = platform_seed;
  EXC_ASSIGN_OR_RETURN(
      std::unique_ptr<core::SimPlatform> platform,
      core::SimPlatform::create(description, std::move(config)));
  core::ExperiMaster master(description, *platform,
                            std::move(master_options));
  EXC_ASSIGN_OR_RETURN(storage::ExperimentPackage package, master.execute());
  return Executed{std::move(description), std::move(platform),
                  std::move(package)};
}

inline Result<Executed> execute(
    const core::scenario::TwoPartyOptions& options,
    std::uint64_t platform_seed = 42,
    const core::scenario::TopologyOptions& topology_options = {},
    core::MasterOptions master_options = {}) {
  EXC_ASSIGN_OR_RETURN(core::ExperimentDescription description,
                       core::scenario::two_party_sd(options));
  return execute_description(std::move(description), platform_seed,
                             topology_options, std::move(master_options));
}

/// Abort the bench with a readable message on error.
template <typename T>
T must(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.error().to_string().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

inline void banner(const char* artifact, const char* paper_content) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", artifact);
  std::printf("paper artifact: %s\n", paper_content);
  std::printf("==============================================================="
              "=\n");
}

// ---- perf-binary harness ---------------------------------------------------

/// Median of a non-empty sample (mean of the middle two for an even count).
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Process CPU seconds.  Unlike the wall clock it is not charged for time
/// the host spent preempted, the dominant noise source on a shared host at
/// the few-percent resolution the overhead gates need.
inline double cpu_seconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline std::string today() {
  std::time_t now = std::time(nullptr);
  char buffer[32];
  std::strftime(buffer, sizeof buffer, "%Y-%m-%d", std::localtime(&now));
  return buffer;
}

/// An ideal link with no loss and no jitter: the kernel workloads measure
/// the packet path, not the link model.
inline net::LinkModel lossless_link() {
  net::LinkModel model = net::LinkModel::ideal();
  model.loss = 0.0;
  model.jitter_frac = 0.0;
  return model;
}

/// The command line every curated-format perf binary takes:
///   --smoke     small sizes and WARN-only gates (the CI smoke step)
///   --reps N    repetitions
///   --out PATH  override the JSON output path
struct Flags {
  bool smoke = false;
  int reps = 0;
  std::string out;
  bool out_explicit = false;  ///< --out was given
};

/// Parse the flags above; prints usage and exits 2 on anything else,
/// including a repetition count below 1.
inline Flags parse_flags(int argc, char** argv, int reps, int smoke_reps,
                         std::string out) {
  auto usage = [argv] {
    std::fprintf(stderr, "usage: %s [--smoke] [--reps N>=1] [--out PATH]\n",
                 argv[0]);
    std::exit(2);
  };
  Flags flags;
  flags.reps = reps;
  flags.out = std::move(out);
  bool reps_explicit = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      flags.smoke = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      flags.reps = std::atoi(argv[++i]);
      reps_explicit = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      flags.out = argv[++i];
      flags.out_explicit = true;
    } else {
      usage();
    }
  }
  if (flags.reps < 1) usage();
  if (flags.smoke && !reps_explicit) flags.reps = smoke_reps;
  return flags;
}

/// One entry of the curated result format bench/collect_bench.py renders:
/// a benchmark name and its members as (key, JSON value text) pairs.
struct CuratedEntry {
  std::string name;
  std::vector<std::pair<std::string, std::string>> members;
};

/// Write the curated format to `path`.  `description` is JSON string
/// content (already escaped).  Returns false if the file cannot be written.
inline bool write_curated(const std::string& path,
                          const std::string& description,
                          const std::vector<CuratedEntry>& entries) {
  std::string json = "{\n \"description\": \"" + description + "\",\n";
  json += " \"machine\": \"vm\",\n";
  json += " \"date\": \"" + today() + "\",\n";
  json += " \"benchmarks\": {\n";
  for (std::size_t e = 0; e < entries.size(); ++e) {
    json += "  \"" + entries[e].name + "\": {\n";
    for (std::size_t m = 0; m < entries[e].members.size(); ++m) {
      const auto& [key, value] = entries[e].members[m];
      json += "   \"" + key + "\": " + value;
      json += m + 1 < entries[e].members.size() ? ",\n" : "\n";
    }
    json += e + 1 < entries.size() ? "  },\n" : "  }\n";
  }
  json += " }\n}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), file) ==
                  json.size();
  if (std::fclose(file) != 0 || !ok) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace excovery::bench
