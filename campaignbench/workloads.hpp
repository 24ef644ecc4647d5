// The four workloads of the campaign benchmark, their output checks and the
// traced run that times each layer's public calls (see README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace campaignbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, tracing off.  true: half the time untraced,
  /// half traced; per-layer metrics plus the tracing overhead.
  bool trace = false;
  Sizes sizes;
  std::string work_dir;  ///< scratch directory for on-disk repositories
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value, e.g. the tail percentile
};

struct Report {
  std::uint64_t attempted = 0;  ///< runs (service-mix: submissions)
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< failed output checks
  std::string package_sha256;  ///< of the first package, for information
  bool correct() const { return failed == 0 && problems.empty(); }
};

/// paper-campaign, sv-sweep, stress-mesh, service-mix.
const std::vector<std::string>& workload_names();
bool known_workload(const std::string& name);

Report run_workload(const RunOptions& options);

}  // namespace campaignbench
