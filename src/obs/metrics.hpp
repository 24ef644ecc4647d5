// Runtime metrics for the experiment machinery itself (DESIGN.md §11).
//
// ExCovery's measurement promise (§IV-A of the paper) covers the system
// under test; this registry turns the same discipline onto the execution
// engine: scheduler dispatch, network fan-out, run retries and storage
// conditioning all report here instead of being runtime black boxes.
//
// Shape: a shared MetricsRegistry interns metric names to dense ids (cold
// path, mutex-protected); each platform instance — the master's own, or a
// run-parallel worker replica — records into its private MetricsShard with
// plain unsynchronised increments (hot path, lock-free by ownership).
// Shards merge by commutative reduction (counter/bin sums, gauge maxima),
// so as long as every increment is attributable to one run — and each run
// is a pure function of (description, config, run id, attempt), the
// DESIGN.md §10 invariant — the merged deterministic-domain values are
// bit-identical across `run_workers` and across which worker claimed which
// run.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace excovery::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Determinism contract of a metric (DESIGN.md §11).
enum class MetricDomain : std::uint8_t {
  /// Pure function of the experiment: bit-identical across worker counts.
  kDeterministic,
  /// Simulated-time derived but instance-dependent (e.g. the scheduler's
  /// pending high-water mark, kept since the platform instance was built:
  /// it covers every run that instance executed, so a shared instance and
  /// a fresh worker replica report different peaks).
  kBestEffort,
  /// Wall-clock measurement: never deterministic, never exported into
  /// result packages.
  kWall,
};

std::string_view to_string(MetricKind kind) noexcept;
std::string_view to_string(MetricDomain domain) noexcept;

/// Dense metric identifier, valid within one registry.
struct MetricId {
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;
  std::uint32_t index = kInvalid;
  bool valid() const noexcept { return index != kInvalid; }
};

struct MetricDesc {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  MetricDomain domain = MetricDomain::kDeterministic;
  std::string unit;
};

/// Name-interning registry shared by every shard of one execution.
/// Registration is idempotent: re-registering a name returns the existing
/// id, so lazily instrumented code paths agree on indices.
class MetricsRegistry {
 public:
  MetricId counter(std::string_view name,
                   MetricDomain domain = MetricDomain::kDeterministic,
                   std::string_view unit = "");
  MetricId gauge(std::string_view name,
                 MetricDomain domain = MetricDomain::kDeterministic,
                 std::string_view unit = "");
  /// Histograms bin by power of two (bin b covers [2^(b-16), 2^(b-15)),
  /// clamped to 64 bins), which spans sub-microsecond to multi-hour values
  /// without choosing bounds up front.
  MetricId log_histogram(std::string_view name,
                         MetricDomain domain = MetricDomain::kDeterministic,
                         std::string_view unit = "");

  /// Snapshot of all descriptors, indexed by MetricId.
  std::vector<MetricDesc> descriptors() const;
  std::size_t size() const;

 private:
  MetricId intern(std::string_view name, MetricKind kind, MetricDomain domain,
                  std::string_view unit);

  mutable std::mutex mutex_;
  std::vector<MetricDesc> descs_;
};

/// Number of cells in a log-scale histogram.
inline constexpr std::size_t kLogBins = 64;
/// Bin index of value 1.0 in a log-scale histogram (exponent offset).
inline constexpr int kLogBinOffset = 16;

/// One metric's recorded state inside a shard.
struct MetricCell {
  std::uint64_t count = 0;  ///< counter value / histogram observation count
  std::uint64_t nan_count = 0;  ///< histogram observations that were NaN
  std::int64_t gauge_last = 0;
  std::int64_t gauge_max = std::numeric_limits<std::int64_t>::min();
  bool gauge_set = false;
  /// Correctly-rounded sum of the observed values — a pure function of the
  /// observed multiset, independent of observation and merge order (see
  /// sum_parts).  Histogram sums cross shard merges whose partitioning
  /// depends on which worker claimed which run, so naive `sum += value`
  /// accumulation would make the last ulp timing-dependent.
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  /// Non-overlapping partials representing the exact sum (Shewchuk
  /// grow-expansion, the algorithm behind Python's math.fsum); `sum` is
  /// this expansion correctly rounded.
  std::vector<double> sum_parts;
  /// Histogram observations per log-scale bin (kLogBins cells).
  std::vector<std::uint64_t> bins;
};

/// Per-instance recording surface.  NOT thread-safe: each shard has exactly
/// one owning thread on the hot path (the platform instance that records
/// into it); cross-shard aggregation happens through merge_from after the
/// owner is done.
class MetricsShard {
 public:
  explicit MetricsShard(const MetricsRegistry* registry)
      : registry_(registry) {}

  void add(MetricId id, std::uint64_t n = 1);
  void set_gauge(MetricId id, std::int64_t value);
  void observe(MetricId id, double value);

  /// Commutative merge: counter/bin sums, gauge maxima, min/max envelopes.
  /// The result is independent of merge order and of how increments were
  /// partitioned across shards.
  void merge_from(const MetricsShard& other);

  const MetricCell* cell(MetricId id) const noexcept;
  const MetricsRegistry* registry() const noexcept { return registry_; }

 private:
  MetricCell& ensure(MetricId id);

  const MetricsRegistry* registry_;
  std::vector<MetricCell> cells_;
};

/// Bin index for a value in a log-scale histogram.
std::size_t log_bin(double value) noexcept;
/// Lower bound of a log-scale bin (inverse of log_bin).
double log_bin_lower(std::size_t bin) noexcept;

}  // namespace excovery::obs
