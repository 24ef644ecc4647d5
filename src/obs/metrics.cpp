#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace excovery::obs {

std::string_view to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

std::string_view to_string(MetricDomain domain) noexcept {
  switch (domain) {
    case MetricDomain::kDeterministic: return "deterministic";
    case MetricDomain::kBestEffort: return "best-effort";
    case MetricDomain::kWall: return "wall";
  }
  return "?";
}

MetricId MetricsRegistry::intern(std::string_view name, MetricKind kind,
                                 MetricDomain domain, std::string_view unit) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < descs_.size(); ++i) {
    if (descs_[i].name == name) {
      return MetricId{static_cast<std::uint32_t>(i)};
    }
  }
  MetricDesc desc;
  desc.name = std::string(name);
  desc.kind = kind;
  desc.domain = domain;
  desc.unit = std::string(unit);
  descs_.push_back(std::move(desc));
  return MetricId{static_cast<std::uint32_t>(descs_.size() - 1)};
}

MetricId MetricsRegistry::counter(std::string_view name, MetricDomain domain,
                                  std::string_view unit) {
  return intern(name, MetricKind::kCounter, domain, unit);
}

MetricId MetricsRegistry::gauge(std::string_view name, MetricDomain domain,
                                std::string_view unit) {
  return intern(name, MetricKind::kGauge, domain, unit);
}

MetricId MetricsRegistry::log_histogram(std::string_view name,
                                        MetricDomain domain,
                                        std::string_view unit) {
  return intern(name, MetricKind::kHistogram, domain, unit);
}

std::vector<MetricDesc> MetricsRegistry::descriptors() const {
  std::lock_guard lock(mutex_);
  return descs_;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return descs_.size();
}

std::size_t log_bin(double value) noexcept {
  if (!(value > 0.0)) return 0;  // non-positive (and NaN callers pre-filter)
  int exponent = std::ilogb(value);
  long bin = static_cast<long>(exponent) + kLogBinOffset;
  if (bin < 0) return 0;
  if (bin >= static_cast<long>(kLogBins)) return kLogBins - 1;
  return static_cast<std::size_t>(bin);
}

double log_bin_lower(std::size_t bin) noexcept {
  return std::ldexp(1.0, static_cast<int>(bin) - kLogBinOffset);
}

namespace {

/// Fold `value` into the non-overlapping expansion `partials` exactly
/// (Shewchuk grow-expansion).  Non-finite values are kept as a single
/// saturating slot: ±inf and inf-inf=NaN are order-invariant anyway, and
/// letting them enter the two-sum would poison the partials with NaNs.
void accumulate_exact(std::vector<double>& partials, double value) {
  if (!std::isfinite(value)) {
    if (partials.empty() || std::isfinite(partials.front())) {
      partials.insert(partials.begin(), value);
    } else {
      partials.front() += value;
    }
    return;
  }
  std::size_t begin = partials.empty() || std::isfinite(partials.front())
                          ? 0
                          : 1;
  std::size_t used = begin;
  for (std::size_t i = begin; i < partials.size(); ++i) {
    double p = partials[i];
    if (std::abs(value) < std::abs(p)) std::swap(value, p);
    const double hi = value + p;
    const double lo = p - (hi - value);
    if (lo != 0.0) partials[used++] = lo;
    value = hi;
  }
  partials.resize(used);
  partials.push_back(value);  // ascending magnitude, largest last
}

/// Correctly-rounded value of the expansion: the partials are summed from
/// the largest down, with the half-ulp tie broken by the sign of the next
/// partial (as in CPython's math.fsum), so the result only depends on the
/// exact real value the expansion represents.
double round_expansion(const std::vector<double>& partials) {
  const double inf_part =
      !partials.empty() && !std::isfinite(partials.front())
          ? partials.front()
          : 0.0;
  const std::size_t begin = inf_part != 0.0 || std::isnan(inf_part) ? 1 : 0;
  std::size_t n = partials.size();
  double hi = 0.0;
  if (n > begin) {
    double lo = 0.0;
    hi = partials[--n];
    while (n > begin) {
      const double x = hi;
      const double y = partials[--n];
      hi = x + y;
      const double yr = hi - x;
      lo = y - yr;
      if (lo != 0.0) break;
    }
    if (n > begin && ((lo < 0.0 && partials[n - 1] < 0.0) ||
                      (lo > 0.0 && partials[n - 1] > 0.0))) {
      const double y = lo * 2.0;
      const double x = hi + y;
      if (y == x - hi) hi = x;
    }
  }
  if (begin != 0) return inf_part + hi;
  return hi;
}

}  // namespace

MetricCell& MetricsShard::ensure(MetricId id) {
  if (id.index >= cells_.size()) cells_.resize(id.index + 1);
  return cells_[id.index];
}

const MetricCell* MetricsShard::cell(MetricId id) const noexcept {
  if (!id.valid() || id.index >= cells_.size()) return nullptr;
  return &cells_[id.index];
}

void MetricsShard::add(MetricId id, std::uint64_t n) {
  if (!id.valid()) return;
  ensure(id).count += n;
}

void MetricsShard::set_gauge(MetricId id, std::int64_t value) {
  if (!id.valid()) return;
  MetricCell& cell = ensure(id);
  cell.gauge_last = value;
  cell.gauge_max = std::max(cell.gauge_max, value);
  cell.gauge_set = true;
}

void MetricsShard::observe(MetricId id, double value) {
  if (!id.valid()) return;
  MetricCell& cell = ensure(id);
  if (std::isnan(value)) {
    ++cell.nan_count;
    return;
  }
  ++cell.count;
  accumulate_exact(cell.sum_parts, value);
  cell.sum = round_expansion(cell.sum_parts);
  cell.min = std::min(cell.min, value);
  cell.max = std::max(cell.max, value);
  if (cell.bins.empty()) cell.bins.resize(kLogBins, 0);
  ++cell.bins[log_bin(value)];
}

void MetricsShard::merge_from(const MetricsShard& other) {
  if (other.cells_.size() > cells_.size()) {
    cells_.resize(other.cells_.size());
  }
  for (std::size_t i = 0; i < other.cells_.size(); ++i) {
    const MetricCell& src = other.cells_[i];
    MetricCell& dst = cells_[i];
    dst.count += src.count;
    dst.nan_count += src.nan_count;
    if (src.gauge_set) {
      dst.gauge_max = std::max(dst.gauge_max, src.gauge_max);
      // `last` has no cross-shard meaning; keep the maximum so the merged
      // value stays partition-invariant.
      dst.gauge_last = dst.gauge_max;
      dst.gauge_set = true;
    }
    // Fold the source expansion in exactly: the merged sum stays a pure
    // function of the observed multiset no matter how observations were
    // partitioned across shards or in which order shards merge.
    for (double part : src.sum_parts) {
      accumulate_exact(dst.sum_parts, part);
    }
    if (!src.sum_parts.empty()) {
      dst.sum = round_expansion(dst.sum_parts);
    }
    dst.min = std::min(dst.min, src.min);
    dst.max = std::max(dst.max, src.max);
    if (!src.bins.empty()) {
      if (dst.bins.size() < src.bins.size()) dst.bins.resize(src.bins.size());
      for (std::size_t b = 0; b < src.bins.size(); ++b) {
        dst.bins[b] += src.bins[b];
      }
    }
  }
}

}  // namespace excovery::obs
