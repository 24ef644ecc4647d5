// Measurement helpers of the campaign benchmark: clocks, heap-allocation
// counting, process CPU and peak RSS, order statistics with the "ten
// samples beyond" tail rule, and a small JSON object writer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace campaignbench {

/// Monotonic wall clock in nanoseconds.
std::int64_t now_ns();

/// Process user + system CPU time in seconds (all threads).
double cpu_seconds();

/// Peak resident set size of the process in MiB.
double peak_rss_mb();

/// Heap allocations are counted (by a replacement global operator new) only
/// while counting is on; the untraced run leaves it off.
void set_alloc_counting(bool on);
std::uint64_t alloc_count();

/// Wall time and allocations since construction or the last restart().
class Stopwatch {
 public:
  Stopwatch() { restart(); }
  void restart() {
    start_ns_ = now_ns();
    start_allocs_ = alloc_count();
  }
  double ns() const { return static_cast<double>(now_ns() - start_ns_); }
  double allocs() const {
    return static_cast<double>(alloc_count() - start_allocs_);
  }

 private:
  std::int64_t start_ns_ = 0;
  std::uint64_t start_allocs_ = 0;
};

/// Quantile q in [0, 1], interpolating linearly between order statistics;
/// 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// A tail percentile together with the sample it was taken from.
struct Tail {
  double percentile = 0.0;  ///< 100 is the maximum
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;   ///< samples ranked above the percentile
};

/// Nearest-rank percentile of a sample, with the count of samples beyond it.
Tail tail(std::vector<double> values, double percentile);

/// Flat JSON object writer; numbers keep all their significant digits.
class JsonObject {
 public:
  JsonObject& number(std::string_view key, double value);
  JsonObject& integer(std::string_view key, std::uint64_t value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& string(std::string_view key, std::string_view value);
  JsonObject& object(std::string_view key, const JsonObject& value);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view name);
  std::string body_;
};

}  // namespace campaignbench
