#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

// The replacement operator new/delete below pair ::new with std::malloc /
// std::free; GCC's heuristic cannot see that they match.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

// Allocation counters, one cache line per thread so the run workers never
// contend on a shared counter.  Only the owning thread writes its slot;
// readers sum every slot ever claimed (a slot keeps its count after its
// thread exits).  Threads beyond the slot table share the overflow slot.
constexpr std::size_t kSlots = 4096;
struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};
Slot g_slots[kSlots];
Slot g_overflow;
std::atomic<std::size_t> g_claimed{0};
std::atomic<bool> g_counting{false};
thread_local Slot* t_slot = nullptr;

void count_allocation() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_slot == nullptr) {
    const std::size_t index = g_claimed.fetch_add(1);
    t_slot = index < kSlots ? &g_slots[index] : &g_overflow;
  }
  if (t_slot == &g_overflow) {
    t_slot->count.fetch_add(1, std::memory_order_relaxed);
  } else {
    t_slot->count.store(t_slot->count.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  count_allocation();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_allocation();
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace campaignbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

rusage self_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double cpu_seconds() {
  const rusage usage = self_usage();
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM is this program's own high-water mark; getrusage's ru_maxrss
  // survives exec and would report a larger parent's peak instead.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  return static_cast<double>(self_usage().ru_maxrss) / 1024.0;  // KiB
}

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_count() {
  const std::size_t claimed = std::min(g_claimed.load(), kSlots);
  std::uint64_t total = g_overflow.count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < claimed; ++i) {
    total += g_slots[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(position);
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double weight = position - static_cast<double>(below);
  return values[below] * (1.0 - weight) + values[above] * weight;
}

Tail tail(std::vector<double> values, double percentile) {
  Tail result;
  result.percentile = percentile;
  result.samples = values.size();
  if (values.empty()) return result;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  const std::size_t n = values.size();
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(percentile / 100.0 * static_cast<double>(n))),
      1, n);
  result.value = values[rank - 1];
  result.beyond = n - rank;
  return result;
}

void JsonObject::key(std::string_view name) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += name;
  body_ += "\": ";
}

JsonObject& JsonObject::number(std::string_view name, double value) {
  key(name);
  if (!std::isfinite(value)) value = 0.0;  // JSON has no NaN/inf
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  body_ += text;
  return *this;
}

JsonObject& JsonObject::integer(std::string_view name, std::uint64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view name, bool value) {
  key(name);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::string(std::string_view name,
                               std::string_view value) {
  key(name);
  body_ += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += c;
  }
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::object(std::string_view name,
                               const JsonObject& value) {
  key(name);
  body_ += value.str();
  return *this;
}

}  // namespace campaignbench
