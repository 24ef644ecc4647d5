// Trace-event layer: Chrome/Perfetto `trace_event` JSON with dual tracks
// (DESIGN.md §11).
//
// Track kWall (pid 1) carries real execution: run sharding and storage
// conditioning.  Track kSim (pid 2) carries simulated time: runs, attempts
// and the packet track drawn from each attempt's lineage graph, with
// timestamps taken from the discrete-event clock.  Because every run
// executes at its canonical simulated-time epoch (DESIGN.md §10), the sim
// track renders the same timeline no matter how many workers executed the
// runs — concurrent wall execution, disjoint simulated intervals.
//
// Spans are emitted through RAII guards (WallSpan / SimSpan); punctual and
// long-lived flows (per-packet lifecycles) use instant and async events.
// The buffer is mutex-protected: worker replicas append concurrently.
//
// Open the written file in https://ui.perfetto.dev or chrome://tracing.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace excovery::obs {

enum class Track : std::uint8_t { kWall = 1, kSim = 2 };

/// One trace_event record.  Timestamps/durations are nanoseconds on the
/// track's own timeline (wall: since buffer construction; sim: since
/// simulated time zero); the JSON writer converts to microseconds.
struct TraceEvent {
  Track track = Track::kWall;
  char phase = 'X';       ///< 'X' complete, 'i' instant, 'b'/'e' async, 'C' counter
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;     ///< complete events only
  std::uint64_t async_id = 0;  ///< async events only
  std::uint32_t tid = 0;
  std::string name;
  std::string category;
  /// Pre-rendered JSON object for "args" ("" = omitted).
  std::string args_json;
};

/// Stable small integer for the calling thread (dense, first-use order).
std::uint32_t current_thread_tid();

class TraceBuffer {
 public:
  explicit TraceBuffer(bool enabled = true)
      : enabled_(enabled), wall_origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// Nanoseconds since buffer construction (the wall track's timeline).
  std::int64_t wall_now_ns() const;

  void complete(Track track, std::uint32_t tid, std::string name,
                std::string category, std::int64_t ts_ns, std::int64_t dur_ns,
                std::string args_json = "");
  void instant(Track track, std::uint32_t tid, std::string name,
               std::string category, std::int64_t ts_ns,
               std::string args_json = "");
  void async_begin(Track track, std::uint64_t id, std::string name,
                   std::string category, std::int64_t ts_ns,
                   std::string args_json = "");
  void async_end(Track track, std::uint64_t id, std::string name,
                 std::string category, std::int64_t ts_ns);
  void counter(Track track, std::uint32_t tid, std::string name,
               std::int64_t ts_ns, double value);

  std::size_t size() const;

  /// Full trace as Chrome trace_event JSON (object form, with track
  /// metadata naming the two processes).
  std::string to_json() const;
  Status write_json(const std::string& path) const;

 private:
  void push(TraceEvent event);

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  bool enabled_;
  std::chrono::steady_clock::time_point wall_origin_;
};

/// RAII wall-clock span on the wall track: begins at construction, emits a
/// complete event at destruction.  A default-constructed (or null-buffer)
/// span is inert.
class WallSpan {
 public:
  WallSpan() = default;
  WallSpan(TraceBuffer* buffer, std::string name, std::string category,
           std::string args_json = "")
      : buffer_(buffer && buffer->enabled() ? buffer : nullptr),
        name_(std::move(name)),
        category_(std::move(category)),
        args_json_(std::move(args_json)) {
    if (buffer_) start_ns_ = buffer_->wall_now_ns();
  }
  WallSpan(WallSpan&& other) noexcept { swap(other); }
  WallSpan& operator=(WallSpan&& other) noexcept {
    if (this != &other) {
      finish();
      swap(other);
    }
    return *this;
  }
  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;
  ~WallSpan() { finish(); }

 private:
  void swap(WallSpan& other) noexcept {
    std::swap(buffer_, other.buffer_);
    std::swap(start_ns_, other.start_ns_);
    name_.swap(other.name_);
    category_.swap(other.category_);
    args_json_.swap(other.args_json_);
  }
  void finish() {
    if (!buffer_) return;
    buffer_->complete(Track::kWall, current_thread_tid(), std::move(name_),
                      std::move(category_), start_ns_,
                      buffer_->wall_now_ns() - start_ns_,
                      std::move(args_json_));
    buffer_ = nullptr;
  }

  TraceBuffer* buffer_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::string name_;
  std::string category_;
  std::string args_json_;
};

/// RAII simulated-time span on the sim track.  The caller supplies the
/// clock (typically `[&s]{ return s.now().nanos(); }` over the scheduler);
/// construction reads the start, destruction reads the end.
class SimSpan {
 public:
  using NowFn = std::function<std::int64_t()>;

  SimSpan() = default;
  SimSpan(TraceBuffer* buffer, std::uint32_t tid, std::string name,
          std::string category, NowFn now, std::string args_json = "")
      : buffer_(buffer && buffer->enabled() ? buffer : nullptr),
        tid_(tid),
        name_(std::move(name)),
        category_(std::move(category)),
        args_json_(std::move(args_json)),
        now_(std::move(now)) {
    if (buffer_) start_ns_ = now_();
  }
  SimSpan(SimSpan&& other) noexcept { swap(other); }
  SimSpan& operator=(SimSpan&& other) noexcept {
    if (this != &other) {
      finish();
      swap(other);
    }
    return *this;
  }
  SimSpan(const SimSpan&) = delete;
  SimSpan& operator=(const SimSpan&) = delete;
  ~SimSpan() { finish(); }

 private:
  void swap(SimSpan& other) noexcept {
    std::swap(buffer_, other.buffer_);
    std::swap(tid_, other.tid_);
    std::swap(start_ns_, other.start_ns_);
    name_.swap(other.name_);
    category_.swap(other.category_);
    args_json_.swap(other.args_json_);
    now_.swap(other.now_);
  }
  void finish() {
    if (!buffer_) return;
    buffer_->complete(Track::kSim, tid_, std::move(name_),
                      std::move(category_), start_ns_, now_() - start_ns_,
                      std::move(args_json_));
    buffer_ = nullptr;
  }

  TraceBuffer* buffer_ = nullptr;
  std::uint32_t tid_ = 0;
  std::int64_t start_ns_ = 0;
  std::string name_;
  std::string category_;
  std::string args_json_;
  NowFn now_;
};

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(std::string_view text);

/// Replace the file at `path` with `text`.  Errors read "cannot open <what>
/// <path>" and "failed writing <what> <path>".
Status write_text_file(const std::string& path, std::string_view text,
                       std::string_view what);

}  // namespace excovery::obs
