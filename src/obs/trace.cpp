#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

namespace excovery::obs {

std::uint32_t current_thread_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::int64_t TraceBuffer::wall_now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - wall_origin_)
      .count();
}

void TraceBuffer::push(TraceEvent event) {
  std::lock_guard lock(mutex_);
  events_.push_back(std::move(event));
}

void TraceBuffer::complete(Track track, std::uint32_t tid, std::string name,
                           std::string category, std::int64_t ts_ns,
                           std::int64_t dur_ns, std::string args_json) {
  if (!enabled_) return;
  TraceEvent event;
  event.track = track;
  event.phase = 'X';
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns < 0 ? 0 : dur_ns;
  event.tid = tid;
  event.name = std::move(name);
  event.category = std::move(category);
  event.args_json = std::move(args_json);
  push(std::move(event));
}

void TraceBuffer::instant(Track track, std::uint32_t tid, std::string name,
                          std::string category, std::int64_t ts_ns,
                          std::string args_json) {
  if (!enabled_) return;
  TraceEvent event;
  event.track = track;
  event.phase = 'i';
  event.ts_ns = ts_ns;
  event.tid = tid;
  event.name = std::move(name);
  event.category = std::move(category);
  event.args_json = std::move(args_json);
  push(std::move(event));
}

void TraceBuffer::async_begin(Track track, std::uint64_t id, std::string name,
                              std::string category, std::int64_t ts_ns,
                              std::string args_json) {
  if (!enabled_) return;
  TraceEvent event;
  event.track = track;
  event.phase = 'b';
  event.ts_ns = ts_ns;
  event.async_id = id;
  event.name = std::move(name);
  event.category = std::move(category);
  event.args_json = std::move(args_json);
  push(std::move(event));
}

void TraceBuffer::async_end(Track track, std::uint64_t id, std::string name,
                            std::string category, std::int64_t ts_ns) {
  if (!enabled_) return;
  TraceEvent event;
  event.track = track;
  event.phase = 'e';
  event.ts_ns = ts_ns;
  event.async_id = id;
  event.name = std::move(name);
  event.category = std::move(category);
  push(std::move(event));
}

void TraceBuffer::counter(Track track, std::uint32_t tid, std::string name,
                          std::int64_t ts_ns, double value) {
  if (!enabled_) return;
  TraceEvent event;
  event.track = track;
  event.phase = 'C';
  event.ts_ns = ts_ns;
  event.tid = tid;
  event.name = std::move(name);
  char buf[64];
  std::snprintf(buf, sizeof buf, "{\"value\":%.17g}", value);
  event.args_json = buf;
  push(std::move(event));
}

std::size_t TraceBuffer::size() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

namespace {

void append_event_json(std::string& out, const TraceEvent& e) {
  char buf[160];
  out += "{\"name\":\"";
  out += json_escape(e.name);
  out += "\",\"cat\":\"";
  out += json_escape(e.category.empty() ? "excovery" : e.category);
  out += "\",\"ph\":\"";
  out += e.phase;
  out += '"';
  // trace_event timestamps are microseconds; keep sub-microsecond detail
  // with a fractional part.
  std::snprintf(buf, sizeof buf, ",\"ts\":%.3f",
                static_cast<double>(e.ts_ns) / 1000.0);
  out += buf;
  if (e.phase == 'X') {
    std::snprintf(buf, sizeof buf, ",\"dur\":%.3f",
                  static_cast<double>(e.dur_ns) / 1000.0);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, ",\"pid\":%u",
                static_cast<unsigned>(e.track));
  out += buf;
  if (e.phase == 'b' || e.phase == 'e') {
    std::snprintf(buf, sizeof buf, ",\"id\":\"0x%llx\"",
                  static_cast<unsigned long long>(e.async_id));
    out += buf;
    out += ",\"tid\":0";
  } else {
    std::snprintf(buf, sizeof buf, ",\"tid\":%u", e.tid);
    out += buf;
  }
  if (e.phase == 'i') out += ",\"s\":\"t\"";
  if (!e.args_json.empty()) {
    out += ",\"args\":";
    out += e.args_json;
  }
  out += '}';
}

void append_metadata_json(std::string& out, unsigned pid, const char* name) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                pid, name);
  out += buf;
}

}  // namespace

std::string TraceBuffer::to_json() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard lock(mutex_);
    events = events_;
  }
  // Stable sort by (track, ts) keeps each track chronological while leaving
  // equal-timestamp events in emission order.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.track != b.track) return a.track < b.track;
                     return a.ts_ns < b.ts_ns;
                   });

  std::string out;
  out.reserve(events.size() * 96 + 512);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  append_metadata_json(out, static_cast<unsigned>(Track::kWall),
                       "excovery wall clock");
  out += ",\n";
  append_metadata_json(out, static_cast<unsigned>(Track::kSim),
                       "excovery simulated time");
  for (const TraceEvent& e : events) {
    out += ",\n";
    append_event_json(out, e);
  }
  out += "\n]}\n";
  return out;
}

Status TraceBuffer::write_json(const std::string& path) const {
  return write_text_file(path, to_json(), "trace output file");
}

Status write_text_file(const std::string& path, std::string_view text,
                       std::string_view what) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return err_io("cannot open " + std::string(what) + " " + path);
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  file.flush();
  if (!file) {
    return err_io("failed writing " + std::string(what) + " " + path);
  }
  return Status::ok_status();
}

}  // namespace excovery::obs
