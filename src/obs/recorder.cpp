#include "obs/recorder.hpp"

#include <filesystem>

#include "common/strings.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"

namespace excovery::obs {

std::string render_flight_dump(const sim::LineageLog& log,
                               std::string_view reason) {
  std::string out;
  out += "# ExCovery flight recorder\n";
  out += strings::format("# run %llu attempt %u: ",
                         static_cast<unsigned long long>(log.run_id()),
                         static_cast<unsigned>(log.attempt()));
  out += reason;
  out += '\n';
  out += strings::format(
      "# %zu retained event(s) of %llu recorded, oldest first\n",
      log.recent_count(), static_cast<unsigned long long>(log.recorded()));
  out += "#       id   parent        t(s)  kind        node          "
         "detail\n";
  log.for_each_recent([&](const sim::LineageEvent& event) {
    out += strings::format(
        "%10llu %8llu %12.6f  %-10s  %-12s  ",
        static_cast<unsigned long long>(event.id),
        static_cast<unsigned long long>(event.parent),
        static_cast<double>(event.ts_ns) / 1e9,
        std::string(to_string(event.kind)).c_str(),
        std::string(log.name(event.node)).c_str());
    out += describe(log, event);
    out += '\n';
  });
  return out;
}

Result<std::string> write_flight_dump(const sim::LineageLog& log,
                                      const std::string& dir,
                                      std::string_view reason) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return err_io("cannot create flight-recorder directory " + dir + ": " +
                  ec.message());
  }
  const std::string path =
      (std::filesystem::path(dir) /
       strings::format("flight-run%llu-attempt%u.txt",
                       static_cast<unsigned long long>(log.run_id()),
                       static_cast<unsigned>(log.attempt())))
          .string();
  EXC_TRY(write_text_file(path, render_flight_dump(log, reason),
                          "flight-recorder file"));
  return path;
}

}  // namespace excovery::obs
