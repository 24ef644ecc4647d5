// Zero-copy XML pipeline (DESIGN.md §15).
//
// PR 9 rewrote the XML engine: arena-backed DOM with interned names and
// in-situ string_view text, a single-pass parser that eliminates per-node
// heap allocation, and a canonical writer that streams sorted-attribute
// bytes straight into SHA-256.  This bench times the live engine on a
// generated experiment description and holds its allocation counts to
// fixed ceilings (WARN-only under --smoke):
//
//  * description parse: experiment-description XML -> DOM, at most
//    kParseAllocCeiling heap allocations per parse;
//  * canonical digest: DOM -> canonical bytes -> SHA-256 without
//    materialising the canonical string, at most kDigestAllocCeiling
//    allocations per digest (digest bytes are pinned by the golden-digest
//    tests);
//  * XML-RPC round trip (encode + decode of a struct-carrying call) —
//    reported for trajectory, not gated.
//
// Results go to BENCH_xml.json (curated format, bench/collect_bench.py).
//
// Flags:
//   --smoke     small document + iteration counts, WARN-only gates — CI
//   --reps N    repetitions (default 5, median taken)
//   --out PATH  override the JSON output path (default BENCH_xml.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/hash.hpp"
#include "common/strings.hpp"
#include "core/scenario.hpp"
#include "counting_new.hpp"
#include "rpc/codec.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

// -Wmaybe-uninitialized: GCC's tracker loses the std::variant active-member
// index when copying excovery::Value under sanitizer instrumentation and
// flags the inactive-union read it then imagines (false positive).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace {

using excovery::Result;
using excovery::Sha256;

namespace bench = excovery::bench;

/// Heap-allocation ceilings: the arena engine's counts, which are the same
/// on the smoke and the full document.
constexpr std::uint64_t kParseAllocCeiling = 12;
constexpr std::uint64_t kDigestAllocCeiling = 1;

/// Median seconds per call of fn() over `reps` repetitions of `iters`
/// timed iterations.
template <typename Fn>
double time_per_call(int reps, int iters, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    times.push_back(bench::seconds_since(start) / iters);
  }
  return bench::median(times);
}

/// Heap allocations for a single fn() call.
template <typename Fn>
std::uint64_t allocs_per_call(Fn&& fn) {
  const std::uint64_t before = bench::allocations();
  fn();
  return bench::allocations() - before;
}

class HashSink final : public excovery::xml::Sink {
 public:
  explicit HashSink(Sha256& hash) noexcept : hash_(hash) {}
  void write(const char* data, std::size_t size) override {
    hash_.update(data, size);
  }

 private:
  Sha256& hash_;
};

std::string streamed_digest(const excovery::xml::Element& root) {
  Sha256 hash;
  hash.update_u64(excovery::xml::canonical_size(root));
  HashSink sink(hash);
  excovery::xml::write_canonical(root, sink);
  return hash.finish_hex();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, /*reps=*/5, /*smoke_reps=*/3,
                         "BENCH_xml.json");
  const bool smoke = flags.smoke;
  const int reps = flags.reps;

  // The document under test: a generated experiment description — the
  // exact document class the hot paths (campaign digest, package load,
  // control channel) parse and serialise.
  excovery::core::scenario::TwoPartyOptions options;
  options.replications = smoke ? 5 : 50;
  options.environment_count = 2;
  options.sm_count = smoke ? 2 : 6;
  Result<excovery::core::ExperimentDescription> description =
      excovery::core::scenario::two_party_sd(options);
  if (!description.ok()) std::abort();
  const std::string xml_text = description.value().to_xml_text();
  const int iters = smoke ? 200 : 2000;

  std::printf("xml pipeline bench: %zu-byte description, %d reps%s\n",
              xml_text.size(), reps, smoke ? " (smoke)" : "");

  // ---- description parse ---------------------------------------------------
  Result<excovery::xml::Document> tree = excovery::xml::parse(xml_text);
  if (!tree.ok()) std::abort();
  const double parse_s = time_per_call(reps, iters, [&] {
    if (!excovery::xml::parse(xml_text).ok()) std::abort();
  });
  const std::uint64_t parse_allocs =
      allocs_per_call([&] { (void)excovery::xml::parse(xml_text); });

  // ---- canonical digest ----------------------------------------------------
  const std::string digest = streamed_digest(tree.value().root());
  const double digest_s = time_per_call(reps, iters, [&] {
    (void)streamed_digest(tree.value().root());
  });
  const std::uint64_t digest_allocs =
      allocs_per_call([&] { (void)streamed_digest(tree.value().root()); });

  // ---- XML-RPC round trip (informational) ----------------------------------
  excovery::ValueMap args;
  args["run_id"] = excovery::Value{std::int64_t{42}};
  args["actor"] = excovery::Value{"SM"};
  excovery::ValueArray batch;
  for (int i = 0; i < 16; ++i) batch.push_back(excovery::Value{args});
  excovery::rpc::MethodCall call{"sd_init", {excovery::Value{batch}}};
  const double rpc_s = time_per_call(reps, iters, [&] {
    Result<excovery::rpc::MethodCall> back =
        excovery::rpc::decode_call(excovery::rpc::encode(call));
    if (!back.ok()) std::abort();
  });

  const double mb = static_cast<double>(xml_text.size()) / (1024.0 * 1024.0);
  std::printf("  parse:  %8.1f us  %llu allocs (ceiling %llu)  %.0f MB/s\n",
              parse_s * 1e6, static_cast<unsigned long long>(parse_allocs),
              static_cast<unsigned long long>(kParseAllocCeiling),
              mb / parse_s);
  std::printf("  digest: %8.1f us  %llu allocs (ceiling %llu)\n",
              digest_s * 1e6, static_cast<unsigned long long>(digest_allocs),
              static_cast<unsigned long long>(kDigestAllocCeiling));
  std::printf("  rpc round trip: %8.1f us\n", rpc_s * 1e6);

  bool failed = false;
  auto check_ceiling = [&](const char* what, std::uint64_t allocs,
                           std::uint64_t ceiling) {
    if (allocs > ceiling) {
      std::fprintf(stderr,
                   "%s: %s makes %llu heap allocations (ceiling %llu)\n",
                   smoke ? "WARN (smoke, not gated)" : "FAIL", what,
                   static_cast<unsigned long long>(allocs),
                   static_cast<unsigned long long>(ceiling));
      failed = failed || !smoke;
    }
  };
  check_ceiling("description parse", parse_allocs, kParseAllocCeiling);
  check_ceiling("canonical digest", digest_allocs, kDigestAllocCeiling);

  auto rate = [](double seconds) {
    return excovery::strings::format(
        "{\"items_per_second\": %.1f, \"cpu_time_ns\": %.0f}", 1.0 / seconds,
        seconds * 1e9);
  };
  auto count = [](std::uint64_t n) {
    return std::to_string(static_cast<unsigned long long>(n));
  };
  const std::vector<bench::CuratedEntry> entries = {
      {"BM_Xml/description_parse",
       {{"current", rate(parse_s)},
        {"allocations", count(parse_allocs)},
        {"allocation_ceiling", count(kParseAllocCeiling)},
        {"document_bytes", std::to_string(xml_text.size())},
        {"current_mb_per_second",
         excovery::strings::format("%.1f", mb / parse_s)}}},
      {"BM_Xml/canonical_digest",
       {{"current", rate(digest_s)},
        {"allocations", count(digest_allocs)},
        {"allocation_ceiling", count(kDigestAllocCeiling)},
        {"digest", "\"" + digest + "\""}}},
      {"BM_Xml/rpc_round_trip", {{"current", rate(rpc_s)}}},
  };
  const std::string json_description =
      "Zero-copy XML pipeline (bench/bench_xml_rpc.cpp, DESIGN.md \\u00a715): "
      "the arena DOM / in-situ parser / streaming canonical digest on a "
      "generated experiment description. allocations are heap allocations "
      "for a single call, gated at allocation_ceiling outside --smoke; the "
      "digest bytes are pinned by the golden-digest tests. The XML-RPC "
      "round trip is reported, not gated. Median over repetitions.";
  if (!bench::write_curated(flags.out, json_description, entries)) return 1;
  return failed ? 1 : 0;
}
