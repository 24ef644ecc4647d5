// Content-addressed memoization payoff (DESIGN.md §14).
//
// The ExperimentService answers a repeated campaign submission from its
// result cache instead of re-simulating; because the digest covers every
// answer-relevant input, the served package is byte-identical to a fresh
// run.  This bench records what that buys:
//
//  * cold-miss latency: a submission that must simulate (fresh service);
//  * warm-hit latency: the identical submission against a warm cache —
//    the canonical-hash + LRU lookup path, gated to be at least 100x
//    faster than the cold miss (WARN-only under --smoke);
//  * hit throughput at 1, 4 and hardware-concurrency client threads, all
//    hammering the same digest;
//  * heap allocations on the hit path (dominated by the canonical XML
//    serialisation feeding the digest) — reported for trajectory.
//
// Results go to BENCH_cache.json (curated format, bench/collect_bench.py).
// The JSON is written in --smoke mode too so CI can archive the file from
// the smoke run.
//
// Flags:
//   --smoke     tiny campaign + iteration counts, WARN-only gate — CI
//   --reps N    repetitions (default 5, median taken)
//   --out PATH  override the JSON output path (default BENCH_cache.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "core/scenario.hpp"
#include "core/service.hpp"
#include "counting_new.hpp"

namespace {

using excovery::Result;
using excovery::core::ExperimentDescription;
using excovery::core::ExperimentService;
using excovery::core::ServiceReply;
using excovery::core::Submission;
using excovery::core::SubmitOutcome;

namespace bench = excovery::bench;
using bench::seconds_since;

Submission campaign(int replications) {
  excovery::core::scenario::TwoPartyOptions options;
  options.replications = replications;
  options.environment_count = 2;
  options.deadline_s = 5.0;
  Result<ExperimentDescription> description =
      excovery::core::scenario::two_party_sd(options);
  if (!description.ok()) std::abort();
  Submission submission;
  submission.description = std::move(description).value();
  submission.scope.platform_seed = 2026;
  return submission;
}

ServiceReply must_submit(ExperimentService& service,
                         const Submission& submission) {
  ServiceReply reply = service.submit(submission);
  if (!reply.status.ok()) {
    std::fprintf(stderr, "submit failed: %s\n",
                 reply.status.error().to_string().c_str());
    std::abort();
  }
  return reply;
}

/// Warm-cache submissions per second with `clients` threads hammering the
/// same digest for ~`iterations` submissions each.
double hit_throughput(ExperimentService& service,
                      const Submission& submission, unsigned clients,
                      int iterations) {
  std::atomic<std::uint64_t> total{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < iterations; ++i) {
        if (service.submit(submission).outcome != SubmitOutcome::kMemoryHit) {
          std::abort();
        }
        total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(total.load()) / seconds_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, /*reps=*/5, /*smoke_reps=*/3,
                         "BENCH_cache.json");
  const bool smoke = flags.smoke;
  const int reps = flags.reps;

  const int replications = smoke ? 5 : 50;
  const int hit_iterations = smoke ? 200 : 2000;
  const Submission submission = campaign(replications);
  std::printf("service cache bench: %d-replication campaign, %d reps%s\n",
              replications, reps, smoke ? " (smoke)" : "");

  // Cold miss: a fresh service per repetition, so every submission
  // simulates the full campaign.
  std::vector<double> cold_times;
  for (int rep = 0; rep < reps; ++rep) {
    ExperimentService::Config config;
    config.workers = 1;
    ExperimentService service(std::move(config));
    const auto start = std::chrono::steady_clock::now();
    ServiceReply reply = must_submit(service, submission);
    cold_times.push_back(seconds_since(start));
    if (reply.outcome != SubmitOutcome::kSimulated) std::abort();
  }
  const double cold_s = bench::median(cold_times);

  // Warm hit: one service, one simulation, then timed repeats.  The timed
  // path is digest computation + LRU lookup.
  ExperimentService::Config config;
  config.workers = 1;
  ExperimentService service(std::move(config));
  (void)must_submit(service, submission);
  std::vector<double> warm_times;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < hit_iterations; ++i) {
      if (service.submit(submission).outcome != SubmitOutcome::kMemoryHit) {
        std::abort();
      }
    }
    warm_times.push_back(seconds_since(start) / hit_iterations);
  }
  const double warm_s = bench::median(warm_times);
  const double speedup = cold_s / warm_s;

  // Allocations on one hit.
  const std::uint64_t allocs_before = bench::allocations();
  (void)must_submit(service, submission);
  const std::uint64_t hit_allocs = bench::allocations() - allocs_before;

  // Hit throughput at 1 / 4 / hardware-concurrency clients.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const double rate_1 = hit_throughput(service, submission, 1, hit_iterations);
  const double rate_4 = hit_throughput(service, submission, 4, hit_iterations);
  const double rate_hw =
      hit_throughput(service, submission, hw, hit_iterations);

  std::printf("  cold miss  %10.3f ms\n", cold_s * 1e3);
  std::printf("  warm hit   %10.3f us   (%0.0fx faster, %llu allocations)\n",
              warm_s * 1e6, speedup,
              static_cast<unsigned long long>(hit_allocs));
  std::printf("  hit throughput: 1 client %8.0f/s   4 clients %8.0f/s   "
              "%u clients %8.0f/s\n",
              rate_1, rate_4, hw, rate_hw);

  const double gate = 100.0;
  bool failed = false;
  if (speedup < gate) {
    std::fprintf(stderr,
                 "%s: warm hit only %.1fx faster than cold miss "
                 "(gate: >= %.0fx)\n",
                 smoke ? "WARN (smoke, not gated)" : "FAIL", speedup, gate);
    failed = !smoke;
  }

  using excovery::strings::format;
  const std::vector<bench::CuratedEntry> entries = {
      {"BM_ServiceCache/warm_hit_vs_cold_miss",
       {{"seed", format("{\"items_per_second\": %.3f, \"cpu_time_ns\": %.0f}",
                        1.0 / cold_s, cold_s * 1e9)},
        {"current",
         format("{\"items_per_second\": %.0f, \"cpu_time_ns\": %.0f}",
                1.0 / warm_s, warm_s * 1e9)},
        {"speedup_vs_cold_miss", format("%.1f", speedup)},
        {"hit_allocations",
         format("%llu", static_cast<unsigned long long>(hit_allocs))},
        {"campaign_replications", format("%d", replications)}}},
      {"BM_ServiceCache/hit_throughput",
       {{"current",
         format("{\"items_per_second\": %.0f, \"cpu_time_ns\": %.0f}",
                rate_hw, 1e9 / rate_hw)},
        {"clients_1_per_second", format("%.0f", rate_1)},
        {"clients_4_per_second", format("%.0f", rate_4)},
        {format("clients_%u_per_second", hw), format("%.0f", rate_hw)}}},
  };
  const std::string description =
      "Content-addressed campaign memoization "
      "(bench/bench_service_cache.cpp, DESIGN.md \\u00a714). 'seed' = "
      "cold-miss submission latency (the service must simulate the whole "
      "campaign); 'current' = warm-hit latency for the identical submission "
      "(canonical digest + LRU lookup, byte-identical reply). The speedup "
      "is gated >= 100x outside --smoke. clients_*_per_second are warm-hit "
      "submissions/s with that many client threads on one digest; "
      "hit_allocations counts heap allocations for a single hit "
      "(dominated by the canonical XML serialisation). Median over "
      "repetitions.";
  if (!bench::write_curated(flags.out, description, entries)) return 1;
  return failed ? 1 : 0;
}
