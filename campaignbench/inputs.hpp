// Seeded input generators of the campaign benchmark.  Each workload's
// inputs are a pure function of the workload seed and an index; the program
// under test only ever receives what a user would hand it: description XML
// text plus the answer-relevant scope of a submission.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/canonical.hpp"

namespace campaignbench {

/// One experiment as the program receives it.
struct ExperimentInput {
  std::string description_xml;
  excovery::core::CampaignScope scope;  ///< platform seed, topology, knobs
  std::size_t run_workers = 1;
  double deadline_s = 5.0;  ///< responsiveness deadline of the analysis
  /// sv-sweep: loss levels and replications per level, for the shape check.
  std::vector<double> loss_levels;
  int replications = 0;
};

/// Workload sizes: the full benchmark, or the tiny smoke configuration.
struct Sizes {
  int campaign_block = 30;        ///< paper-campaign experiments per block
  int sweep_replications = 1000;  ///< sv-sweep replications per loss level
  int mesh_nodes = 500;
  int mesh_pairs = 24;            ///< SM and SU nodes each
  double mesh_radius = 0.09;
  int mesh_replications = 4;
  int service_batch = 48;         ///< submissions per fresh repository
};
Sizes full_sizes();
Sizes smoke_sizes();

/// paper-campaign: quickstart-sized experiment `index`; the protocol cycles
/// mdns / slp / hybrid with the index.
ExperimentInput paper_experiment(std::uint64_t seed, std::uint64_t index);

/// sv-sweep: the §V responsiveness sweep (mdns, SU loss levels
/// {0, 0.2, 0.4, 0.6}, deadline 8 s) at four run workers.
ExperimentInput sweep_experiment(std::uint64_t seed, std::uint64_t index,
                                 const Sizes& sizes);

/// stress-mesh: SM/SU pairs on a random geometric world with link loss, SM
/// churn and Gilbert-Elliott loss at the SUs, at four run workers.
ExperimentInput mesh_experiment(std::uint64_t seed, std::uint64_t index,
                                const Sizes& sizes);

/// service-mix: batch `batch` of paper-sized submissions; 45% (rounded
/// down) repeat an earlier submission of the same batch verbatim.
std::vector<ExperimentInput> service_batch(std::uint64_t seed,
                                           std::uint64_t batch,
                                           const Sizes& sizes);

}  // namespace campaignbench
