#include "inputs.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "core/scenario.hpp"

namespace campaignbench {

using excovery::Pcg32;
namespace scenario = excovery::core::scenario;

namespace {

// Stream tags keep the workloads' random sequences apart for one seed.
constexpr std::uint64_t kPaperStream = 1ULL << 40;
constexpr std::uint64_t kSweepStream = 2ULL << 40;
constexpr std::uint64_t kMeshStream = 3ULL << 40;
constexpr std::uint64_t kServiceStream = 4ULL << 40;

std::uint64_t draw_seed(Pcg32& rng) { return 1 + rng.bounded(1U << 30); }

std::string description_text(const scenario::TwoPartyOptions& options) {
  excovery::Result<excovery::core::ExperimentDescription> description =
      scenario::two_party_sd(options);
  if (!description.ok()) {
    std::fprintf(stderr, "input generation: %s\n",
                 description.error().to_string().c_str());
    std::exit(2);
  }
  return description.value().to_xml_text();
}

ExperimentInput paper_like(Pcg32& rng, std::uint64_t protocol_index) {
  static const char* const kProtocols[] = {"mdns", "slp", "hybrid"};
  scenario::TwoPartyOptions options;
  options.sm_count = 1;
  options.su_count = 1;
  options.environment_count = 2;
  options.replications = 5;
  options.deadline_s = 30.0;
  options.protocol = kProtocols[protocol_index % 3];
  if (options.protocol != "mdns") {
    options.scm_count = 1;
    options.architecture = options.protocol == "slp" ? "three-party" : "hybrid";
  }
  options.seed = draw_seed(rng);

  ExperimentInput input;
  input.description_xml = description_text(options);
  input.scope.platform_seed = draw_seed(rng);
  return input;
}

}  // namespace

Sizes full_sizes() { return {}; }

Sizes smoke_sizes() {
  Sizes sizes;
  sizes.campaign_block = 3;
  sizes.sweep_replications = 40;
  sizes.mesh_nodes = 60;
  sizes.mesh_pairs = 4;
  sizes.mesh_radius = 0.3;
  sizes.mesh_replications = 2;
  sizes.service_batch = 8;
  return sizes;
}

ExperimentInput paper_experiment(std::uint64_t seed, std::uint64_t index) {
  Pcg32 rng(seed, kPaperStream + index);
  return paper_like(rng, index);
}

ExperimentInput sweep_experiment(std::uint64_t seed, std::uint64_t index,
                                 const Sizes& sizes) {
  Pcg32 rng(seed, kSweepStream + index);
  scenario::TwoPartyOptions options;
  options.environment_count = 2;
  options.replications = sizes.sweep_replications;
  options.deadline_s = 8.0;
  options.loss_levels = {0.0, 0.2, 0.4, 0.6};
  options.seed = draw_seed(rng);

  ExperimentInput input;
  input.description_xml = description_text(options);
  input.scope.platform_seed = draw_seed(rng);
  input.run_workers = 4;
  input.deadline_s = options.deadline_s;
  input.loss_levels = options.loss_levels;
  input.replications = options.replications;
  return input;
}

ExperimentInput mesh_experiment(std::uint64_t seed, std::uint64_t index,
                                const Sizes& sizes) {
  Pcg32 rng(seed, kMeshStream + index);
  scenario::TwoPartyOptions options;
  options.sm_count = sizes.mesh_pairs;
  options.su_count = sizes.mesh_pairs;
  options.environment_count = sizes.mesh_nodes - 2 * sizes.mesh_pairs;
  options.replications = sizes.mesh_replications;
  options.deadline_s = 8.0;
  options.dynamic.sm_churn = true;
  options.dynamic.ge_loss = true;
  options.seed = draw_seed(rng);

  ExperimentInput input;
  input.description_xml = description_text(options);
  input.scope.platform_seed = draw_seed(rng);
  input.scope.topology.kind = scenario::TopologyKind::kRandomGeometric;
  input.scope.topology.radius = sizes.mesh_radius;
  input.scope.topology.link.loss = 0.02;
  input.scope.topology.seed = draw_seed(rng);
  input.run_workers = 4;
  input.deadline_s = options.deadline_s;
  return input;
}

std::vector<ExperimentInput> service_batch(std::uint64_t seed,
                                           std::uint64_t batch,
                                           const Sizes& sizes) {
  Pcg32 rng(seed, kServiceStream + batch);
  // Exactly 45% (rounded down) of every batch repeats, at seeded positions
  // after the first, so all batches share one hit/miss mix.
  const auto size = static_cast<std::size_t>(sizes.service_batch);
  std::vector<std::size_t> positions;
  for (std::size_t i = 1; i < size; ++i) positions.push_back(i);
  for (std::size_t i = positions.size(); i > 1; --i) {
    std::swap(positions[i - 1],
              positions[rng.bounded(static_cast<std::uint32_t>(i))]);
  }
  std::vector<bool> repeats(size, false);
  for (std::size_t i = 0; i < size * 45 / 100; ++i) repeats[positions[i]] = true;

  std::vector<ExperimentInput> batch_inputs;
  std::vector<std::size_t> distinct;  // indexes of first occurrences
  for (std::size_t i = 0; i < size; ++i) {
    if (repeats[i]) {
      const std::size_t earlier = distinct[rng.bounded(
          static_cast<std::uint32_t>(distinct.size()))];
      ExperimentInput repeat = batch_inputs[earlier];
      batch_inputs.push_back(std::move(repeat));
      continue;
    }
    distinct.push_back(batch_inputs.size());
    batch_inputs.push_back(paper_like(rng, distinct.size() - 1));
  }
  return batch_inputs;
}

}  // namespace campaignbench
