#include "stats/analysis.hpp"

#include <algorithm>

#include "net/packet.hpp"
#include "sd/message.hpp"
#include "sd/model.hpp"

namespace excovery::stats {

Result<std::vector<RunDiscovery>> discoveries(
    const storage::ExperimentPackage& package) {
  // Reads the Events cells in place (columns RunID, NodeID, CommonTime,
  // EventType, Parameter); only a search start builds a RunDiscovery.
  const storage::Table& table = *package.database().table("Events");
  std::vector<RunDiscovery> out;
  for (std::int64_t run_id : package.run_ids()) {
    std::vector<storage::RowView> rows =
        table.select_equals("RunID", Value{run_id});
    std::stable_sort(rows.begin(), rows.end(),
                     [](const storage::RowView& a, const storage::RowView& b) {
                       return a.as_double(2) < b.as_double(2);
                     });
    // One RunDiscovery per node that started a search in this run.
    const std::size_t run_begin = out.size();
    auto searcher = [&](std::string_view node) -> RunDiscovery* {
      for (std::size_t i = run_begin; i < out.size(); ++i) {
        if (out[i].searcher == node) return &out[i];
      }
      return nullptr;
    };
    for (const storage::RowView& row : rows) {
      const std::string_view type = row.as_string(3);
      if (type == sd::events::kStartSearch) {
        const std::string_view node = row.as_string(1);
        if (searcher(node) != nullptr) continue;
        RunDiscovery& discovery = out.emplace_back();
        discovery.run_id = run_id;
        discovery.searcher = std::string(node);
        discovery.search_start = row.as_double(2);
      } else if (type == sd::events::kServiceAdd) {
        RunDiscovery* discovery = searcher(row.as_string(1));
        if (discovery == nullptr) continue;  // add before search: cached
        const std::string_view provider =
            row.is_null(4) ? std::string_view{} : row.as_string(4);
        // First add per provider wins.
        discovery->latencies.try_emplace(
            std::string(provider), row.as_double(2) - discovery->search_start);
      } else if (type == "wait_timeout") {
        RunDiscovery* discovery = searcher(row.as_string(1));
        if (discovery != nullptr) discovery->timed_out = true;
      }
    }
    // Searchers in name order within the run.
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(run_begin), out.end(),
              [](const RunDiscovery& a, const RunDiscovery& b) {
                return a.searcher < b.searcher;
              });
  }
  return out;
}

Result<Proportion> responsiveness(const storage::ExperimentPackage& package,
                                  double deadline_s, std::size_t required) {
  EXC_ASSIGN_OR_RETURN(std::vector<RunDiscovery> runs, discoveries(package));
  std::size_t successes = 0;
  for (const RunDiscovery& run : runs) {
    std::size_t within = 0;
    for (const auto& [provider, latency] : run.latencies) {
      if (latency <= deadline_s) ++within;
    }
    if (within >= required) ++successes;
  }
  return wilson(successes, runs.size());
}

Result<std::vector<double>> discovery_latencies(
    const storage::ExperimentPackage& package) {
  EXC_ASSIGN_OR_RETURN(std::vector<RunDiscovery> runs, discoveries(package));
  std::vector<double> out;
  for (const RunDiscovery& run : runs) {
    for (const auto& [provider, latency] : run.latencies) {
      out.push_back(latency);
    }
  }
  return out;
}

Result<std::vector<double>> first_latencies(
    const storage::ExperimentPackage& package) {
  EXC_ASSIGN_OR_RETURN(std::vector<RunDiscovery> runs, discoveries(package));
  std::vector<double> out;
  for (const RunDiscovery& run : runs) {
    double best = -1.0;
    for (const auto& [provider, latency] : run.latencies) {
      if (best < 0 || latency < best) best = latency;
    }
    if (best >= 0) out.push_back(best);
  }
  return out;
}

Result<std::vector<PacketStats>> packet_stats(
    const storage::ExperimentPackage& package) {
  std::vector<PacketStats> out;
  for (std::int64_t run_id : package.run_ids()) {
    EXC_ASSIGN_OR_RETURN(std::vector<storage::PacketRow> packets,
                         package.packets(run_id));
    PacketStats stats;
    stats.run_id = run_id;
    for (const storage::PacketRow& row : packets) {
      ++stats.captured;
      Result<net::WireImage> image = net::capture_from_wire(row.data);
      if (!image.ok()) continue;
      stats.bytes += static_cast<double>(image.value().packet.wire_size());
      if (image.value().direction == net::Direction::kTransmit) {
        ++stats.transmitted;
      } else {
        ++stats.received;
      }
      if (sd::decode(image.value().packet.payload).ok()) ++stats.sd_messages;
    }
    out.push_back(stats);
  }
  return out;
}

Result<std::vector<RequestResponsePair>> pair_requests(
    const storage::ExperimentPackage& package) {
  std::vector<RequestResponsePair> out;
  for (std::int64_t run_id : package.run_ids()) {
    EXC_ASSIGN_OR_RETURN(std::vector<storage::PacketRow> packets,
                         package.packets(run_id));
    // Matching is two-pass and deliberately independent of timestamp
    // order: with uncorrected clock offsets a response can carry an
    // *earlier* common time than its query, and causal_violations() must
    // be able to observe exactly that.
    struct Decoded {
      const storage::PacketRow* row;
      net::WireImage image;
      sd::SdMessage message;
    };
    std::vector<Decoded> decoded;
    decoded.reserve(packets.size());
    for (const storage::PacketRow& row : packets) {
      Result<net::WireImage> image = net::capture_from_wire(row.data);
      if (!image.ok()) continue;
      Result<sd::SdMessage> message =
          sd::decode(image.value().packet.payload);
      if (!message.ok()) continue;
      decoded.push_back(Decoded{&row, std::move(image).value(),
                                std::move(message).value()});
    }

    // Pass 1: queries transmitted, keyed by (requester, txn id).
    std::map<std::pair<std::string, std::uint32_t>, RequestResponsePair>
        pending;
    for (const Decoded& entry : decoded) {
      bool is_request =
          entry.message.kind == sd::MessageKind::kQuery ||
          entry.message.kind == sd::MessageKind::kDirectedQuery ||
          entry.message.kind == sd::MessageKind::kScmQuery;
      if (!is_request ||
          entry.image.direction != net::Direction::kTransmit) {
        continue;
      }
      RequestResponsePair pair;
      pair.run_id = run_id;
      pair.txn_id = entry.message.txn_id;
      pair.requester = entry.row->node_id;
      pair.request_time = entry.row->common_time;
      pending.try_emplace({entry.row->node_id, entry.message.txn_id}, pair);
    }
    // Pass 2: the first response (by recorded time) received back at the
    // requester wins.
    for (const Decoded& entry : decoded) {
      bool is_response =
          entry.message.kind == sd::MessageKind::kResponse ||
          entry.message.kind == sd::MessageKind::kDirectedReply ||
          entry.message.kind == sd::MessageKind::kScmAdvert;
      if (!is_response ||
          entry.image.direction != net::Direction::kReceive) {
        continue;
      }
      auto it = pending.find({entry.row->node_id, entry.message.txn_id});
      if (it == pending.end()) continue;  // unsolicited or not ours
      it->second.responder = entry.message.sender_name;
      it->second.response_time = entry.row->common_time;
      out.push_back(it->second);
      pending.erase(it);
    }
  }
  // Deterministic order.
  std::sort(out.begin(), out.end(),
            [](const RequestResponsePair& a, const RequestResponsePair& b) {
              if (a.run_id != b.run_id) return a.run_id < b.run_id;
              return a.request_time < b.request_time;
            });
  return out;
}

Result<RouteStats> route_stats(const storage::ExperimentPackage& package) {
  RouteStats stats;
  double total_hops = 0;
  for (std::int64_t run_id : package.run_ids()) {
    EXC_ASSIGN_OR_RETURN(std::vector<storage::PacketRow> packets,
                         package.packets(run_id));
    for (const storage::PacketRow& row : packets) {
      Result<net::WireImage> image = net::capture_from_wire(row.data);
      if (!image.ok()) continue;
      if (image.value().direction != net::Direction::kReceive) continue;
      if (image.value().packet.route.empty()) continue;
      int hops = static_cast<int>(image.value().packet.route.size()) - 1;
      ++stats.receptions;
      total_hops += hops;
      stats.max_hops = std::max(stats.max_hops, hops);
      stats.distribution[hops]++;
    }
  }
  if (stats.receptions > 0) {
    stats.mean_hops = total_hops / static_cast<double>(stats.receptions);
  }
  return stats;
}

Result<std::size_t> causal_violations(
    const storage::ExperimentPackage& package) {
  EXC_ASSIGN_OR_RETURN(std::vector<RequestResponsePair> pairs,
                       pair_requests(package));
  std::size_t violations = 0;
  for (const RequestResponsePair& pair : pairs) {
    if (pair.response_time < pair.request_time) ++violations;
  }
  return violations;
}

Result<std::size_t> propagation_violations(
    const storage::ExperimentPackage& package) {
  std::size_t violations = 0;
  for (std::int64_t run_id : package.run_ids()) {
    EXC_ASSIGN_OR_RETURN(std::vector<storage::PacketRow> packets,
                         package.packets(run_id));
    // First transmit time per packet uid (sender's conditioned clock).
    struct TxInfo {
      double time;
      std::string node;
    };
    std::map<std::uint64_t, TxInfo> tx_info;
    struct RxInfo {
      std::uint64_t uid;
      double time;
      std::string node;
    };
    std::vector<RxInfo> rx_events;
    for (const storage::PacketRow& row : packets) {
      Result<net::WireImage> image = net::capture_from_wire(row.data);
      if (!image.ok()) continue;
      if (image.value().direction == net::Direction::kTransmit) {
        auto [it, inserted] = tx_info.try_emplace(
            image.value().packet.uid, TxInfo{row.common_time, row.node_id});
        if (!inserted && row.common_time < it->second.time) {
          it->second = TxInfo{row.common_time, row.node_id};
        }
      } else {
        rx_events.push_back(
            RxInfo{image.value().packet.uid, row.common_time, row.node_id});
      }
    }
    for (const RxInfo& rx : rx_events) {
      auto it = tx_info.find(rx.uid);
      if (it == tx_info.end()) continue;  // sender not captured
      // Same-node loopback delivery shares one clock and carries no
      // propagation; only cross-node reception is checked.
      if (rx.node == it->second.node) continue;
      if (rx.time < it->second.time) ++violations;
    }
  }
  return violations;
}

}  // namespace excovery::stats
