// Property-based suites (parameterised gtest): invariants swept across
// randomised inputs and parameter grids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/bytes.hpp"
#include "common/strings.hpp"
#include "common/rng.hpp"
#include "core/master.hpp"
#include "core/scenario.hpp"
#include "net/routing.hpp"
#include "rpc/codec.hpp"
#include "sd/message.hpp"
#include "stats/analysis.hpp"
#include "storage/conditioning.hpp"
#include "storage/database.hpp"
#include "storage/level2.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace excovery {
namespace {

// ---- random Value generation shared by several properties ---------------------

Value random_value(Pcg32& rng, int depth) {
  switch (depth <= 0 ? rng.bounded(6) : rng.bounded(8)) {
    case 0: return Value{};
    case 1: return Value{rng.bernoulli(0.5)};
    case 2: return Value{static_cast<std::int64_t>(rng()) - INT32_MAX};
    case 3: return Value{rng.uniform(-1e6, 1e6)};
    case 4: {
      // Letters, whitespace, markup characters and a two-byte UTF-8
      // character: string content must survive every codec byte for byte.
      static constexpr std::string_view kExtra[] = {
          " ", "\t", "\r", "\n", "<", ">", "&", "\"", "'", "\xC3\xA9"};
      constexpr std::uint32_t kExtraCount = std::size(kExtra);
      std::string s;
      std::uint32_t len = rng.bounded(12);
      for (std::uint32_t i = 0; i < len; ++i) {
        std::uint32_t pick = rng.bounded(26 + kExtraCount);
        if (pick < 26) {
          s.push_back(static_cast<char>('a' + pick));
        } else {
          s += kExtra[pick - 26];
        }
      }
      return Value{std::move(s)};
    }
    case 5: {
      Bytes b;
      std::uint32_t len = rng.bounded(16);
      for (std::uint32_t i = 0; i < len; ++i) {
        b.push_back(static_cast<std::uint8_t>(rng.bounded(256)));
      }
      return Value{std::move(b)};
    }
    case 6: {
      ValueArray array;
      std::uint32_t len = rng.bounded(4);
      for (std::uint32_t i = 0; i < len; ++i) {
        array.push_back(random_value(rng, depth - 1));
      }
      return Value{std::move(array)};
    }
    default: {
      ValueMap map;
      std::uint32_t len = rng.bounded(4);
      for (std::uint32_t i = 0; i < len; ++i) {
        map.emplace("k" + std::to_string(i), random_value(rng, depth - 1));
      }
      return Value{std::move(map)};
    }
  }
}

// ---- Value <-> bytes codec -----------------------------------------------------

/// A value's trip through XML-RPC wire text, as a response's result.
Result<Value> xml_rpc_round_trip(const Value& value) {
  EXC_ASSIGN_OR_RETURN(
      rpc::MethodResponse back,
      rpc::decode_response(rpc::encode(rpc::MethodResponse::success(value))));
  return std::move(back.result);
}

class ValueCodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValueCodecProperty, BinaryRoundTripIsIdentity) {
  Pcg32 rng(GetParam(), GetParam() ^ 0xABCD);
  for (int i = 0; i < 50; ++i) {
    Value original = random_value(rng, 3);
    ByteWriter w;
    w.value(original);
    ByteReader r(w.bytes());
    Result<Value> back = r.value();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), original);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST_P(ValueCodecProperty, XmlRpcRoundTripIsIdentity) {
  Pcg32 rng(GetParam(), GetParam() ^ 0x1234);
  for (int i = 0; i < 30; ++i) {
    Value original = random_value(rng, 2);
    Result<Value> back = xml_rpc_round_trip(original);
    ASSERT_TRUE(back.ok());
    // Doubles survive because format_double round-trips exactly.
    EXPECT_EQ(back.value(), original);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueCodecProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---- XML-RPC codec: special doubles ----------------------------------------

/// Value equality with IEEE edge semantics: any NaN matches any NaN, and
/// zeros must agree in sign (variant operator== would reject NaN==NaN and
/// accept -0.0==0.0, hiding codec defects either way).
bool equivalent(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kDouble: {
      double x = a.as_double();
      double y = b.as_double();
      if (std::isnan(x) || std::isnan(y)) {
        return std::isnan(x) && std::isnan(y);
      }
      return x == y && std::signbit(x) == std::signbit(y);
    }
    case ValueType::kArray: {
      const ValueArray& xs = a.as_array();
      const ValueArray& ys = b.as_array();
      if (xs.size() != ys.size()) return false;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (!equivalent(xs[i], ys[i])) return false;
      }
      return true;
    }
    case ValueType::kMap: {
      const ValueMap& xs = a.as_map();
      const ValueMap& ys = b.as_map();
      if (xs.size() != ys.size()) return false;
      auto it = ys.begin();
      for (const auto& [key, item] : xs) {
        if (it->first != key || !equivalent(item, it->second)) return false;
        ++it;
      }
      return true;
    }
    default:
      return a == b;
  }
}

double special_double(Pcg32& rng) {
  switch (rng.bounded(6)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::infinity();
    case 3: return -std::numeric_limits<double>::infinity();
    case 4: return std::numeric_limits<double>::denorm_min();
    default: return rng.uniform(-1e308, 1e308);
  }
}

Value random_edge_value(Pcg32& rng, int depth) {
  switch (depth <= 0 ? rng.bounded(2) : rng.bounded(4)) {
    case 0: return Value{special_double(rng)};
    case 1: return Value{static_cast<std::int64_t>(rng()) - INT32_MAX};
    case 2: {
      ValueArray array;
      std::uint32_t len = rng.bounded(4);
      for (std::uint32_t i = 0; i < len; ++i) {
        array.push_back(random_edge_value(rng, depth - 1));
      }
      return Value{std::move(array)};
    }
    default: {
      ValueMap map;
      std::uint32_t len = rng.bounded(4);
      for (std::uint32_t i = 0; i < len; ++i) {
        map.emplace("k" + std::to_string(i), random_edge_value(rng, depth - 1));
      }
      return Value{std::move(map)};
    }
  }
}

class RpcEdgeDoubleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RpcEdgeDoubleProperty, SpecialDoublesSurviveNestedRoundTrips) {
  Pcg32 rng(GetParam(), 0xD0B1);
  for (int i = 0; i < 60; ++i) {
    Value original = random_edge_value(rng, 3);
    Result<Value> back = xml_rpc_round_trip(original);
    ASSERT_TRUE(back.ok()) << back.error().to_string();
    EXPECT_TRUE(equivalent(back.value(), original)) << "iteration " << i;
  }
}

TEST_P(RpcEdgeDoubleProperty, DeterministicEdgeCases) {
  (void)GetParam();
  ValueMap nested;
  nested.emplace("nan", Value{std::numeric_limits<double>::quiet_NaN()});
  nested.emplace("neg_zero", Value{-0.0});
  nested.emplace("inf", Value{std::numeric_limits<double>::infinity()});
  ValueArray deep{Value{nested}, Value{-0.0}};
  Value original{ValueMap{{"deep", Value{deep}}}};

  Result<Value> back = xml_rpc_round_trip(original);
  ASSERT_TRUE(back.ok());
  const Value* round = back.value().find("deep");
  ASSERT_NE(round, nullptr);
  const ValueMap& map = round->as_array()[0].as_map();
  EXPECT_TRUE(std::isnan(map.at("nan").as_double()));
  EXPECT_TRUE(std::signbit(map.at("neg_zero").as_double()));
  EXPECT_EQ(map.at("neg_zero").as_double(), 0.0);
  EXPECT_TRUE(std::isinf(map.at("inf").as_double()));
  EXPECT_TRUE(std::signbit(round->as_array()[1].as_double()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpcEdgeDoubleProperty,
                         ::testing::Values(9, 27, 81));

// ---- XML escaping --------------------------------------------------------------

class XmlEscapingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlEscapingProperty, ArbitraryTextSurvivesElementRoundTrip) {
  Pcg32 rng(GetParam(), 99);
  const std::string alphabet = "ab<>&\"' \t\n;=[]{}";
  for (int i = 0; i < 40; ++i) {
    std::string text;
    std::uint32_t len = rng.bounded(40);
    for (std::uint32_t c = 0; c < len; ++c) {
      text.push_back(alphabet[rng.bounded(
          static_cast<std::uint32_t>(alphabet.size()))]);
    }
    xml::Document doc("t");
    doc.root().set_text(text);
    doc.root().set_attr("a", text);
    Result<xml::Document> back = xml::parse(
        xml::write(doc.root(), {.pretty = false, .declaration = false}));
    ASSERT_TRUE(back.ok());
    // Text content is whitespace-trimmed by the DOM accessor; compare
    // trimmed forms.  Attributes must match exactly.
    EXPECT_EQ(back.value().root().text(), strings::trim(text));
    EXPECT_EQ(*back.value().root().attr("a"), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlEscapingProperty,
                         ::testing::Values(7, 11, 19, 23));

// ---- random-DOM round trips and canonical invariance -----------------------

std::string random_markupish_text(Pcg32& rng, std::uint32_t max_len) {
  static const std::string alphabet = "abcXYZ<>&\"' \t\n;=[]{}]]>";
  std::string text;
  std::uint32_t len = rng.bounded(max_len);
  for (std::uint32_t i = 0; i < len; ++i) {
    text.push_back(alphabet[rng.bounded(
        static_cast<std::uint32_t>(alphabet.size()))]);
  }
  return text;
}

void grow_random_subtree(Pcg32& rng, xml::Element& into, int depth) {
  std::uint32_t attrs = rng.bounded(4);
  for (std::uint32_t a = 0; a < attrs; ++a) {
    into.set_attr("a" + std::to_string(a), random_markupish_text(rng, 12));
  }
  if (rng.bernoulli(0.6)) into.set_text(random_markupish_text(rng, 20));
  if (depth > 0) {
    std::uint32_t children = rng.bounded(4);
    for (std::uint32_t c = 0; c < children; ++c) {
      grow_random_subtree(
          rng, into.add_child("e" + std::to_string(rng.bounded(5))),
          depth - 1);
    }
  }
}

xml::Document random_document(Pcg32& rng) {
  xml::Document doc("root");
  grow_random_subtree(rng, doc.root(), 3);
  return doc;
}

/// Deep copy with every attribute list Fisher-Yates shuffled — a
/// presentation-only permutation the canonical writer must erase.
void copy_with_shuffled_attrs(Pcg32& rng, const xml::Element& from,
                              xml::Element& to) {
  std::vector<const xml::Attribute*> attrs;
  for (const xml::Attribute& attr : from.attributes()) attrs.push_back(&attr);
  for (std::size_t i = attrs.size(); i > 1; --i) {
    std::swap(attrs[i - 1], attrs[rng.bounded(static_cast<std::uint32_t>(i))]);
  }
  for (const xml::Attribute* attr : attrs) to.set_attr(attr->name, attr->value);
  const std::string text = from.text();
  if (!text.empty()) to.set_text(text);
  for (const xml::Element& child : from.children()) {
    copy_with_shuffled_attrs(rng, child, to.add_child(child.name()));
  }
}

class XmlDomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlDomProperty, ParseOfWriteIsIdentity) {
  Pcg32 rng(GetParam(), 0xD0C5);
  for (int i = 0; i < 200; ++i) {
    xml::Document doc = random_document(rng);
    // Compact and pretty serialisations must both re-parse to an
    // equal tree (equality compares trimmed text, which both writers
    // preserve).
    Result<xml::Document> compact = xml::parse(
        xml::write(doc.root(), {.pretty = false, .declaration = false}));
    ASSERT_TRUE(compact.ok()) << compact.error().to_string();
    EXPECT_TRUE(doc.root().equals(compact.value().root())) << "iteration "
                                                           << i;
    Result<xml::Document> pretty = xml::parse(xml::write(doc.root(), {}));
    ASSERT_TRUE(pretty.ok()) << pretty.error().to_string();
    EXPECT_TRUE(doc.root().equals(pretty.value().root())) << "iteration " << i;
  }
}

TEST_P(XmlDomProperty, CanonicalFormErasesPresentation) {
  Pcg32 rng(GetParam(), 0xCA40);
  for (int i = 0; i < 200; ++i) {
    xml::Document doc = random_document(rng);
    const std::string canonical = xml::write_canonical(doc.root());
    // Whitespace/indentation: canonical form survives a pretty round trip.
    Result<xml::Document> pretty = xml::parse(xml::write(doc.root(), {}));
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(xml::write_canonical(pretty.value().root()), canonical)
        << "iteration " << i;
    // Attribute order: canonical form is invariant under permutation.
    xml::Document shuffled(doc.root().name());
    copy_with_shuffled_attrs(rng, doc.root(), shuffled.root());
    EXPECT_EQ(xml::write_canonical(shuffled.root()), canonical)
        << "iteration " << i;
    // The streaming sink and the string writer must agree byte for byte.
    EXPECT_EQ(xml::canonical_size(doc.root()), canonical.size())
        << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlDomProperty,
                         ::testing::Values(5, 23, 77, 131));

// ---- SD message codec -------------------------------------------------------------

class SdCodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SdCodecProperty, RandomMessagesRoundTrip) {
  Pcg32 rng(GetParam(), 0x5D);
  const sd::MessageKind kinds[] = {
      sd::MessageKind::kQuery,        sd::MessageKind::kResponse,
      sd::MessageKind::kAnnounce,     sd::MessageKind::kGoodbye,
      sd::MessageKind::kProbe,        sd::MessageKind::kScmQuery,
      sd::MessageKind::kScmAdvert,    sd::MessageKind::kRegister,
      sd::MessageKind::kRegisterAck,  sd::MessageKind::kDeregister,
      sd::MessageKind::kDirectedQuery, sd::MessageKind::kDirectedReply};
  for (int i = 0; i < 60; ++i) {
    sd::SdMessage message;
    message.kind = kinds[rng.bounded(12)];
    message.txn_id = rng();
    message.service_type = "_t" + std::to_string(rng.bounded(100));
    message.sender_name = "n" + std::to_string(rng.bounded(100));
    message.lease_seconds = rng.bounded(1000);
    std::uint32_t records = rng.bounded(4);
    for (std::uint32_t r = 0; r < records; ++r) {
      sd::ServiceRecord record;
      record.instance.instance_name = "i" + std::to_string(rng());
      record.instance.type = message.service_type;
      record.instance.provider = net::Address(rng());
      record.instance.port = static_cast<net::Port>(rng.bounded(65536));
      record.instance.version = rng.bounded(10);
      std::uint32_t attrs = rng.bounded(3);
      for (std::uint32_t a = 0; a < attrs; ++a) {
        record.instance.attributes["k" + std::to_string(a)] =
            "v" + std::to_string(rng.bounded(10));
      }
      record.ttl_seconds = rng.bounded(300);
      message.records.push_back(std::move(record));
    }
    std::uint32_t known = rng.bounded(3);
    for (std::uint32_t k = 0; k < known; ++k) {
      message.known_answers.push_back(
          {"ka" + std::to_string(k), rng.bounded(120)});
    }
    Result<sd::SdMessage> back = sd::decode(sd::encode(message));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), message);
  }
}

TEST_P(SdCodecProperty, TruncationNeverCrashesDecoder) {
  Pcg32 rng(GetParam(), 0xDEAD);
  sd::SdMessage message;
  message.kind = sd::MessageKind::kResponse;
  message.service_type = "_t._udp";
  message.sender_name = "node";
  sd::ServiceRecord record;
  record.instance.instance_name = "instance";
  record.instance.type = "_t._udp";
  record.instance.attributes["key"] = "value";
  message.records.push_back(record);
  Bytes wire = sd::encode(message);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes truncated(wire.begin(),
                    wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(sd::decode(truncated).ok());
  }
  // Random corruption: decode either fails or returns *something*; it must
  // never crash, hang or read out of bounds.
  for (int i = 0; i < 100; ++i) {
    Bytes corrupted = wire;
    corrupted[rng.bounded(static_cast<std::uint32_t>(corrupted.size()))] =
        static_cast<std::uint8_t>(rng.bounded(256));
    (void)sd::decode(corrupted);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SdCodecProperty,
                         ::testing::Values(101, 202, 303));

// ---- routing invariants ----------------------------------------------------------

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperty, PathsAreConsistentOnRandomGraphs) {
  Result<net::Topology> topology =
      net::Topology::random_geometric(18, 0.4, GetParam());
  ASSERT_TRUE(topology.ok());
  net::RoutingTable routing(topology.value());
  std::size_t n = topology.value().node_count();
  for (net::NodeId a = 0; a < n; ++a) {
    for (net::NodeId b = 0; b < n; ++b) {
      int hops = routing.hop_count(a, b);
      // Connected graph: everything reachable; distance symmetric.
      ASSERT_GE(hops, 0);
      EXPECT_EQ(hops, routing.hop_count(b, a));
      std::vector<net::NodeId> path = routing.path(a, b);
      ASSERT_EQ(path.size(), static_cast<std::size_t>(hops) + 1);
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      // Every consecutive pair is adjacent; the path is loop-free.
      std::set<net::NodeId> seen;
      for (std::size_t i = 0; i < path.size(); ++i) {
        EXPECT_TRUE(seen.insert(path[i]).second);
        if (i + 1 < path.size()) {
          EXPECT_NE(topology.value().link_between(path[i], path[i + 1]),
                    nullptr);
        }
      }
      // Triangle inequality over hop metric.
      for (net::NodeId c = 0; c < n; c += 5) {
        EXPECT_LE(hops,
                  routing.hop_count(a, c) + routing.hop_count(c, b));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty,
                         ::testing::Values(1, 2, 3, 4));

// ---- conditioning invariant ---------------------------------------------------------

class ConditioningProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ConditioningProperty, OffsetCorrectionInvertsClockShift) {
  std::int64_t offset = GetParam();
  Pcg32 rng(static_cast<std::uint64_t>(offset) ^ 42, 7);
  for (int i = 0; i < 100; ++i) {
    auto common_ns = static_cast<std::int64_t>(rng.bounded(1'000'000'000));
    std::int64_t local_ns = common_ns + offset;
    EXPECT_NEAR(storage::to_common_time(local_ns, offset),
                static_cast<double>(common_ns) / 1e9, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, ConditioningProperty,
                         ::testing::Values(-50'000'000, -1'000, 0, 1'000,
                                           50'000'000, 2'000'000'000));

// ---- deterministic replay across seeds -----------------------------------------------

struct SweepParam {
  std::uint64_t seed;
  int sm_count;
};

class ExperimentSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ExperimentSweep, EveryConfigurationCompletesAndIsCoherent) {
  core::scenario::TwoPartyOptions options;
  options.sm_count = GetParam().sm_count;
  options.replications = 2;
  options.environment_count = 1;
  Result<core::ExperimentDescription> description =
      core::scenario::two_party_sd(options);
  ASSERT_TRUE(description.ok());
  Result<net::Topology> topology =
      core::scenario::topology_for(description.value(), {});
  ASSERT_TRUE(topology.ok());
  core::SimPlatformConfig config;
  config.topology = std::move(topology).value();
  config.seed = GetParam().seed;
  Result<std::unique_ptr<core::SimPlatform>> platform =
      core::SimPlatform::create(description.value(), std::move(config));
  ASSERT_TRUE(platform.ok());
  core::ExperiMaster master(description.value(), *platform.value());
  Result<storage::ExperimentPackage> package = master.execute();
  ASSERT_TRUE(package.ok()) << package.error().to_string();

  // Invariants that must hold for every configuration:
  // (1) all runs completed,
  EXPECT_EQ(package.value().run_ids().size(), 2u);
  // (2) every provider discovered in every run (clean network),
  Result<std::vector<stats::RunDiscovery>> discoveries =
      stats::discoveries(package.value());
  ASSERT_TRUE(discoveries.ok());
  for (const stats::RunDiscovery& run : discoveries.value()) {
    EXPECT_EQ(run.latencies.size(),
              static_cast<std::size_t>(GetParam().sm_count));
  }
  // (3) causally coherent packet pairing,
  Result<std::size_t> violations =
      stats::causal_violations(package.value());
  ASSERT_TRUE(violations.ok());
  EXPECT_EQ(violations.value(), 0u);
  // (4) per-run event lists non-decreasing in time.
  for (std::int64_t run_id : package.value().run_ids()) {
    Result<std::vector<storage::EventRow>> events =
        package.value().events(run_id);
    ASSERT_TRUE(events.ok());
    for (std::size_t i = 1; i < events.value().size(); ++i) {
      EXPECT_LE(events.value()[i - 1].common_time,
                events.value()[i].common_time);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExperimentSweep,
    ::testing::Values(SweepParam{1, 1}, SweepParam{1, 2}, SweepParam{1, 3},
                      SweepParam{2, 1}, SweepParam{2, 2}, SweepParam{3, 1},
                      SweepParam{3, 3}, SweepParam{4, 2}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "sm" +
             std::to_string(info.param.sm_count);
    });

// ---- scheduler determinism under random workloads ---------------------------------------

class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperty, ExecutionOrderIndependentOfHeapInternals) {
  auto trace = [](std::uint64_t seed) {
    sim::Scheduler scheduler;
    Pcg32 rng(seed, 1);
    std::vector<int> order;
    std::function<void(int)> spawn = [&](int id) {
      order.push_back(id);
      if (order.size() < 200) {
        scheduler.schedule(
            sim::SimDuration(rng.bounded(1000)),
            [&spawn, next = static_cast<int>(order.size() * 1000)] {
              spawn(next);
            });
      }
    };
    for (int i = 0; i < 10; ++i) {
      scheduler.schedule(sim::SimDuration(rng.bounded(1000)),
                         [&spawn, i] { spawn(i); });
    }
    scheduler.run();
    return order;
  };
  EXPECT_EQ(trace(GetParam()), trace(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Values(11, 22, 33, 44, 55));


// ---- level-2 store serialisation -----------------------------------------------

class Level2Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Level2Property, NodeStoreRoundTripsRandomContent) {
  Pcg32 rng(GetParam(), 0x4C32);
  storage::NodeStore store;
  std::uint32_t events = rng.bounded(60);
  for (std::uint32_t i = 0; i < events; ++i) {
    storage::RawEvent event;
    event.run_id = rng.bounded(10);
    event.local_time_ns = static_cast<std::int64_t>(rng()) - INT32_MAX;
    event.type = "type" + std::to_string(rng.bounded(8));
    event.parameter = random_value(rng, 2);
    store.record_event(std::move(event));
  }
  std::uint32_t packets = rng.bounded(30);
  for (std::uint32_t i = 0; i < packets; ++i) {
    storage::RawPacket packet;
    packet.run_id = rng.bounded(10);
    packet.local_time_ns = rng();
    packet.src_node = "n" + std::to_string(rng.bounded(5));
    std::uint32_t len = rng.bounded(64);
    for (std::uint32_t b = 0; b < len; ++b) {
      packet.data.push_back(static_cast<std::uint8_t>(rng.bounded(256)));
    }
    store.record_packet(std::move(packet));
  }
  store.append_log("log " + std::to_string(GetParam()));
  store.add_run_blob(1, "blob", "content");
  store.add_plugin_measurement(2, "plug", "metric", "v");

  Result<storage::NodeStore> back =
      storage::NodeStore::deserialize(store.serialize());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().events().size(), store.events().size());
  for (std::size_t i = 0; i < store.events().size(); ++i) {
    EXPECT_EQ(back.value().events()[i].run_id, store.events()[i].run_id);
    EXPECT_EQ(back.value().events()[i].local_time_ns,
              store.events()[i].local_time_ns);
    EXPECT_EQ(back.value().events()[i].type, store.events()[i].type);
    EXPECT_EQ(back.value().events()[i].parameter,
              store.events()[i].parameter);
  }
  ASSERT_EQ(back.value().packets().size(), store.packets().size());
  for (std::size_t i = 0; i < store.packets().size(); ++i) {
    EXPECT_EQ(back.value().packets()[i].data, store.packets()[i].data);
  }
  EXPECT_EQ(back.value().log(), store.log());
  EXPECT_EQ(back.value().blobs().size(), 1u);
  EXPECT_EQ(back.value().plugin_data().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Level2Property,
                         ::testing::Values(41, 42, 43, 44));

// ---- treatment plan completeness ------------------------------------------------

class PlanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanProperty, PlanIsAPermutationOfTheFullFactorial) {
  // Whatever mixture of usages the factors carry, the generated plan must
  // contain every level combination exactly `replications` times.
  Pcg32 rng(GetParam(), 0x9A);
  core::ExperimentDescription description;
  description.name = "plan-prop";
  description.seed = GetParam();
  description.abstract_nodes = {"A"};
  description.replications = static_cast<int>(1 + rng.bounded(4));
  description.replication_factor_id = "rep";
  const core::FactorUsage usages[] = {core::FactorUsage::kBlocking,
                                      core::FactorUsage::kConstant,
                                      core::FactorUsage::kRandom};
  std::uint32_t factor_count = 1 + rng.bounded(3);
  std::size_t combinations = 1;
  for (std::uint32_t f = 0; f < factor_count; ++f) {
    core::Factor factor;
    factor.id = "f" + std::to_string(f);
    factor.type = "int";
    factor.usage = usages[rng.bounded(3)];
    std::uint32_t levels = 1 + rng.bounded(4);
    combinations *= levels;
    for (std::uint32_t l = 0; l < levels; ++l) {
      factor.levels.emplace_back(static_cast<std::int64_t>(l));
    }
    description.factors.push_back(std::move(factor));
  }

  Result<core::TreatmentPlan> plan =
      core::TreatmentPlan::generate(description);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().treatment_count(), combinations);
  EXPECT_EQ(plan.value().run_count(),
            combinations * static_cast<std::size_t>(description.replications));

  // Count distinct full assignments.
  std::map<std::string, int> counts;
  for (const core::RunSpec& run : plan.value().runs()) {
    std::string key;
    for (const core::Factor& factor : description.factors) {
      key += factor.id + "=" +
             std::to_string(run.treatment.level_int(factor.id).value()) + ";";
    }
    counts[key]++;
  }
  EXPECT_EQ(counts.size(), combinations);
  for (const auto& [key, count] : counts) {
    EXPECT_EQ(count, description.replications) << key;
  }
  // Run ids are 1..N in order.
  for (std::size_t i = 0; i < plan.value().runs().size(); ++i) {
    EXPECT_EQ(plan.value().runs()[i].run_id,
              static_cast<std::int64_t>(i + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanProperty,
                         ::testing::Values(1, 7, 13, 29, 57, 99));

// ---- incremental routing repair under link churn --------------------------------

class RoutingChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingChurnProperty, IncrementalRepairMatchesFullRebuild) {
  // Random flap sequence: after every single-link toggle, the incrementally
  // repaired table must be indistinguishable from a full rebuild over the
  // same reduced graph — including disconnected segments mid-sequence.
  Result<net::Topology> topology =
      net::Topology::random_geometric(14, 0.45, GetParam());
  ASSERT_TRUE(topology.ok());
  const net::Topology& topo = topology.value();
  std::size_t n = topo.node_count();
  std::vector<net::LinkKey> links;
  for (net::NodeId a = 0; a < n; ++a) {
    for (net::NodeId b = a + 1; b < n; ++b) {
      if (topo.link_between(a, b) != nullptr) links.push_back({a, b});
    }
  }
  ASSERT_FALSE(links.empty());

  net::RoutingTable incremental(topo);
  // A second engine with a tiny row cache: eviction and recomputation under
  // pressure must not change any answer (rows are pure functions of the
  // reduced graph).
  net::RoutingTable thrashed(topo);
  thrashed.set_row_cache_capacity(3);
  net::RoutingTable reference(topo);
  net::LinkSet disabled;
  Pcg32 rng(GetParam(), 0xFA11);
  for (int step = 0; step < 60; ++step) {
    const net::LinkKey& link =
        links[rng.bounded(static_cast<std::uint32_t>(links.size()))];
    bool enable = disabled.contains(link.first, link.second);
    incremental.set_link_enabled(link.first, link.second, enable);
    thrashed.set_link_enabled(link.first, link.second, enable);
    if (enable) {
      disabled.erase(link.first, link.second);
    } else {
      disabled.insert(link.first, link.second);
    }
    reference.rebuild(topo, disabled);
    for (net::NodeId a = 0; a < n; ++a) {
      for (net::NodeId b = 0; b < n; ++b) {
        ASSERT_EQ(incremental.hop_count(a, b), reference.hop_count(a, b))
            << "step " << step << " pair " << a << "->" << b;
        ASSERT_EQ(incremental.next_hop(a, b), reference.next_hop(a, b))
            << "step " << step << " pair " << a << "->" << b;
        ASSERT_EQ(thrashed.hop_count(a, b), reference.hop_count(a, b))
            << "thrashed, step " << step << " pair " << a << "->" << b;
        ASSERT_EQ(thrashed.next_hop(a, b), reference.next_hop(a, b))
            << "thrashed, step " << step << " pair " << a << "->" << b;
      }
    }
    EXPECT_LE(thrashed.cached_row_count(), 3u);
  }
}

TEST_P(RoutingChurnProperty, LazyRepairSurvivesPartitionBulkToggles) {
  // Partition-style bulk sequences: several links toggled per step through
  // set_link_enabled with only sparse interleaved queries, so most cached
  // rows go stale between queries rather than being refreshed each step.
  Result<net::Topology> topology =
      net::Topology::random_geometric(16, 0.42, GetParam() ^ 0xBEEF);
  ASSERT_TRUE(topology.ok());
  const net::Topology& topo = topology.value();
  std::size_t n = topo.node_count();
  std::vector<net::LinkKey> links;
  for (net::NodeId a = 0; a < n; ++a) {
    for (net::NodeId b = a + 1; b < n; ++b) {
      if (topo.link_between(a, b) != nullptr) links.push_back({a, b});
    }
  }
  net::RoutingTable lazy(topo);
  net::RoutingTable reference(topo);
  net::LinkSet disabled;
  Pcg32 rng(GetParam(), 0x9A27);
  for (int step = 0; step < 60; ++step) {
    std::uint32_t toggles = 1 + rng.bounded(4);
    for (std::uint32_t t = 0; t < toggles; ++t) {
      const net::LinkKey& link =
          links[rng.bounded(static_cast<std::uint32_t>(links.size()))];
      bool enable = disabled.contains(link.first, link.second);
      lazy.set_link_enabled(link.first, link.second, enable);
      if (enable) {
        disabled.erase(link.first, link.second);
      } else {
        disabled.insert(link.first, link.second);
      }
    }
    // Sparse queries: a handful of random pairs, then (every few steps) a
    // full sweep against an eager reference rebuilt from scratch.
    reference.rebuild(topo, disabled);
    for (int q = 0; q < 5; ++q) {
      net::NodeId a = rng.bounded(static_cast<std::uint32_t>(n));
      net::NodeId b = rng.bounded(static_cast<std::uint32_t>(n));
      ASSERT_EQ(lazy.next_hop(a, b), reference.next_hop(a, b))
          << "step " << step << " pair " << a << "->" << b;
    }
    if (step % 7 == 0) {
      for (net::NodeId a = 0; a < n; ++a) {
        for (net::NodeId b = 0; b < n; ++b) {
          ASSERT_EQ(lazy.hop_count(a, b), reference.hop_count(a, b))
              << "sweep at step " << step << " pair " << a << "->" << b;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingChurnProperty,
                         ::testing::Values(3, 17, 58));

// ---- spatial-indexed geometric generation ----------------------------------------

/// Reference implementation: the pre-spatial-index O(V²) pairwise scan the
/// grid-indexed generator must reproduce byte for byte.
Result<net::Topology> naive_random_geometric(std::size_t size, double radius,
                                             std::uint64_t seed) {
  constexpr int kMaxAttempts = 64;
  RngFactory factory(seed);
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    Pcg32 rng = factory.stream("geometric-topology",
                               static_cast<std::uint64_t>(attempt));
    net::Topology topo;
    for (std::size_t i = 0; i < size; ++i) {
      topo.add_node("n" + std::to_string(i), rng.uniform01(), rng.uniform01());
    }
    for (std::size_t i = 0; i < size; ++i) {
      for (std::size_t j = i + 1; j < size; ++j) {
        double dx = topo.nodes()[i].x - topo.nodes()[j].x;
        double dy = topo.nodes()[i].y - topo.nodes()[j].y;
        if (std::sqrt(dx * dx + dy * dy) <= radius) {
          (void)topo.connect(static_cast<net::NodeId>(i),
                             static_cast<net::NodeId>(j), {});
        }
      }
    }
    if (topo.connected()) return topo;
  }
  return err_invalid("naive geometric generation failed");
}

struct GeometricParam {
  std::uint64_t seed;
  std::size_t size;
  double radius;
};

class GeometricIndexProperty
    : public ::testing::TestWithParam<GeometricParam> {};

TEST_P(GeometricIndexProperty, GridIndexedGenerationMatchesNaiveScanExactly) {
  const GeometricParam& param = GetParam();
  Result<net::Topology> indexed =
      net::Topology::random_geometric(param.size, param.radius, param.seed);
  Result<net::Topology> naive =
      naive_random_geometric(param.size, param.radius, param.seed);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(indexed.value().node_count(), naive.value().node_count());
  for (std::size_t i = 0; i < naive.value().node_count(); ++i) {
    // Positions drawn from the identical RNG stream: bit-equal doubles.
    EXPECT_EQ(indexed.value().nodes()[i].x, naive.value().nodes()[i].x);
    EXPECT_EQ(indexed.value().nodes()[i].y, naive.value().nodes()[i].y);
    EXPECT_EQ(indexed.value().nodes()[i].name, naive.value().nodes()[i].name);
  }
  // The link *sequence* must match, not just the link set: downstream
  // consumers (CSR layouts, flood fan-out order, capture streams) depend on
  // declaration order.
  ASSERT_EQ(indexed.value().link_count(), naive.value().link_count());
  for (std::size_t l = 0; l < naive.value().link_count(); ++l) {
    EXPECT_EQ(indexed.value().links()[l].a, naive.value().links()[l].a)
        << "link " << l;
    EXPECT_EQ(indexed.value().links()[l].b, naive.value().links()[l].b)
        << "link " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GeometricIndexProperty,
    ::testing::Values(GeometricParam{1, 40, 0.3},
                      GeometricParam{7, 120, 0.18},
                      GeometricParam{21, 300, 0.12},
                      GeometricParam{33, 80, 0.9},    // radius ~ whole square
                      GeometricParam{58, 250, 0.14}),
    [](const ::testing::TestParamInfo<GeometricParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "n" +
             std::to_string(info.param.size);
    });

// ---- dynamic-world determinism (DESIGN.md §12) ----------------------------------

/// Executes the canonical scenario with churn + bursty loss + a timed
/// partition all active and returns the conditioned package bytes.
Result<Bytes> dynamic_world_package(std::uint64_t seed,
                                    core::MasterOptions master_options) {
  core::scenario::TwoPartyOptions options;
  options.replications = 2;
  options.environment_count = 1;
  options.deadline_s = 10.0;
  options.dynamic.sm_churn = true;
  options.dynamic.churn_mean_uptime_s = 2.0;
  options.dynamic.churn_mean_downtime_s = 0.5;
  options.dynamic.ge_loss = true;
  options.dynamic.ge_p_enter_bad = 0.02;
  options.dynamic.ge_p_exit_bad = 0.4;
  options.dynamic.partition_nodes = {"ENV0"};
  options.dynamic.partition_start_s = 1.0;
  options.dynamic.partition_duration_s = 3.0;
  EXC_ASSIGN_OR_RETURN(core::ExperimentDescription description,
                       core::scenario::two_party_sd(options));
  EXC_ASSIGN_OR_RETURN(net::Topology topology,
                       core::scenario::topology_for(description, {}));
  core::SimPlatformConfig config;
  config.topology = std::move(topology);
  config.seed = seed;
  EXC_ASSIGN_OR_RETURN(std::unique_ptr<core::SimPlatform> platform,
                       core::SimPlatform::create(description,
                                                 std::move(config)));
  core::ExperiMaster master(description, *platform,
                            std::move(master_options));
  EXC_ASSIGN_OR_RETURN(storage::ExperimentPackage package, master.execute());
  return package.database().serialize();
}

class DynamicWorldProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicWorldProperty, PackageBitIdenticalAcrossWorkersAndRetries) {
  core::MasterOptions sequential;
  sequential.run_workers = 1;
  Result<Bytes> baseline = dynamic_world_package(GetParam(), sequential);
  ASSERT_TRUE(baseline.ok()) << baseline.error().to_string();
  ASSERT_FALSE(baseline.value().empty());

  for (std::size_t workers : {std::size_t{4}, std::size_t{0}}) {
    core::MasterOptions parallel;
    parallel.run_workers = workers;
    Result<Bytes> bytes = dynamic_world_package(GetParam(), parallel);
    ASSERT_TRUE(bytes.ok()) << bytes.error().to_string();
    EXPECT_EQ(bytes.value(), baseline.value()) << "run_workers=" << workers;
  }

  // Retries in the mix: an aborted first attempt replays the exact same
  // churn/loss/partition realisation (schedules seed from the replication
  // factor, not the attempt), so a parallel execution with a forced retry
  // still matches the sequential execution with the same retry pattern.
  auto flaky_hook = [](std::int64_t run_id, int attempt) {
    return run_id == 1 && attempt == 1;
  };
  core::MasterOptions flaky_sequential;
  flaky_sequential.run_workers = 1;
  flaky_sequential.abort_hook = flaky_hook;
  Result<Bytes> retried_baseline =
      dynamic_world_package(GetParam(), flaky_sequential);
  ASSERT_TRUE(retried_baseline.ok())
      << retried_baseline.error().to_string();

  core::MasterOptions flaky_parallel;
  flaky_parallel.run_workers = 2;
  flaky_parallel.abort_hook = flaky_hook;
  Result<Bytes> retried = dynamic_world_package(GetParam(), flaky_parallel);
  ASSERT_TRUE(retried.ok()) << retried.error().to_string();
  EXPECT_EQ(retried.value(), retried_baseline.value()) << "with forced retry";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicWorldProperty,
                         ::testing::Values(11, 29));

// ---- storage: random tables -----------------------------------------------------

/// Random column over the storable scalar types (bytes exercises the
/// generic column path).  Small value domains force hash-index buckets
/// with many rows and probes that actually hit.
storage::TableSchema random_schema(Pcg32& rng, int index) {
  storage::TableSchema schema;
  schema.name = "T" + std::to_string(index);
  static constexpr ValueType kTypes[] = {ValueType::kInt, ValueType::kDouble,
                                         ValueType::kBool, ValueType::kString,
                                         ValueType::kBytes};
  std::uint32_t columns = 2 + rng.bounded(4);
  for (std::uint32_t c = 0; c < columns; ++c) {
    storage::Column column;
    column.name = "c" + std::to_string(c);
    column.type = kTypes[rng.bounded(5)];
    column.nullable = rng.bernoulli(0.5);
    schema.columns.push_back(std::move(column));
  }
  return schema;
}

Value random_cell(Pcg32& rng, const storage::Column& column) {
  if (column.nullable && rng.bernoulli(0.2)) return Value{};
  switch (column.type) {
    case ValueType::kInt:
      return Value{static_cast<std::int64_t>(rng.bounded(8)) - 3};
    case ValueType::kDouble: {
      // Int cells in double columns and the -0.0 == 0.0 normalisation are
      // both part of the equality contract under test.
      switch (rng.bounded(6)) {
        case 0: return Value{0.0};
        case 1: return Value{-0.0};
        case 2: return Value{1.5};
        case 3: return Value{static_cast<std::int64_t>(rng.bounded(4))};
        case 4: return Value{-2.25e6};
        default: return Value{0.125};
      }
    }
    case ValueType::kBool:
      return Value{rng.bernoulli(0.5)};
    case ValueType::kString:
      return Value{"s" + std::to_string(rng.bounded(6))};
    default: {  // kBytes
      Bytes bytes;
      std::uint32_t len = rng.bounded(4);
      for (std::uint32_t i = 0; i < len; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng.bounded(4)));
      }
      return Value{std::move(bytes)};
    }
  }
}

storage::Row random_row(Pcg32& rng, const storage::TableSchema& schema) {
  storage::Row row;
  row.reserve(schema.columns.size());
  for (const storage::Column& column : schema.columns) {
    row.push_back(random_cell(rng, column));
  }
  return row;
}

class StorageProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageProperty, SerializeDeserializeRoundTripsRandomDatabases) {
  Pcg32 rng(GetParam(), GetParam() ^ 0x5707A6E);
  storage::Database db;
  std::vector<std::vector<storage::Row>> contents;
  const int tables = 1 + static_cast<int>(rng.bounded(3));
  for (int t = 0; t < tables; ++t) {
    storage::TableSchema schema = random_schema(rng, t);
    Result<storage::Table*> table = db.create_table(schema);
    ASSERT_TRUE(table.ok());
    std::vector<storage::Row> rows;
    std::uint32_t count = rng.bounded(60);
    for (std::uint32_t r = 0; r < count; ++r) {
      rows.push_back(random_row(rng, schema));
      ASSERT_TRUE(table.value()->insert(rows.back()).ok());
    }
    contents.push_back(std::move(rows));
  }

  Bytes bytes = db.serialize();
  Result<storage::Database> back = storage::Database::deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  ASSERT_EQ(back.value().table_names(), db.table_names());
  for (int t = 0; t < tables; ++t) {
    const storage::Table* table =
        back.value().table("T" + std::to_string(t));
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(table->row_count(), contents[t].size());
    for (std::size_t r = 0; r < contents[t].size(); ++r) {
      EXPECT_EQ(table->row(r).materialize(), contents[t][r])
          << "table " << t << " row " << r;
    }
  }
  // Deserialisation is lossless enough to re-serialise byte-identically
  // (string pools round-trip in interning order).
  EXPECT_EQ(back.value().serialize(), bytes);
}

TEST_P(StorageProperty, IndexedSelectMatchesLinearScanExactly) {
  Pcg32 rng(GetParam(), GetParam() ^ 0x1DE8);
  storage::TableSchema schema = random_schema(rng, 0);
  storage::Table table(schema);
  auto insert_rows = [&](std::uint32_t count) {
    for (std::uint32_t r = 0; r < count; ++r) {
      ASSERT_TRUE(table.insert(random_row(rng, schema)).ok());
    }
  };
  auto check_column = [&](const storage::Column& column) {
    // Probe with existing cells, fresh random cells and an explicit null:
    // the hash-indexed path must reproduce the scan's rows, order included.
    std::vector<Value> probes;
    std::optional<std::size_t> index = schema.column_index(column.name);
    ASSERT_TRUE(index.has_value());
    for (int i = 0; i < 4 && table.row_count() > 0; ++i) {
      probes.push_back(
          table.row(rng.bounded(static_cast<std::uint32_t>(
              table.row_count())))[*index]);
    }
    for (int i = 0; i < 4; ++i) probes.push_back(random_cell(rng, column));
    probes.push_back(Value{});
    for (const Value& probe : probes) {
      std::vector<storage::RowView> indexed =
          table.select_equals(column.name, probe);
      std::vector<storage::RowView> scanned = table.select(
          [&](const storage::RowView& row) { return row[*index] == probe; });
      ASSERT_EQ(indexed.size(), scanned.size()) << column.name;
      EXPECT_EQ(table.count_equals(column.name, probe), scanned.size());
      for (std::size_t i = 0; i < indexed.size(); ++i) {
        EXPECT_EQ(indexed[i].index(), scanned[i].index());
      }
    }
  };

  insert_rows(40);
  for (const storage::Column& column : schema.columns) check_column(column);
  // The index is maintained incrementally: after further inserts the
  // already-built structures must keep matching a fresh scan.
  insert_rows(25);
  for (const storage::Column& column : schema.columns) check_column(column);
}

TEST_P(StorageProperty, OrderByMatchesStableSortOfScan) {
  Pcg32 rng(GetParam(), GetParam() ^ 0x0B5E);
  storage::TableSchema schema = random_schema(rng, 0);
  storage::Table table(schema);
  for (std::uint32_t r = 0; r < 50; ++r) {
    ASSERT_TRUE(table.insert(random_row(rng, schema)).ok());
  }
  for (std::size_t c = 0; c < schema.columns.size(); ++c) {
    Result<std::vector<storage::RowView>> ordered =
        table.order_by(schema.columns[c].name);
    ASSERT_TRUE(ordered.ok());
    std::vector<std::uint32_t> expected(table.row_count());
    std::iota(expected.begin(), expected.end(), 0u);
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return table.row(a)[c] < table.row(b)[c];
                     });
    ASSERT_EQ(ordered.value().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(ordered.value()[i].index(), expected[i])
          << "column " << schema.columns[c].name << " position " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageProperty,
                         ::testing::Values(3, 17, 41, 97, 131));

}  // namespace
}  // namespace excovery
