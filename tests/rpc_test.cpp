// Unit tests for the XML-RPC control channel: codec, server dispatch,
// transport, client faults.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "rpc/codec.hpp"
#include "rpc/endpoint.hpp"

namespace excovery::rpc {
namespace {

// ---- codec: values ------------------------------------------------------------

/// A value's trip through real wire text, as the single parameter of a call.
Value round_trip(const Value& value) {
  Result<MethodCall> back = decode_call(encode(MethodCall{"m", {value}}));
  EXPECT_TRUE(back.ok()) << (back.ok() ? "" : back.error().to_string());
  if (!back.ok() || back.value().params.size() != 1) return Value{};
  return back.value().params[0];
}

/// Decode one <value> element carried as the single parameter of a call.
Result<Value> decode_param(const std::string& value_xml) {
  EXC_ASSIGN_OR_RETURN(
      MethodCall call,
      decode_call("<methodCall><methodName>m</methodName><params><param>" +
                  value_xml + "</param></params></methodCall>"));
  if (call.params.size() != 1) return err_parse("expected one parameter");
  return call.params[0];
}

TEST(RpcCodec, ScalarRoundTrips) {
  EXPECT_EQ(round_trip(Value{}), Value{});
  EXPECT_EQ(round_trip(Value{true}), Value{true});
  EXPECT_EQ(round_trip(Value{false}), Value{false});
  EXPECT_EQ(round_trip(Value{42}), Value{42});
  EXPECT_EQ(round_trip(Value{-1}), Value{-1});
  EXPECT_EQ(round_trip(Value{2.5}), Value{2.5});
  EXPECT_EQ(round_trip(Value{"text with <markup> & stuff"}),
            Value{"text with <markup> & stuff"});
}

TEST(RpcCodec, WideIntegersUseI8Extension) {
  std::int64_t wide = 5'000'000'000LL;
  EXPECT_EQ(round_trip(Value{wide}), Value{wide});
  std::string wire = encode(MethodCall{"m", {Value{wide}}});
  EXPECT_NE(wire.find("<value><i8>5000000000</i8></value>"),
            std::string::npos);
}

TEST(RpcCodec, Base64RoundTripsAllLengths) {
  for (std::size_t len : {0u, 1u, 2u, 3u, 4u, 17u, 255u}) {
    Bytes data;
    for (std::size_t i = 0; i < len; ++i) {
      data.push_back(static_cast<std::uint8_t>(i * 7 + 3));
    }
    EXPECT_EQ(round_trip(Value{data}), Value{data}) << len;
  }
}

TEST(RpcCodec, ArraysAndStructsNest) {
  ValueMap inner;
  inner.emplace("k", Value{1});
  ValueArray array{Value{"a"}, Value{inner}, Value{ValueArray{Value{2}}}};
  EXPECT_EQ(round_trip(Value{array}), Value{array});
}

TEST(RpcCodec, BareValueTextIsString) {
  Result<Value> value = decode_param("<value>plain</value>");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), Value{"plain"});
}

TEST(RpcCodec, BareValueTextIsTrimmed) {
  Result<Value> value = decode_param("<value>\n  plain text \t</value>");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), Value{"plain text"});
  EXPECT_EQ(decode_param("<value/>").value(), Value{""});
}

TEST(RpcCodec, StringWhitespaceSurvives) {
  for (const char* text : {" a ", "\ta\n", "   ", "\r\n", " <&> "}) {
    EXPECT_EQ(round_trip(Value{text}), Value{text}) << '"' << text << '"';
  }
  EXPECT_EQ(decode_param("<value><string> a </string></value>").value(),
            Value{" a "});
}

TEST(RpcCodec, I4AliasAccepted) {
  EXPECT_EQ(decode_param("<value><i4>7</i4></value>").value(), Value{7});
}

TEST(RpcCodec, UnknownScalarRejected) {
  EXPECT_FALSE(
      decode_param("<value><dateTime.iso8601>x</dateTime.iso8601></value>")
          .ok());
}

// ---- codec: messages ------------------------------------------------------------

TEST(RpcCodec, CallRoundTrip) {
  MethodCall call{"sd_init", {Value{"SM"}, Value{42}}};
  Result<MethodCall> back = decode_call(encode(call));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().method, "sd_init");
  ASSERT_EQ(back.value().params.size(), 2u);
  EXPECT_EQ(back.value().params[0], Value{"SM"});
  EXPECT_EQ(back.value().params[1], Value{42});
}

TEST(RpcCodec, EmptyParamsAllowed) {
  MethodCall call{"run_exit", {}};
  Result<MethodCall> back = decode_call(encode(call));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().params.empty());
}

TEST(RpcCodec, ResponseRoundTrip) {
  Result<MethodResponse> ok =
      decode_response(encode(MethodResponse::success(Value{"done"})));
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(ok.value().is_fault);
  EXPECT_EQ(ok.value().result, Value{"done"});
}

TEST(RpcCodec, FaultRoundTrip) {
  Result<MethodResponse> fault =
      decode_response(encode(MethodResponse::fault(-32601, "no such method")));
  ASSERT_TRUE(fault.ok());
  EXPECT_TRUE(fault.value().is_fault);
  EXPECT_EQ(fault.value().fault_code, -32601);
  EXPECT_EQ(fault.value().fault_string, "no such method");
}

TEST(RpcCodec, OutOfRangeFaultCodeRejected) {
  auto fault_with_code = [](const std::string& code) {
    return "<methodResponse><fault><value><struct><member><name>faultCode"
           "</name><value>" +
           code +
           "</value></member><member><name>faultString</name><value>"
           "<string>x</string></value></member></struct></value></fault>"
           "</methodResponse>";
  };
  EXPECT_FALSE(decode_response(fault_with_code("<i8>5000000000</i8>")).ok());
  EXPECT_FALSE(decode_response(fault_with_code("<i8>-2147483649</i8>")).ok());
  EXPECT_FALSE(
      decode_response(fault_with_code("<double>1e300</double>")).ok());
  Result<MethodResponse> edge =
      decode_response(fault_with_code("<i8>-2147483648</i8>"));
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge.value().fault_code, INT32_MIN);
}

TEST(RpcCodec, WrongRootRejected) {
  EXPECT_FALSE(decode_call("<methodResponse/>").ok());
  EXPECT_FALSE(decode_response("<methodCall/>").ok());
  EXPECT_FALSE(decode_call("garbage").ok());
}

TEST(RpcCodec, SpecExampleDecodes) {
  // Shape from Winer's spec [23].
  const char* wire =
      "<?xml version=\"1.0\"?><methodCall>"
      "<methodName>examples.getStateName</methodName>"
      "<params><param><value><i4>41</i4></value></param></params>"
      "</methodCall>";
  Result<MethodCall> call = decode_call(wire);
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(call.value().method, "examples.getStateName");
  EXPECT_EQ(call.value().params[0], Value{41});
}

// ---- server / transport / client ---------------------------------------------------

TEST(RpcServer, DispatchesRegisteredMethod) {
  RpcServer server;
  server.register_method("add", [](const ValueArray& params) -> Result<Value> {
    return Value{params[0].as_int() + params[1].as_int()};
  });
  EXPECT_TRUE(server.has_method("add"));
  EXPECT_EQ(server.method_count(), 1u);
  MethodResponse response = server.dispatch({"add", {Value{2}, Value{3}}});
  EXPECT_FALSE(response.is_fault);
  EXPECT_EQ(response.result, Value{5});
}

TEST(RpcServer, UnknownMethodIsFault) {
  RpcServer server;
  MethodResponse response = server.dispatch({"nope", {}});
  EXPECT_TRUE(response.is_fault);
  EXPECT_EQ(response.fault_code, -32601);
}

TEST(RpcServer, HandlerErrorsBecomeFaults) {
  RpcServer server;
  server.register_method("fail", [](const ValueArray&) -> Result<Value> {
    return err_state("not ready");
  });
  MethodResponse response = server.dispatch({"fail", {}});
  EXPECT_TRUE(response.is_fault);
  EXPECT_NE(response.fault_string.find("not ready"), std::string::npos);
}

TEST(RpcServer, HandleRoundTripsThroughXml) {
  RpcServer server;
  server.register_method("echo", [](const ValueArray& params) -> Result<Value> {
    return params.empty() ? Value{} : params[0];
  });
  std::string response_xml;
  Status handled = server.handle(
      encode(MethodCall{"echo", {Value{"ping"}}}),
      [&response_xml](const std::string& text) -> Status {
        response_xml = text;
        return {};
      });
  ASSERT_TRUE(handled.ok());
  Result<MethodResponse> response = decode_response(response_xml);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().result, Value{"ping"});
}

TEST(RpcServer, MalformedRequestIsTransportError) {
  RpcServer server;
  bool read = false;
  EXPECT_FALSE(server
                   .handle("not xml at all <<<",
                           [&read](const std::string&) -> Status {
                             read = true;
                             return {};
                           })
                   .ok());
  EXPECT_FALSE(read);
}

TEST(RpcTransport, RoutesToAttachedEndpoints) {
  RpcServer node_a;
  node_a.register_method("who", [](const ValueArray&) -> Result<Value> {
    return Value{"A"};
  });
  RpcServer node_b;
  node_b.register_method("who", [](const ValueArray&) -> Result<Value> {
    return Value{"B"};
  });
  InProcessTransport transport;
  transport.attach("A", &node_a);
  transport.attach("B", &node_b);
  EXPECT_EQ(transport.endpoint_count(), 2u);

  RpcClient client_a(transport, "A");
  RpcClient client_b(transport, "B");
  EXPECT_EQ(client_a.call("who").value(), Value{"A"});
  EXPECT_EQ(client_b.call("who").value(), Value{"B"});

  transport.detach("B");
  EXPECT_FALSE(client_b.call("who").ok());
}

TEST(RpcTransport, ConcurrentCallsGetTheirOwnEcho) {
  // Every caller shares the endpoint's response buffer, guarded by the
  // server lock: each thread must read back exactly its own argument.
  RpcServer server;
  server.register_method("echo", [](const ValueArray& params) -> Result<Value> {
    return params.empty() ? Value{} : params[0];
  });
  InProcessTransport transport;
  transport.attach("node", &server);
  constexpr int kThreads = 4;
  constexpr int kCalls = 1000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RpcClient client(transport, "node");
      for (int i = 0; i < kCalls; ++i) {
        Value argument{ValueMap{
            {"thread", Value{t}},
            {"call", Value{i}},
            {"pad", Value{std::string(static_cast<std::size_t>(t + 1) * 8,
                                      static_cast<char>('a' + t))}}}};
        Result<Value> echoed = client.call("echo", {argument});
        if (!echoed.ok() || echoed.value() != argument) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(RpcClient, FaultSurfacesAsRpcError) {
  RpcServer server;
  InProcessTransport transport;
  transport.attach("node", &server);
  RpcClient client(transport, "node");
  Result<Value> outcome = client.call("missing");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code(), ErrorCode::kRpc);
  EXPECT_NE(outcome.error().message().find("missing"), std::string::npos);
}

TEST(RpcClient, StructParameterConvention) {
  RpcServer server;
  server.register_method("inspect", [](const ValueArray& params) -> Result<Value> {
    if (params.size() != 1 || !params[0].is_map()) {
      return err_invalid("expected one struct");
    }
    const Value* run = params[0].find("run_id");
    return run ? *run : Value{};
  });
  InProcessTransport transport;
  transport.attach("node", &server);
  RpcClient client(transport, "node");
  ValueMap args;
  args["run_id"] = Value{7};
  Result<Value> outcome = client.call("inspect", {Value{args}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value(), Value{7});
}

}  // namespace
}  // namespace excovery::rpc
