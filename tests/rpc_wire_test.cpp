// The XML-RPC wire boundary: golden request/response bytes, a corpus of
// spec-valid variants, and truncation and bit-flip sweeps in which the
// streaming reader must either fail or agree with a DOM-based reference
// decoder.
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "rpc/codec.hpp"
#include "xml/parser.hpp"

namespace excovery::rpc {
namespace {

// ---- reference decoder -------------------------------------------------------
//
// xml::parse plus a walk of the resulting DOM, as the codec decoded before
// it streamed, with two corrections the streaming reader also makes:
// <string> content is untrimmed and faultCode must fit an int.  It accepts
// more than the XML-RPC grammar (attributes, extra children, mixed
// content); the streaming reader may reject those, but must never accept
// what this rejects.

namespace reference {

/// All character data of an element, untrimmed.
std::string raw_text(const xml::Element& element) {
  std::string out;
  for (std::string_view segment : element.text_segments()) out += segment;
  return out;
}

Result<Bytes> base64_decode(const std::string& text) {
  auto value_of = [](char c) -> int {
    if (c >= 'A' && c <= 'Z') return c - 'A';
    if (c >= 'a' && c <= 'z') return c - 'a' + 26;
    if (c >= '0' && c <= '9') return c - '0' + 52;
    if (c == '+') return 62;
    if (c == '/') return 63;
    return -1;
  };
  Bytes out;
  std::uint32_t accum = 0;
  int bits = 0;
  for (char c : text) {
    if (c == '=' || c == '\n' || c == '\r' || c == ' ' || c == '\t') continue;
    int v = value_of(c);
    if (v < 0) return err_parse("bad base64");
    accum = (accum << 6) | static_cast<std::uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((accum >> bits) & 0xFF));
    }
  }
  return out;
}

Result<Value> value(const xml::Element& value_element) {
  if (value_element.name() != "value") return err_parse("expected <value>");
  const xml::Element* typed_ptr = value_element.first_child();
  if (!typed_ptr) return Value{value_element.text()};
  const xml::Element& typed = *typed_ptr;
  std::string_view type = typed.name();
  if (type == "nil") return Value{};
  if (type == "boolean") {
    std::string t = typed.text();
    if (t == "1" || t == "true") return Value{true};
    if (t == "0" || t == "false") return Value{false};
    return err_parse("bad boolean");
  }
  if (type == "int" || type == "i4" || type == "i8") {
    return Value{typed.text()}.to_int().map(
        [](std::int64_t v) { return Value{v}; });
  }
  if (type == "double") {
    return Value{typed.text()}.to_double().map(
        [](double v) { return Value{v}; });
  }
  if (type == "string") return Value{raw_text(typed)};
  if (type == "base64") {
    EXC_ASSIGN_OR_RETURN(Bytes bytes, base64_decode(typed.text()));
    return Value{std::move(bytes)};
  }
  if (type == "array") {
    EXC_ASSIGN_OR_RETURN(const xml::Element* data, typed.require_child("data"));
    ValueArray array;
    for (const xml::Element& child : data->children()) {
      EXC_ASSIGN_OR_RETURN(Value item, value(child));
      array.push_back(std::move(item));
    }
    return Value{std::move(array)};
  }
  if (type == "struct") {
    ValueMap map;
    for (const xml::Element& member : typed.children()) {
      if (member.name() != "member") return err_parse("expected <member>");
      EXC_ASSIGN_OR_RETURN(const xml::Element* name,
                           member.require_child("name"));
      EXC_ASSIGN_OR_RETURN(const xml::Element* inner,
                           member.require_child("value"));
      EXC_ASSIGN_OR_RETURN(Value item, value(*inner));
      map.emplace(name->text(), std::move(item));
    }
    return Value{std::move(map)};
  }
  return err_parse("unknown type");
}

Result<MethodCall> call(const std::string& text) {
  EXC_ASSIGN_OR_RETURN(xml::Document doc, xml::parse(text));
  const xml::Element& root = doc.root();
  if (root.name() != "methodCall") return err_parse("expected <methodCall>");
  EXC_ASSIGN_OR_RETURN(const xml::Element* name,
                       root.require_child("methodName"));
  MethodCall call;
  call.method = name->text();
  if (const xml::Element* params = root.child("params")) {
    for (const xml::Element* param : params->children_named("param")) {
      EXC_ASSIGN_OR_RETURN(const xml::Element* holder,
                           param->require_child("value"));
      EXC_ASSIGN_OR_RETURN(Value item, value(*holder));
      call.params.push_back(std::move(item));
    }
  }
  return call;
}

Result<MethodResponse> response(const std::string& text) {
  EXC_ASSIGN_OR_RETURN(xml::Document doc, xml::parse(text));
  const xml::Element& root = doc.root();
  if (root.name() != "methodResponse") {
    return err_parse("expected <methodResponse>");
  }
  if (const xml::Element* fault = root.child("fault")) {
    EXC_ASSIGN_OR_RETURN(const xml::Element* holder,
                         fault->require_child("value"));
    EXC_ASSIGN_OR_RETURN(Value detail, value(*holder));
    if (!detail.is_map()) return err_parse("fault detail is not a struct");
    MethodResponse response;
    response.is_fault = true;
    if (const Value* code = detail.find("faultCode")) {
      EXC_ASSIGN_OR_RETURN(std::int64_t c, code->to_int());
      if (c < INT_MIN || c > INT_MAX) return err_parse("faultCode range");
      response.fault_code = static_cast<int>(c);
    }
    if (const Value* message = detail.find("faultString")) {
      response.fault_string = message->to_text();
    }
    return response;
  }
  EXC_ASSIGN_OR_RETURN(const xml::Element* params,
                       root.require_child("params"));
  EXC_ASSIGN_OR_RETURN(const xml::Element* param,
                       params->require_child("param"));
  EXC_ASSIGN_OR_RETURN(const xml::Element* holder,
                       param->require_child("value"));
  EXC_ASSIGN_OR_RETURN(Value result, value(*holder));
  return MethodResponse::success(std::move(result));
}

}  // namespace reference

/// Value equality where any NaN matches any NaN and zeros agree in sign.
bool same(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kDouble: {
      double x = a.as_double();
      double y = b.as_double();
      if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
      return x == y && std::signbit(x) == std::signbit(y);
    }
    case ValueType::kArray: {
      const ValueArray& xs = a.as_array();
      const ValueArray& ys = b.as_array();
      if (xs.size() != ys.size()) return false;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (!same(xs[i], ys[i])) return false;
      }
      return true;
    }
    case ValueType::kMap: {
      const ValueMap& xs = a.as_map();
      const ValueMap& ys = b.as_map();
      if (xs.size() != ys.size()) return false;
      auto it = ys.begin();
      for (const auto& [key, item] : xs) {
        if (it->first != key || !same(item, it->second)) return false;
        ++it;
      }
      return true;
    }
    default:
      return a == b;
  }
}

/// Decode `text` as a call and as a response; wherever the streaming
/// reader accepts, the reference must accept with the same result.
/// Returns how many of the two decodes the streaming reader accepted.
int expect_fail_or_agree(const std::string& text) {
  int accepted = 0;
  Result<MethodCall> call = decode_call(text);
  if (call.ok()) {
    ++accepted;
    Result<MethodCall> ref = reference::call(text);
    EXPECT_TRUE(ref.ok()) << "accepted a call the reference rejects: " << text;
    if (ref.ok()) {
      EXPECT_EQ(call.value().method, ref.value().method) << text;
      EXPECT_TRUE(same(Value{call.value().params}, Value{ref.value().params}))
          << text;
    }
  }
  Result<MethodResponse> response = decode_response(text);
  if (response.ok()) {
    ++accepted;
    Result<MethodResponse> ref = reference::response(text);
    EXPECT_TRUE(ref.ok()) << "accepted a response the reference rejects: "
                          << text;
    if (ref.ok()) {
      const MethodResponse& got = response.value();
      const MethodResponse& want = ref.value();
      EXPECT_EQ(got.is_fault, want.is_fault) << text;
      EXPECT_EQ(got.fault_code, want.fault_code) << text;
      EXPECT_EQ(got.fault_string, want.fault_string) << text;
      EXPECT_TRUE(same(got.result, want.result)) << text;
    }
  }
  return accepted;
}

// ---- golden wire texts -----------------------------------------------------------

constexpr const char* kRunInitCall =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodCall><methodName>"
    "run_init</methodName><params><param><value><struct><member><name>"
    "run_id</name><value><int>7</int></value></member></struct></value>"
    "</param></params></methodCall>";

constexpr const char* kTrueResponse =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodResponse><params>"
    "<param><value><boolean>1</boolean></value></param></params>"
    "</methodResponse>";

constexpr const char* kSdStartSearchCall =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodCall><methodName>"
    "sd_start_search</methodName><params><param><value><struct><member>"
    "<name>type</name><value><string>_expservice._udp</string></value>"
    "</member></struct></value></param></params></methodCall>";

constexpr const char* kBogusCall =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodCall><methodName>"
    "sd_bogus</methodName><params /></methodCall>";

constexpr const char* kFaultResponse =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodResponse><fault>"
    "<value><struct><member><name>faultCode</name><value><int>-32601</int>"
    "</value></member><member><name>faultString</name><value><string>"
    "method not found: sd_bogus &lt;&amp;&gt;</string></value></member>"
    "</struct></value></fault></methodResponse>";

/// The struct members of kEveryScalarCall / kEveryScalarResponse.
#define EXCOVERY_EVERY_SCALAR_STRUCT                                        \
  "<value><struct><member><name>array</name><value><array><data />"        \
  "</array></value></member><member><name>base64</name><value><base64>"    \
  "AAEC/v8=</base64></value></member><member><name>boolean</name><value>"  \
  "<boolean>1</boolean></value></member><member><name>double</name>"       \
  "<value><double>0.1</double></value></member><member><name>i8</name>"    \
  "<value><i8>5000000000</i8></value></member><member><name>int</name>"    \
  "<value><int>-42</int></value></member><member><name>nil</name><value>"  \
  "<nil /></value></member><member><name>string</name><value><string>"     \
  "a &lt; b &amp; \"c\" &gt; 'd'</string></value></member><member><name>" \
  "struct</name><value><struct /></value></member></struct></value>"

constexpr const char* kEveryScalarCall =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodCall><methodName>"
    "inspect</methodName><params><param>" EXCOVERY_EVERY_SCALAR_STRUCT
    "</param></params></methodCall>";

constexpr const char* kEveryScalarResponse =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?><methodResponse><params>"
    "<param>" EXCOVERY_EVERY_SCALAR_STRUCT "</param></params>"
    "</methodResponse>";

#undef EXCOVERY_EVERY_SCALAR_STRUCT

Value every_scalar() {
  return Value{ValueMap{
      {"nil", Value{}},
      {"boolean", Value{true}},
      {"int", Value{-42}},
      {"i8", Value{std::int64_t{5'000'000'000LL}}},
      {"double", Value{0.1}},
      {"string", Value{"a < b & \"c\" > 'd'"}},
      {"base64", Value{Bytes{0x00, 0x01, 0x02, 0xFE, 0xFF}}},
      {"array", Value{ValueArray{}}},
      {"struct", Value{ValueMap{}}},
  }};
}

TEST(RpcWire, GoldenRunInitBytes) {
  MethodCall call{"run_init", {Value{ValueMap{{"run_id", Value{7}}}}}};
  EXPECT_EQ(encode(call), kRunInitCall);
  EXPECT_EQ(encode(MethodResponse::success(Value{true})), kTrueResponse);
  Result<MethodCall> back = decode_call(kRunInitCall);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().method, "run_init");
  EXPECT_EQ(back.value().params, call.params);
  EXPECT_EQ(decode_response(kTrueResponse).value().result, Value{true});
}

TEST(RpcWire, GoldenSdStartSearchBytes) {
  MethodCall call{"sd_start_search",
                  {Value{ValueMap{{"type", Value{"_expservice._udp"}}}}}};
  EXPECT_EQ(encode(call), kSdStartSearchCall);
  Result<MethodCall> back = decode_call(kSdStartSearchCall);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().params, call.params);
}

TEST(RpcWire, GoldenFaultBytes) {
  EXPECT_EQ(encode(MethodCall{"sd_bogus", {}}), kBogusCall);
  MethodResponse fault =
      MethodResponse::fault(-32601, "method not found: sd_bogus <&>");
  EXPECT_EQ(encode(fault), kFaultResponse);
  Result<MethodResponse> back = decode_response(kFaultResponse);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().is_fault);
  EXPECT_EQ(back.value().fault_code, -32601);
  EXPECT_EQ(back.value().fault_string, fault.fault_string);
}

TEST(RpcWire, GoldenEveryScalarBytes) {
  EXPECT_EQ(encode(MethodCall{"inspect", {every_scalar()}}), kEveryScalarCall);
  EXPECT_EQ(encode(MethodResponse::success(every_scalar())),
            kEveryScalarResponse);
  Result<MethodCall> call = decode_call(kEveryScalarCall);
  ASSERT_TRUE(call.ok());
  ASSERT_EQ(call.value().params.size(), 1u);
  EXPECT_EQ(call.value().params[0], every_scalar());
  EXPECT_EQ(decode_response(kEveryScalarResponse).value().result,
            every_scalar());
}

// ---- corpus of spec-valid variants -------------------------------------------------

constexpr const char* kWinerFault =
    "<?xml version=\"1.0\"?>\n<methodResponse>\n   <fault>\n      <value>\n"
    "         <struct>\n            <member>\n"
    "               <name>faultCode</name>\n"
    "               <value><int>4</int></value>\n               </member>\n"
    "            <member>\n               <name>faultString</name>\n"
    "               <value><string>Too many parameters.</string></value>\n"
    "               </member>\n            </struct>\n         </value>\n"
    "      </fault>\n   </methodResponse>\n";

/// Spec-valid texts the DOM writer never produces, each with the value it
/// must decode to (a call's parameters or a response's result).
struct Variant {
  std::string text;
  bool is_call;
  Value expected;
};

std::vector<Variant> variants() {
  return {
      // Winer's examples, pretty-printed, with a prolog.
      {"<?xml version=\"1.0\"?>\n<methodCall>\n"
       "   <methodName>examples.getStateName</methodName>\n   <params>\n"
       "      <param>\n         <value><i4>41</i4></value>\n"
       "         </param>\n      </params>\n   </methodCall>\n",
       true, Value{ValueArray{Value{41}}}},
      {"<?xml version=\"1.0\"?>\n<methodResponse>\n   <params>\n"
       "      <param>\n         <value><string>South Dakota</string></value>\n"
       "         </param>\n      </params>\n   </methodResponse>\n",
       false, Value{"South Dakota"}},
      {kWinerFault, false, Value{}},
      // Comments, processing instructions and CDATA.
      {"<?xml version=\"1.0\"?><!-- prolog --><?app hint?><methodCall>"
       "<!-- c --><methodName>sd<!-- split -->_init</methodName><params>"
       "<?pi x?><param><value><string><![CDATA[<raw> & ]]>tail <!-- c --> "
       "end<?pi?></string></value></param></params></methodCall>"
       "<!-- trailing -->",
       true, Value{ValueArray{Value{"<raw> & tail  end"}}}},
      // Entity and character references, in text and in a member name.
      {"<methodCall><methodName>m</methodName><params><param><value><struct>"
       "<member><name>r&#117;n_&#x69;d</name><value><string>&lt;a&gt; &amp; "
       "&quot;b&quot; &apos;c&apos; &#233;&#xE9;&#x1F600;</string></value>"
       "</member></struct></value></param></params></methodCall>",
       true,
       Value{ValueArray{Value{ValueMap{
           {"run_id",
            Value{"<a> & \"b\" 'c' \xC3\xA9\xC3\xA9\xF0\x9F\x98\x80"}}}}}}},
      // i4, negative.
      {"<methodResponse><params><param><value><i4>-7</i4></value></param>"
       "</params></methodResponse>",
       false, Value{-7}},
      // Bare <value> text is a trimmed string.
      {"<methodResponse><params><param><value>  bare text \n</value>"
       "</param></params></methodResponse>",
       false, Value{"bare text"}},
      // Self-closing empty elements.
      {"<methodCall><methodName>m</methodName><params><param><value/>"
       "</param><param><value><string/></value></param><param><value>"
       "<array><data/></array></value></param><param><value><struct/>"
       "</value></param><param><value><base64/></value></param><param>"
       "<value><nil/></value></param></params></methodCall>",
       true,
       Value{ValueArray{Value{""}, Value{""}, Value{ValueArray{}},
                        Value{ValueMap{}}, Value{Bytes{}}, Value{}}}},
      {"<methodCall><methodName>m</methodName><params/></methodCall>", true,
       Value{ValueArray{}}},
      // Whitespace around the method and member names is not part of them.
      {"<methodCall><methodName>\n  sd_init \t</methodName><params><param>"
       "<value><struct><member><name>\n    role\n  </name><value>SM</value>"
       "</member></struct></value></param></params></methodCall>",
       true, Value{ValueArray{Value{ValueMap{{"role", Value{"SM"}}}}}}},
      // A <member> with <value> before <name>.
      {"<methodCall><methodName>m</methodName><params><param><value><struct>"
       "<member><value><int>1</int></value><name>late</name></member>"
       "</struct></value></param></params></methodCall>",
       true, Value{ValueArray{Value{ValueMap{{"late", Value{1}}}}}}},
  };
}

std::vector<std::string> corpus() {
  std::vector<std::string> texts = {
      kRunInitCall,     kTrueResponse,    kSdStartSearchCall,  kBogusCall,
      kFaultResponse,   kEveryScalarCall, kEveryScalarResponse};
  for (const Variant& variant : variants()) texts.push_back(variant.text);
  return texts;
}

TEST(RpcWire, CorpusDecodesLikeReference) {
  for (const Variant& variant : variants()) {
    if (variant.is_call) {
      Result<MethodCall> call = decode_call(variant.text);
      ASSERT_TRUE(call.ok())
          << call.error().to_string() << "\n" << variant.text;
      EXPECT_EQ(Value{call.value().params}, variant.expected) << variant.text;
    } else {
      Result<MethodResponse> response = decode_response(variant.text);
      ASSERT_TRUE(response.ok())
          << response.error().to_string() << "\n" << variant.text;
      if (!response.value().is_fault) {
        EXPECT_EQ(response.value().result, variant.expected) << variant.text;
      }
    }
  }
  Result<MethodResponse> fault = decode_response(kWinerFault);
  ASSERT_TRUE(fault.ok());
  EXPECT_EQ(fault.value().fault_code, 4);
  EXPECT_EQ(fault.value().fault_string, "Too many parameters.");
  for (const std::string& text : corpus()) {
    EXPECT_EQ(expect_fail_or_agree(text), 1) << text;
  }
  EXPECT_EQ(decode_call("<methodCall><methodName> sd_init\n</methodName>"
                        "</methodCall>")
                .value()
                .method,
            "sd_init");
}

// ---- hostile bytes -------------------------------------------------------------------

TEST(RpcWire, TruncationsFailOrAgreeWithReference) {
  for (const std::string& text : corpus()) {
    for (std::size_t cut = 0; cut < text.size(); ++cut) {
      expect_fail_or_agree(text.substr(0, cut));
    }
  }
}

TEST(RpcWire, BitFlipsFailOrAgreeWithReference) {
  Pcg32 rng(0x5EED, 0xF11B);
  int accepted = 0;
  for (const std::string& text : corpus()) {
    for (int flip = 0; flip < 400; ++flip) {
      std::string mutated = text;
      std::size_t at = rng.bounded(static_cast<std::uint32_t>(text.size()));
      mutated[at] = static_cast<char>(mutated[at] ^ (1u << rng.bounded(8)));
      accepted += expect_fail_or_agree(mutated);
    }
  }
  // Flips inside character data leave messages decodable; the sweep must
  // exercise the agreement check, not only the rejection paths.
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace excovery::rpc
