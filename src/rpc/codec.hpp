// XML-RPC message codec.
//
// The prototype's master and nodes "communicate synchronously using
// extensible markup language remote procedure calls (XML-RPC)" (§VI-A,
// ref [23], Winer's spec).  This codec implements the spec's data model:
// <methodCall> / <methodResponse>, scalar types (i4/int, boolean, double,
// string, base64, dateTime omitted), <array> and <struct>, plus the widely
// deployed <nil/> and <i8> extensions — mapped onto excovery::Value.
//
// The codec never builds a DOM (DESIGN.md §17).  The writer streams the
// wire text straight into a caller's buffer; the reader is a pull parser
// specialised to the XML-RPC grammar that matches its fixed tags as
// literals and builds Values directly.  Both share escaping and reference
// decoding with src/xml.
#pragma once

#include <string>

#include "common/error.hpp"
#include "common/value.hpp"

namespace excovery::rpc {

/// A remote procedure invocation.
struct MethodCall {
  std::string method;
  ValueArray params;
};

/// The outcome of an invocation: a result value or a fault.
struct MethodResponse {
  bool is_fault = false;
  Value result;          ///< valid when !is_fault
  int fault_code = 0;    ///< valid when is_fault
  std::string fault_string;

  static MethodResponse success(Value value) {
    MethodResponse r;
    r.result = std::move(value);
    return r;
  }
  static MethodResponse fault(int code, std::string message) {
    MethodResponse r;
    r.is_fault = true;
    r.fault_code = code;
    r.fault_string = std::move(message);
    return r;
  }
};

/// Serialise a call/response to XML-RPC document text.
std::string encode(const MethodCall& call);
std::string encode(const MethodResponse& response);

/// The streaming writer behind encode(): append the same text to `out`, so
/// a caller can reuse one buffer across messages.
void encode_into(std::string& out, const MethodCall& call);
void encode_into(std::string& out, const MethodResponse& response);

/// Parse XML-RPC document text.
Result<MethodCall> decode_call(const std::string& xml_text);
Result<MethodResponse> decode_response(const std::string& xml_text);

}  // namespace excovery::rpc
