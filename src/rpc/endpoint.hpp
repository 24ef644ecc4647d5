// RPC endpoints: server-side method registry and client-side proxy, plus an
// in-process transport.
//
// §VI-A: "Master and nodes are connected in a centralized client-server
// architecture with a dedicated communication channel ... A node object
// presents the functions of one node to the master program via XML-RPC and
// uses locking to allow only one access at a time."
//
// The transport abstraction is the seam between ExCovery and the platform:
// the in-process transport models the DES testbed's dedicated wired control
// network (separate, reliable, non-interfering, §IV-A1).  Requests round-
// trip through the full XML-RPC encode/decode path so the codec is genuinely
// on the control path, as in the prototype.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "rpc/codec.hpp"

namespace excovery::rpc {

/// Receives one response's XML-RPC text.  The text sits in the answering
/// endpoint's reused buffer and is valid only during the call.
using ResponseReader = std::function<Status(const std::string& response_xml)>;

/// Server-side registry of callable methods.  One per-server mutex (the
/// prototype's node-object locking) serialises dispatch, method bodies and
/// the response buffer.
class RpcServer {
 public:
  using Method = std::function<Result<Value>(const ValueArray& params)>;

  /// Register a method; replaces any previous registration of that name.
  void register_method(std::string name, Method method);
  bool has_method(std::string_view name) const;
  std::size_t method_count() const;

  /// Decode request text, then under the server lock dispatch, write the
  /// response text into this endpoint's reused buffer and pass it to
  /// `read`, which runs inside the lock because the buffer is only stable
  /// there.  Transport-level errors (undecodable request) surface as
  /// errors; application errors travel inside the response as XML-RPC
  /// faults.
  Status handle(const std::string& request_xml, const ResponseReader& read);

  /// Dispatch an already-decoded call (used by tests and direct callers).
  MethodResponse dispatch(const MethodCall& call);

 private:
  MethodResponse dispatch_locked(const MethodCall& call);

  mutable std::mutex mutex_;
  std::map<std::string, Method, std::less<>> methods_;
  std::string response_xml_;  ///< guarded by mutex_
};

/// Transport interface: move request text to a named server and hand its
/// response text to a reader.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual Status round_trip(const std::string& endpoint,
                            const std::string& request_xml,
                            const ResponseReader& read) = 0;
};

/// In-process transport: a registry of servers by endpoint name.
class InProcessTransport final : public Transport {
 public:
  /// Attach a server under an endpoint name.  The server must outlive the
  /// transport registration (unregister before destroying it).
  void attach(const std::string& endpoint, RpcServer* server);
  void detach(const std::string& endpoint);
  std::size_t endpoint_count() const;

  Status round_trip(const std::string& endpoint,
                    const std::string& request_xml,
                    const ResponseReader& read) override;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, RpcServer*, std::less<>> servers_;
};

/// Client-side proxy bound to one endpoint.
class RpcClient {
 public:
  RpcClient(Transport& transport, std::string endpoint)
      : transport_(&transport), endpoint_(std::move(endpoint)) {}

  const std::string& endpoint() const noexcept { return endpoint_; }

  /// Invoke a remote method.  Faults map to kRpc errors carrying the fault
  /// string.
  Result<Value> call(const std::string& method, ValueArray params = {});

 private:
  Transport* transport_;
  std::string endpoint_;
};

}  // namespace excovery::rpc
