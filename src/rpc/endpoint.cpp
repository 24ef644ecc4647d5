#include "rpc/endpoint.hpp"

namespace excovery::rpc {

void RpcServer::register_method(std::string name, Method method) {
  std::lock_guard lock(mutex_);
  methods_[std::move(name)] = std::move(method);
}

bool RpcServer::has_method(std::string_view name) const {
  std::lock_guard lock(mutex_);
  return methods_.find(name) != methods_.end();
}

std::size_t RpcServer::method_count() const {
  std::lock_guard lock(mutex_);
  return methods_.size();
}

Status RpcServer::handle(const std::string& request_xml,
                         const ResponseReader& read) {
  EXC_ASSIGN_OR_RETURN(MethodCall call, decode_call(request_xml));
  std::lock_guard lock(mutex_);
  MethodResponse response = dispatch_locked(call);
  response_xml_.clear();
  encode_into(response_xml_, response);
  return read(response_xml_);
}

MethodResponse RpcServer::dispatch(const MethodCall& call) {
  std::lock_guard lock(mutex_);
  return dispatch_locked(call);
}

MethodResponse RpcServer::dispatch_locked(const MethodCall& call) {
  // The method body runs under the lock too: the prototype allows "only
  // one access at a time" per node object.
  auto it = methods_.find(std::string_view(call.method));
  if (it == methods_.end()) {
    return MethodResponse::fault(-32601, "method not found: " + call.method);
  }
  Result<Value> outcome = it->second(call.params);
  if (!outcome.ok()) {
    return MethodResponse::fault(-32000, outcome.error().to_string());
  }
  return MethodResponse::success(std::move(outcome).value());
}

void InProcessTransport::attach(const std::string& endpoint,
                                RpcServer* server) {
  std::lock_guard lock(mutex_);
  servers_[endpoint] = server;
}

void InProcessTransport::detach(const std::string& endpoint) {
  std::lock_guard lock(mutex_);
  servers_.erase(endpoint);
}

std::size_t InProcessTransport::endpoint_count() const {
  std::lock_guard lock(mutex_);
  return servers_.size();
}

Status InProcessTransport::round_trip(const std::string& endpoint,
                                      const std::string& request_xml,
                                      const ResponseReader& read) {
  RpcServer* server = nullptr;
  {
    std::lock_guard lock(mutex_);
    auto it = servers_.find(endpoint);
    if (it == servers_.end()) {
      return err_rpc("no server at endpoint '" + endpoint + "'");
    }
    server = it->second;
  }
  return server->handle(request_xml, read);
}

Result<Value> RpcClient::call(const std::string& method, ValueArray params) {
  std::string request_xml = encode(MethodCall{method, std::move(params)});
  MethodResponse response;
  EXC_TRY(transport_->round_trip(
      endpoint_, request_xml,
      [&response](const std::string& response_xml) -> Status {
        EXC_ASSIGN_OR_RETURN(response, decode_response(response_xml));
        return {};
      }));
  if (response.is_fault) {
    return err_rpc("fault " + std::to_string(response.fault_code) + " from " +
                   endpoint_ + "." + method + ": " + response.fault_string);
  }
  return std::move(response.result);
}

}  // namespace excovery::rpc
