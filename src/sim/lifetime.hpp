// Lifetime guard for scheduled callbacks.
//
// Agents schedule timers that can outlive them: sd_exit and a node crash
// destroy the SD agent in the middle of a run, and the scheduler has no way
// to know which pending entries belonged to it.  (Nothing queued in one
// run fires in the next: every attempt starts from an empty queue.)  The
// classic guard — capture a generation number and compare it against a
// member on fire — is a
// use-after-free when the owner is already destroyed, because the compare
// itself dereferences the dead object.  GenerationGate moves the counter
// into a shared heap cell that the callbacks co-own, so the staleness
// check stays valid after the owner is gone; only once the check passes is
// touching the owner safe (every destruction path bumps the gate first).
#pragma once

#include <cstdint>
#include <memory>

namespace excovery::sim {

class GenerationGate {
 public:
  GenerationGate() : cell_(std::make_shared<std::uint64_t>(0)) {}

  /// Current generation; capture alongside `token()` when scheduling.
  std::uint64_t value() const noexcept { return *cell_; }

  /// Invalidates everything scheduled under earlier values.  Call from
  /// every path that stops or destroys the owner, before teardown.
  void bump() noexcept { ++*cell_; }

  /// Shared view of the counter cell.  A callback holding the token may
  /// compare `*token != generation` even after the gate's owner died.
  std::shared_ptr<const std::uint64_t> token() const noexcept {
    return cell_;
  }

 private:
  std::shared_ptr<std::uint64_t> cell_;
};

}  // namespace excovery::sim
