// Discrete-event scheduler.
//
// The kernel of the simulated platform: a time-ordered queue of callbacks.
// Ties at equal timestamps break on insertion sequence number, so execution
// order is a pure function of the schedule calls — the whole simulation is
// deterministic and replayable (a platform property §IV-A depends on).
//
// Hot-path layout (see DESIGN.md "Kernel performance model"): callbacks
// live in a slab arena of recycled slots addressed by {slot, generation}
// handles (O(1) cancel, no hashing), the ready queue is a 4-ary min-heap
// over small POD entries, and callbacks are stored in an inline
// small-buffer type so the steady-state schedule→execute loop performs no
// heap allocation for typical lambdas.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace excovery::sim {

/// Move-only callable with inline small-buffer storage.  Callables up to
/// `kInlineSize` bytes (and nothrow-movable) are stored in place; larger
/// ones fall back to a single heap cell.  The buffer is sized so the
/// network data plane's closures that carry a whole Packet — the unicast
/// hop, the delayed send launch and the delayed delivery handoff — stay
/// inline.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineSize = 128;

  InlineCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback>>>
  InlineCallback(F&& fn) {  // NOLINT: implicit wrap, like std::function
    emplace(std::forward<F>(fn));
  }

  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  void reset() noexcept {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into `to` from `from`, destroying the source.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static const Ops* inline_ops() noexcept {
    static constexpr Ops ops = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* from, void* to) noexcept {
          Fn* f = static_cast<Fn*>(from);
          ::new (to) Fn(std::move(*f));
          f->~Fn();
        },
        [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
    };
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() noexcept {
    static constexpr Ops ops = {
        [](void* p) { (**static_cast<Fn**>(p))(); },
        [](void* from, void* to) noexcept {
          std::memcpy(to, from, sizeof(Fn*));
        },
        [](void* p) noexcept { delete *static_cast<Fn**>(p); },
    };
    return &ops;
  }

  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = heap_ops<Fn>();
    }
  }

  void move_from(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// Handle for cancelling a scheduled event.  Addresses a slot in the
/// scheduler's timer arena; the generation detects (and rejects) slot
/// reuse, so a stale handle can never cancel a newer timer.
class TimerHandle {
 public:
  TimerHandle() = default;
  bool valid() const noexcept { return generation_ != 0; }

 private:
  friend class Scheduler;
  TimerHandle(std::uint32_t slot, std::uint32_t generation) noexcept
      : slot_(slot), generation_(generation) {}
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;  ///< 0 = invalid (generations start at 1)
};

class Scheduler {
 public:
  using Callback = InlineCallback;

  SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` from now.  Negative delays clamp to now.
  TimerHandle schedule(SimDuration delay, Callback fn);
  /// Schedule at an absolute time (>= now; earlier clamps to now).
  TimerHandle schedule_at(SimTime when, Callback fn);
  /// Cancel a pending event; no-op if it already ran or was cancelled.
  void cancel(TimerHandle handle);

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const noexcept { return live_count_; }
  bool idle() const noexcept { return pending() == 0; }

  /// Run a single event; returns false when the queue is empty.
  bool step();
  /// Run until the queue drains or `limit` events executed (0 = unlimited).
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = 0);
  /// Run events with timestamps <= deadline; clock ends at
  /// max(reached, deadline).  Returns events executed.
  std::size_t run_until(SimTime deadline);

  /// Start over from an empty queue: every pending callback is dropped
  /// without running (counted as neither executed nor cancelled) and the
  /// clock moves to max(now, start).  Outstanding handles go stale.  A
  /// dropped callback's destructor runs after the queue is empty, so
  /// anything it schedules belongs to the new start.
  void restart_at(SimTime start);

  /// Total events executed since construction (for overhead metrics).
  std::uint64_t executed() const noexcept { return executed_; }

  /// Arena capacity (slots ever allocated); observability for tests.
  std::size_t arena_size() const noexcept { return slots_.size(); }

  /// Pending-event high-water mark since construction.
  std::size_t max_pending() const noexcept { return max_pending_; }
  /// Timers cancelled before firing.
  std::uint64_t cancelled() const noexcept { return cancelled_; }

  /// Ambient causal context: the lineage event id (sim/lineage.hpp) the
  /// currently-running activity descends from.  Captured into every timer
  /// at schedule time and restored around its dispatch, so causality
  /// propagates through arbitrary async chains without explicit plumbing.
  /// 0 = no context.
  std::uint64_t current_context() const noexcept { return current_ctx_; }
  void set_current_context(std::uint64_t ctx) noexcept { current_ctx_ = ctx; }

 private:
  /// One timer cell in the slab arena.  Recycled through a free list; the
  /// generation is bumped on every release so stale handles and stale heap
  /// entries are detected with a single indexed load.
  struct Slot {
    std::uint32_t generation = 1;
    bool armed = false;
    std::uint64_t ctx = 0;  ///< ambient causal context captured at schedule
    Callback fn;
  };

  /// Heap entries are small PODs; the callback stays in the arena so heap
  /// sift operations move 24 bytes, never the callable.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    // Exact (when, seq) tie-break: identical to the seed kernel's ordering.
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  bool entry_live(const HeapEntry& entry) const noexcept {
    const Slot& slot = slots_[entry.slot];
    return slot.armed && slot.generation == entry.generation;
  }

  std::uint32_t acquire_slot();
  /// Disarm + free a slot: destroys its callback, bumps the generation and
  /// returns it to the free list.  Decrements the live count.
  void release_slot(std::uint32_t index);

  void heap_push(const HeapEntry& entry);
  /// Remove the root entry, restoring the heap property.
  void heap_pop_root();

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_count_ = 0;
  std::size_t max_pending_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t current_ctx_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;  ///< 4-ary min-heap ordered by (when, seq)
};

}  // namespace excovery::sim
