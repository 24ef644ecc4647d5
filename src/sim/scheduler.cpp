#include "sim/scheduler.hpp"

#include <algorithm>

namespace excovery::sim {

TimerHandle Scheduler::schedule(SimDuration delay, Callback fn) {
  if (delay < SimDuration::zero()) delay = SimDuration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.fn.reset();
  slot.armed = false;
  if (++slot.generation == 0) ++slot.generation;  // 0 marks invalid handles
  free_slots_.push_back(index);
  --live_count_;
}

TimerHandle Scheduler::schedule_at(SimTime when, Callback fn) {
  if (when < now_) when = now_;
  std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.armed = true;
  slot.ctx = current_ctx_;
  slot.fn = std::move(fn);
  heap_push(HeapEntry{when, next_seq_++, index, slot.generation});
  ++live_count_;
  if (live_count_ > max_pending_) max_pending_ = live_count_;
  return TimerHandle(index, slot.generation);
}

void Scheduler::cancel(TimerHandle handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return;
  const Slot& slot = slots_[handle.slot_];
  // Generation mismatch = the handle's timer already ran or was cancelled
  // (possibly with the slot since reused); never touch the new occupant.
  if (!slot.armed || slot.generation != handle.generation_) return;
  ++cancelled_;
  release_slot(handle.slot_);
  // The heap entry stays behind and is skipped lazily on pop: its recorded
  // generation no longer matches the slot.
}

bool Scheduler::step() {
  while (!heap_.empty()) {
    HeapEntry entry = heap_.front();
    heap_pop_root();
    if (!entry_live(entry)) continue;  // cancelled (single indexed check)
    Callback fn = std::move(slots_[entry.slot].fn);
    // Read the captured context before release_slot recycles the slot.
    const std::uint64_t ctx = slots_[entry.slot].ctx;
    // Release before invoking: the callback may reschedule into this very
    // slot, and cancelling the executing handle must be a no-op.
    release_slot(entry.slot);
    now_ = entry.when;
    ++executed_;
    current_ctx_ = ctx;
    fn();
    current_ctx_ = 0;
    return true;
  }
  return false;
}

std::size_t Scheduler::run(std::size_t limit) {
  std::size_t executed = 0;
  while ((limit == 0 || executed < limit) && step()) ++executed;
  return executed;
}

std::size_t Scheduler::run_until(SimTime deadline) {
  std::size_t executed = 0;
  while (!heap_.empty()) {
    // Skip over cancelled heads without advancing time.
    HeapEntry entry = heap_.front();
    if (!entry_live(entry)) {
      heap_pop_root();
      continue;
    }
    if (entry.when > deadline) break;
    heap_pop_root();
    Callback fn = std::move(slots_[entry.slot].fn);
    const std::uint64_t ctx = slots_[entry.slot].ctx;
    release_slot(entry.slot);
    now_ = entry.when;
    ++executed_;
    ++executed;
    current_ctx_ = ctx;
    fn();
    current_ctx_ = 0;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

void Scheduler::restart_at(SimTime start) {
  // Move the callbacks out first: a destructor may cancel or schedule, and
  // must find the queue already empty.
  std::vector<Callback> dropped;
  dropped.reserve(live_count_);
  for (std::uint32_t index = 0; index < slots_.size(); ++index) {
    if (!slots_[index].armed) continue;
    dropped.push_back(std::move(slots_[index].fn));
    release_slot(index);
  }
  heap_.clear();
  if (now_ < start) now_ = start;
  dropped.clear();
}

void Scheduler::heap_push(const HeapEntry& entry) {
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    std::size_t parent = (i - 1) / 4;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Scheduler::heap_pop_root() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    std::size_t first = i * 4 + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (earlier(heap_[child], heap_[best])) best = child;
    }
    if (!earlier(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

}  // namespace excovery::sim
