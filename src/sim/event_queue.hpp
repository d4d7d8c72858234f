// Future-event list: a 4-ary min-heap of POD (time, seq, slot) keys over a
// slot table that holds each event's payload. Ties are broken by a 64-bit
// insertion sequence so runs are fully deterministic. Cancellation is a
// generation check on the slot: no sets, no per-event hashing.
//
// A payload is either a typed target (EventTarget + 32-bit tag: the hot
// path, one virtual call per event) or a std::function callback (the cold
// path: rate changes, failures, epochs, checkpoints, tests).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace blade::sim {

/// (generation << 32) | slot. Never 0, so callers may use 0 as "none".
using EventId = std::uint64_t;

/// A model component that receives typed events. The tag is whatever the
/// component passed when scheduling (a blade slot, an event kind, ...).
class EventTarget {
 public:
  virtual void on_event(std::uint32_t tag) = 0;

 protected:
  ~EventTarget() = default;  // never owned or deleted through this base
};

class EventQueue {
 public:
  /// An event taken off the queue: a typed target when `target` is set,
  /// otherwise the callback `fn`.
  struct Fired {
    double time = 0.0;
    EventTarget* target = nullptr;
    std::uint32_t tag = 0;
    std::function<void()> fn;
  };

  /// Schedules `fn` at absolute time `t` (not NaN); returns a cancellable id.
  EventId push(double t, std::function<void()> fn);

  /// Schedules `target.on_event(tag)` at absolute time `t` (not NaN).
  EventId push(double t, EventTarget& target, std::uint32_t tag);

  /// Cancels a pending event; it is dropped when it reaches the top. A
  /// no-op for ids that already ran, were already cancelled, or were never
  /// issued.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Time of the earliest live event; requires !empty().
  [[nodiscard]] double next_time();

  /// Pops the earliest live event into `out` if its time is <= t_end;
  /// returns false (popping nothing) otherwise or when empty. The payload
  /// is moved out and its slot released before the caller runs it, so a
  /// callback may push, cancel (its own id included) or reallocate freely.
  bool pop_until(double t_end, Fired& out);

  /// Pops and returns the earliest live event's (time, callback);
  /// requires !empty(). Typed events come back wrapped in a callback.
  [[nodiscard]] std::pair<double, std::function<void()>> pop();

 private:
  enum class Kind : std::uint8_t { Free, Target, Callback, Cancelled };

  struct Key {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Slot {
    std::uint32_t generation = 1;  ///< of the current occupant's id
    Kind kind = Kind::Free;
    std::uint32_t tag = 0;
    EventTarget* target = nullptr;
    std::function<void()> fn;
  };

  static bool earlier(const Key& a, const Key& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  /// Claims a slot for a new event at `t` and links it into the heap.
  std::uint32_t acquire(double t);
  [[nodiscard]] EventId id_of(std::uint32_t slot) const noexcept {
    return (static_cast<EventId>(slots_[slot].generation) << 32) | slot;
  }
  /// Makes every id issued for `slot` stale and returns it to the free list.
  void retire(std::uint32_t slot);
  void remove_top();
  /// Drops cancelled entries from the top of the heap.
  void skim();

  std::vector<Key> heap_;  ///< 4-ary min-heap on (time, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;  ///< pushed, not yet popped or cancelled
};

}  // namespace blade::sim
