// The discrete-event engine: a clock plus the future-event list. Model
// components schedule typed events (an EventTarget and a tag) on their hot
// edges and callbacks for rare control events; run() advances the clock
// event by event.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "sim/event_queue.hpp"

namespace blade::sim {

class Engine {
 public:
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }

  /// Schedules `target.on_event(tag)` after `delay` (>= 0) simulated time
  /// units. The hot path: no allocation, one virtual call when it fires.
  EventId schedule(double delay, EventTarget& target, std::uint32_t tag) {
    if (!(delay >= 0.0)) throw std::invalid_argument("Engine::schedule: negative delay");
    return queue_.push(now_ + delay, target, tag);
  }

  /// Schedules `fn` after `delay` (>= 0) simulated time units.
  EventId schedule(double delay, std::function<void()> fn);

  /// Schedules `fn` at absolute time `t` (>= now()).
  EventId schedule_at(double t, std::function<void()> fn);

  /// Cancels a scheduled event (no-op if it already ran).
  void cancel(EventId id) { queue_.cancel(id); }

  /// Processes events until the clock passes `t_end` or the queue drains.
  /// Events at exactly t_end are processed.
  void run_until(double t_end);

  /// Processes every remaining event.
  void run();

 private:
  /// Runs every event with time <= t_end, in (time, insertion) order.
  void drain(double t_end);

  double now_ = 0.0;
  std::uint64_t processed_ = 0;
  EventQueue queue_;
};

}  // namespace blade::sim
