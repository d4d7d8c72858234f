#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"

namespace blade::sim {

std::uint32_t EventQueue::acquire(double t) {
  if (std::isnan(t)) throw std::invalid_argument("EventQueue::push: NaN time");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  const Key key{t, next_seq_++, slot};
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
  ++live_;
  BLADE_OBS_COUNT("sim.events_scheduled");
  return slot;
}

EventId EventQueue::push(double t, std::function<void()> fn) {
  const std::uint32_t slot = acquire(t);
  Slot& s = slots_[slot];
  s.kind = Kind::Callback;
  s.fn = std::move(fn);
  return id_of(slot);
}

EventId EventQueue::push(double t, EventTarget& target, std::uint32_t tag) {
  const std::uint32_t slot = acquire(t);
  Slot& s = slots_[slot];
  s.kind = Kind::Target;
  s.target = &target;
  s.tag = tag;
  return id_of(slot);
}

void EventQueue::retire(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Generation 0 is skipped on wrap-around so no id is ever 0.
  if (++s.generation == 0) s.generation = 1;
  s.kind = Kind::Free;
  free_.push_back(slot);
}

void EventQueue::cancel(EventId id) {
  // No-op for ids that already ran, were already cancelled or were never
  // issued, so callers may keep stale handles safely. The slot stays
  // claimed (its key is still in the heap) until skim() reaches it.
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.generation != static_cast<std::uint32_t>(id >> 32)) return;
  if (s.kind != Kind::Target && s.kind != Kind::Callback) return;
  s.kind = Kind::Cancelled;
  s.fn = nullptr;
  --live_;
  BLADE_OBS_COUNT("sim.events_cancelled");
}

void EventQueue::remove_top() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventQueue::skim() {
  while (!heap_.empty()) {
    const std::uint32_t slot = heap_.front().slot;
    if (slots_[slot].kind != Kind::Cancelled) break;
    remove_top();
    retire(slot);
  }
}

double EventQueue::next_time() {
  skim();
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time: empty queue");
  return heap_.front().time;
}

bool EventQueue::pop_until(double t_end, Fired& out) {
  skim();
  if (heap_.empty() || !(heap_.front().time <= t_end)) return false;
  const Key top = heap_.front();
  remove_top();
  Slot& s = slots_[top.slot];
  out.time = top.time;
  if (s.kind == Kind::Target) {
    out.target = s.target;
    out.tag = s.tag;
    if (out.fn) out.fn = nullptr;
  } else {
    out.target = nullptr;
    out.fn = std::move(s.fn);
    s.fn = nullptr;
  }
  retire(top.slot);
  --live_;
  return true;
}

std::pair<double, std::function<void()>> EventQueue::pop() {
  Fired f;
  if (!pop_until(std::numeric_limits<double>::infinity(), f)) {
    throw std::logic_error("EventQueue::pop: empty queue");
  }
  if (f.target != nullptr) {
    return {f.time, [target = f.target, tag = f.tag] { target->on_event(tag); }};
  }
  return {f.time, std::move(f.fn)};
}

}  // namespace blade::sim
