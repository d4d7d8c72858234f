#include "sim/server_sim.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace blade::sim {

ServerSim::ServerSim(Engine& engine, unsigned blades, double speed, SchedulingMode mode,
                     ResponseTimeCollector& collector)
    : engine_(engine), blades_(blades), speed_(speed), mode_(mode), collector_(collector),
      slots_(blades), available_(blades) {
  if (blades == 0) throw std::invalid_argument("ServerSim: blades must be >= 1");
  if (!(speed > 0.0)) throw std::invalid_argument("ServerSim: speed must be > 0");
  last_change_ = engine.now();
  last_sys_change_ = engine.now();
}

void ServerSim::account_system_change(int delta) {
  const double now = engine_.now();
  system_integral_ += static_cast<double>(in_system_) * (now - last_sys_change_);
  last_sys_change_ = now;
  in_system_ = static_cast<unsigned>(static_cast<int>(in_system_) + delta);
#if BLADE_OBS_ENABLED
  // Per-transition occupancy sample (histogram is cheap, thread-local)
  // plus a throttled (sim-time, occupancy) timeline: one point per 256
  // transitions keeps the bounded series useful over long horizons.
  BLADE_OBS_OBSERVE("sim.server_occupancy", static_cast<double>(in_system_));
  if ((++obs_changes_ & 0xFFu) == 0) {
    BLADE_OBS_SERIES_APPEND("sim.occupancy", now, static_cast<double>(in_system_));
  }
#endif
}

double ServerSim::time_avg_tasks(double t0, double t1) const {
  if (!(t1 > t0)) throw std::invalid_argument("ServerSim::time_avg_tasks: empty interval");
  const double integral =
      system_integral_ + static_cast<double>(in_system_) * (engine_.now() - last_sys_change_);
  return integral / (t1 - t0);
}

void ServerSim::account_busy_change(int delta) {
  const double now = engine_.now();
  busy_integral_ += static_cast<double>(busy_) * (now - last_change_);
  last_change_ = now;
  busy_ = static_cast<unsigned>(static_cast<int>(busy_) + delta);
}

double ServerSim::busy_blade_time() const {
  return busy_integral_ + static_cast<double>(busy_) * (engine_.now() - last_change_);
}

double ServerSim::mean_utilization(double t0, double t1) const {
  if (!(t1 > t0)) throw std::invalid_argument("ServerSim::mean_utilization: empty interval");
  // Only exact if t0 == 0 (the integral starts at construction); for the
  // validation runs we always measure over the full horizon.
  return busy_blade_time() / (static_cast<double>(blades_) * (t1 - t0));
}

void ServerSim::enqueue(Task task) {
  if (mode_ != SchedulingMode::Fcfs && task.cls == TaskClass::Special) {
    special_queue_.push_back(task);
  } else {
    generic_queue_.push_back(task);
  }
}

std::optional<Task> ServerSim::dequeue() {
  if (!special_queue_.empty()) {
    Task t = special_queue_.front();
    special_queue_.pop_front();
    return t;
  }
  if (!generic_queue_.empty()) {
    Task t = generic_queue_.front();
    generic_queue_.pop_front();
    return t;
  }
  return std::nullopt;
}

void ServerSim::start_on_slot(std::size_t slot, Task task) {
  Slot& s = slots_[slot];
  s.busy = true;
  s.task = task;
  const double eff = effective_speed();
  if (eff > 0.0) {
    const double service = task.work / eff;
    s.completion_time = engine_.now() + service;
    s.completion = engine_.schedule(service, *this, static_cast<std::uint32_t>(slot));
  } else {
    // Stalled: the task occupies the blade with its work frozen in
    // s.task.work; set_stalled(false) issues the completion later.
    s.completion = 0;
    s.completion_time = std::numeric_limits<double>::infinity();
  }
  account_busy_change(+1);
}

double ServerSim::remaining_work(const Slot& s) const {
  const double eff = effective_speed();
  // While stalled (or parked mid-stall) the slot's task.work *is* the
  // frozen remaining work; while running it is implied by the completion
  // time at the current effective rate.
  if (eff <= 0.0) return s.task.work;
  return (s.completion_time - engine_.now()) * eff;
}

void ServerSim::reschedule_running(double old_eff) {
  const double eff = effective_speed();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.busy) continue;
    const double remaining =
        old_eff > 0.0 ? (s.completion_time - engine_.now()) * old_eff : s.task.work;
    if (s.completion != 0) {
      engine_.cancel(s.completion);
      s.completion = 0;
    }
    s.task.work = remaining;
    if (eff > 0.0) {
      const double service = remaining / eff;
      s.completion_time = engine_.now() + service;
      s.completion = engine_.schedule(service, *this, static_cast<std::uint32_t>(i));
    } else {
      s.completion_time = std::numeric_limits<double>::infinity();
    }
  }
}

void ServerSim::set_speed_factor(double factor) {
  if (!std::isfinite(factor) || factor <= 0.0 || factor > 1.0) {
    throw std::invalid_argument("ServerSim::set_speed_factor: factor must be in (0, 1]");
  }
  if (factor == speed_factor_) return;
  const double old_eff = effective_speed();
  speed_factor_ = factor;
  reschedule_running(old_eff);
}

void ServerSim::set_stalled(bool on) {
  if (on == stalled_) return;
  const double old_eff = effective_speed();
  stalled_ = on;
  reschedule_running(old_eff);
}

void ServerSim::complete_slot(std::size_t slot) {
  Slot& s = slots_[slot];
  const Task done = s.task;
  s.busy = false;
  // Scrub the departed task's residue: a slot that keeps its stale task
  // class / completion time can be misread by a later arrival's victim
  // scan (the read-during-departure staleness class fixed below).
  s.task = Task{};
  s.completion_time = 0.0;
  account_busy_change(-1);
  account_system_change(-1);
  ++completions_;
  collector_.record(done.cls, engine_.now() - done.arrival_time, engine_.now());
  if (completion_observer_) completion_observer_(done, engine_.now());
  if (busy_ < available_) {
    if (auto next = dequeue()) {
      start_on_slot(slot, *next);
    }
  }
}

void ServerSim::set_available_blades(unsigned k) {
  if (k > blades_) {
    throw std::invalid_argument("ServerSim::set_available_blades: more blades than installed");
  }
  available_ = k;
  // Recovered blades pick up waiting work right away; a drain just stops
  // feeding slots (running tasks finish where they are).
  while (busy_ < available_) {
    auto next = dequeue();
    if (!next) break;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].busy) {
        start_on_slot(i, *next);
        break;
      }
    }
  }
}

void ServerSim::arrive(Task task) {
  task.arrival_time = engine_.now();
  account_system_change(+1);
  // Free blade?
  if (busy_ < available_) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].busy) {
        start_on_slot(i, task);
        return;
      }
    }
  }
  // Preemptive extension: a special arrival may evict a running generic
  // task (the one that would finish last, i.e. most remaining work).
  if (mode_ == SchedulingMode::PreemptiveResume && task.cls == TaskClass::Special) {
    std::size_t victim = slots_.size();
    double latest = -1.0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      // The slot must be BUSY: after a drain (available_ < blades_) an
      // idle slot still holds the departed generic task it last ran, and
      // picking it as victim cancels an already-fired event, computes
      // negative remaining work from the stale completion time, and
      // underflows the busy count.
      if (slots_[i].busy && slots_[i].task.cls == TaskClass::Generic &&
          slots_[i].completion_time > latest) {
        latest = slots_[i].completion_time;
        victim = i;
      }
    }
    if (victim != slots_.size()) {
      Slot& v = slots_[victim];
      if (v.completion != 0) engine_.cancel(v.completion);
      Task resumed = v.task;
      resumed.work = remaining_work(v);
      v.busy = false;
      account_busy_change(-1);
      ++preemptions_;
      generic_queue_.push_front(resumed);  // resume before other waiters
      start_on_slot(victim, task);
      return;
    }
  }
  enqueue(task);
}

}  // namespace blade::sim
