// A simulated blade server: m identical blades of speed s in front of an
// unbounded waiting queue. Three scheduling modes:
//
//   Fcfs                   the paper's Section 3 (classes mixed FCFS)
//   NonPreemptivePriority  the paper's Section 4 (special tasks jump the
//                          queue but never interrupt running tasks)
//   PreemptiveResume       extension: an arriving special task may evict a
//                          running generic task, which later resumes with
//                          its remaining work
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/task.hpp"

namespace blade::sim {

enum class SchedulingMode : std::uint8_t {
  Fcfs,
  NonPreemptivePriority,
  PreemptiveResume,
};

class ServerSim final : private EventTarget {
 public:
  ServerSim(Engine& engine, unsigned blades, double speed, SchedulingMode mode,
            ResponseTimeCollector& collector);

  ServerSim(const ServerSim&) = delete;
  ServerSim& operator=(const ServerSim&) = delete;

  /// A task arrives at the current simulated time.
  void arrive(Task task);

  /// Changes the number of usable blades (failure injection). Lowering is
  /// a graceful drain: running tasks finish on their blade, but no new
  /// task starts while busy blades >= the new count. Raising immediately
  /// starts queued tasks on the freed blades. `k` must be <= blades().
  /// With k == 0 the server accepts arrivals but runs nothing (they wait
  /// for a recovery).
  void set_available_blades(unsigned k);

  /// Gray-failure injection: scales the effective service speed of every
  /// blade to `factor * speed()` (factor in (0, 1]; 1.0 restores
  /// nominal). In-flight tasks are rescheduled to finish their remaining
  /// work at the new rate.
  void set_speed_factor(double factor);

  /// Gray-failure injection: pauses (true) / resumes (false) all service.
  /// A stalled server keeps its blades nominally available and keeps
  /// accepting arrivals — running tasks freeze with their remaining work
  /// intact, queued tasks wait — so the backlog builds exactly as a real
  /// intermittent stall would. Resuming restarts every frozen task.
  void set_stalled(bool on);

  /// Invoked at every task completion (after metrics are recorded) with
  /// the departing task and the completion instant. The runtime health
  /// feed observes per-server completion rates through this hook.
  void set_completion_observer(std::function<void(const Task&, double)> cb) {
    completion_observer_ = std::move(cb);
  }

  [[nodiscard]] unsigned blades() const noexcept { return blades_; }
  [[nodiscard]] unsigned available_blades() const noexcept { return available_; }
  [[nodiscard]] double speed() const noexcept { return speed_; }
  [[nodiscard]] double speed_factor() const noexcept { return speed_factor_; }
  [[nodiscard]] bool stalled() const noexcept { return stalled_; }
  /// Current service rate of one blade: 0 while stalled, otherwise
  /// speed() * speed_factor().
  [[nodiscard]] double effective_speed() const noexcept {
    return stalled_ ? 0.0 : speed_ * speed_factor_;
  }
  [[nodiscard]] unsigned busy_blades() const noexcept { return busy_; }
  [[nodiscard]] std::size_t queued_tasks() const noexcept {
    return generic_queue_.size() + special_queue_.size();
  }
  [[nodiscard]] std::size_t tasks_in_system() const noexcept { return busy_ + queued_tasks(); }

  /// Time-integrated busy blade-time (for utilization estimates).
  [[nodiscard]] double busy_blade_time() const;

  /// Mean utilization over [t0, t1]: busy_blade_time / (m (t1 - t0)).
  [[nodiscard]] double mean_utilization(double t0, double t1) const;

  /// Time-averaged number of tasks in the system over [t0, t1] (t0 must
  /// be the construction time, i.e. 0 in practice). Together with the
  /// response-time collector this lets tests verify Little's law on the
  /// simulated process itself.
  [[nodiscard]] double time_avg_tasks(double t0, double t1) const;

  [[nodiscard]] std::uint64_t completions() const noexcept { return completions_; }
  [[nodiscard]] std::uint64_t preemptions() const noexcept { return preemptions_; }

 private:
  struct Slot {
    bool busy = false;
    Task task;
    EventId completion = 0;
    double completion_time = 0.0;
  };

  /// A completion event: `tag` is the blade slot that finished.
  void on_event(std::uint32_t tag) override { complete_slot(tag); }
  void enqueue(Task task);
  [[nodiscard]] std::optional<Task> dequeue();
  void start_on_slot(std::size_t slot, Task task);
  void complete_slot(std::size_t slot);
  void account_busy_change(int delta);
  void account_system_change(int delta);
  /// Remaining work of a busy slot at the current instant (valid whether
  /// the slot is running or frozen by a stall).
  [[nodiscard]] double remaining_work(const Slot& s) const;
  /// Cancels and re-issues every busy slot's completion after the
  /// effective speed changed from `old_eff` to effective_speed().
  void reschedule_running(double old_eff);

  Engine& engine_;
  unsigned blades_;
  double speed_;
  SchedulingMode mode_;
  ResponseTimeCollector& collector_;

  std::vector<Slot> slots_;
  std::deque<Task> generic_queue_;
  std::deque<Task> special_queue_;  // used in priority modes
  unsigned busy_ = 0;
  unsigned available_;          ///< usable blades (== blades_ unless failed)
  double speed_factor_ = 1.0;   ///< gray slowdown multiplier in (0, 1]
  bool stalled_ = false;        ///< gray stall: service frozen, queue open
  std::function<void(const Task&, double)> completion_observer_;

  double busy_integral_ = 0.0;
  double last_change_ = 0.0;
  unsigned in_system_ = 0;
  double system_integral_ = 0.0;
  double last_sys_change_ = 0.0;
  std::uint64_t completions_ = 0;
  std::uint64_t preemptions_ = 0;
#if BLADE_OBS_ENABLED
  std::uint64_t obs_changes_ = 0;  // throttles the occupancy timeline
#endif
};

}  // namespace blade::sim
