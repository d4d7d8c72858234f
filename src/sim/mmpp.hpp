// Markov-modulated Poisson process (two-state MMPP) arrival source: the
// paper assumes Poisson generic arrivals; real cloud traffic is bursty.
// An MMPP-2 alternates between a quiet and a busy state with exponential
// sojourns, emitting Poisson arrivals at a state-dependent rate. Its
// long-run average rate is kept equal to a target lambda so results are
// directly comparable with the Poisson model at the same load.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/service.hpp"
#include "sim/task.hpp"

namespace blade::sim {

struct MmppParams {
  double rate_quiet = 0.0;   ///< arrival rate in the quiet state
  double rate_busy = 0.0;    ///< arrival rate in the busy state (>= quiet)
  double sojourn_quiet = 1.0;  ///< mean time in quiet state
  double sojourn_busy = 1.0;   ///< mean time in busy state

  /// Long-run average arrival rate (state-time weighted).
  [[nodiscard]] double mean_rate() const noexcept;

  /// Burstiness index: rate_busy / mean_rate (1 = Poisson-like).
  [[nodiscard]] double burstiness() const noexcept;

  /// Builds parameters with a given mean rate and burstiness factor b:
  /// busy rate = b * mean, quiet rate chosen so the average comes out at
  /// `mean_rate` with equal sojourn times. Requires 1 <= b < 2 for
  /// equal sojourns (quiet rate must stay >= 0).
  [[nodiscard]] static MmppParams with_mean(double mean_rate, double burstiness,
                                            double sojourn = 10.0);
};

class MmppSource final : private EventTarget {
 public:
  using Sink = std::function<void(Task)>;

  MmppSource(Engine& engine, MmppParams params, ServiceDistribution work, TaskClass cls,
             RngStream rng, Sink sink);

  /// Schedules the first state change and arrival; call once.
  void start();

  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }
  [[nodiscard]] bool busy_state() const noexcept { return busy_; }

 private:
  enum Tag : std::uint32_t { kArrival, kToggle };

  void on_event(std::uint32_t tag) override;
  void schedule_arrival();
  void toggle_state();

  Engine& engine_;
  MmppParams params_;
  ServiceDistribution work_;
  TaskClass cls_;
  RngStream rng_;
  Sink sink_;
  bool busy_ = false;
  EventId pending_arrival_ = 0;
  std::uint64_t emitted_ = 0;
};

}  // namespace blade::sim
