// Poisson task sources. Each source owns an RNG stream and schedules its
// own next arrival, handing tasks (with exponential work draws) to a sink.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/service.hpp"
#include "sim/task.hpp"

namespace blade::sim {

class PoissonSource final : private EventTarget {
 public:
  using Sink = std::function<void(Task)>;

  /// @param engine     simulation engine
  /// @param rate       arrival rate lambda (> 0)
  /// @param mean_work  mean execution requirement rbar (> 0); sizes are
  ///                   exponential (the paper's model)
  /// @param cls        class of the emitted tasks
  /// @param rng        dedicated random stream (moved in)
  /// @param sink       receives each task at its arrival instant
  PoissonSource(Engine& engine, double rate, double mean_work, TaskClass cls, RngStream rng,
                Sink sink);

  /// General-service variant: task sizes drawn from `work`.
  PoissonSource(Engine& engine, double rate, ServiceDistribution work, TaskClass cls,
                RngStream rng, Sink sink);

  /// Schedules the first arrival; call once before Engine::run_until.
  void start();

  /// Stops generating after the current pending arrival fires.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }

 private:
  /// The next arrival is due (the only event a source schedules).
  void on_event(std::uint32_t /*tag*/) override;

  Engine& engine_;
  double rate_;
  ServiceDistribution work_;
  TaskClass cls_;
  RngStream rng_;
  Sink sink_;
  bool stopped_ = false;
  std::uint64_t emitted_ = 0;
};

}  // namespace blade::sim
