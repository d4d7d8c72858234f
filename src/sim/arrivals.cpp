#include "sim/arrivals.hpp"

#include <stdexcept>
#include <utility>

namespace blade::sim {

PoissonSource::PoissonSource(Engine& engine, double rate, double mean_work, TaskClass cls,
                             RngStream rng, Sink sink)
    : PoissonSource(engine, rate, ServiceDistribution::exponential(mean_work), cls,
                    std::move(rng), std::move(sink)) {}

PoissonSource::PoissonSource(Engine& engine, double rate, ServiceDistribution work,
                             TaskClass cls, RngStream rng, Sink sink)
    : engine_(engine), rate_(rate), work_(work), cls_(cls), rng_(std::move(rng)),
      sink_(std::move(sink)) {
  if (!(rate > 0.0)) throw std::invalid_argument("PoissonSource: rate must be > 0");
  if (!sink_) throw std::invalid_argument("PoissonSource: null sink");
}

void PoissonSource::start() {
  engine_.schedule(rng_.exponential(1.0 / rate_), *this, 0);
}

void PoissonSource::on_event(std::uint32_t /*tag*/) {
  if (stopped_) return;
  Task t;
  t.cls = cls_;
  t.arrival_time = engine_.now();
  t.work = work_.sample(rng_);
  ++emitted_;
  sink_(t);
  engine_.schedule(rng_.exponential(1.0 / rate_), *this, 0);
}

}  // namespace blade::sim
