#include "sim/mmpp.hpp"

#include <stdexcept>
#include <utility>

namespace blade::sim {

double MmppParams::mean_rate() const noexcept {
  const double total = sojourn_quiet + sojourn_busy;
  return (rate_quiet * sojourn_quiet + rate_busy * sojourn_busy) / total;
}

double MmppParams::burstiness() const noexcept {
  const double mean = mean_rate();
  return mean > 0.0 ? rate_busy / mean : 1.0;
}

MmppParams MmppParams::with_mean(double mean_rate, double burstiness, double sojourn) {
  if (!(mean_rate > 0.0)) throw std::invalid_argument("MmppParams: mean rate must be > 0");
  if (!(burstiness >= 1.0) || !(burstiness < 2.0)) {
    throw std::invalid_argument("MmppParams: burstiness must be in [1, 2) for equal sojourns");
  }
  if (!(sojourn > 0.0)) throw std::invalid_argument("MmppParams: sojourn must be > 0");
  MmppParams p;
  p.rate_busy = burstiness * mean_rate;
  p.rate_quiet = (2.0 - burstiness) * mean_rate;  // equal sojourns average out
  p.sojourn_quiet = sojourn;
  p.sojourn_busy = sojourn;
  return p;
}

MmppSource::MmppSource(Engine& engine, MmppParams params, ServiceDistribution work,
                       TaskClass cls, RngStream rng, Sink sink)
    : engine_(engine), params_(params), work_(work), cls_(cls), rng_(std::move(rng)),
      sink_(std::move(sink)) {
  if (!(params_.rate_busy >= params_.rate_quiet) || !(params_.rate_quiet >= 0.0)) {
    throw std::invalid_argument("MmppSource: need 0 <= quiet rate <= busy rate");
  }
  if (!(params_.rate_busy > 0.0)) throw std::invalid_argument("MmppSource: busy rate must be > 0");
  if (!(params_.sojourn_quiet > 0.0) || !(params_.sojourn_busy > 0.0)) {
    throw std::invalid_argument("MmppSource: sojourns must be > 0");
  }
  if (!sink_) throw std::invalid_argument("MmppSource: null sink");
}

void MmppSource::start() {
  schedule_arrival();
  engine_.schedule(rng_.exponential(params_.sojourn_quiet), *this, kToggle);
}

void MmppSource::on_event(std::uint32_t tag) {
  if (tag == kToggle) {
    toggle_state();
    return;
  }
  Task t;
  t.cls = cls_;
  t.arrival_time = engine_.now();
  t.work = work_.sample(rng_);
  ++emitted_;
  sink_(t);
  schedule_arrival();
}

void MmppSource::schedule_arrival() {
  const double rate = busy_ ? params_.rate_busy : params_.rate_quiet;
  if (rate <= 0.0) {
    pending_arrival_ = 0;  // silent state; the next toggle reschedules
    return;
  }
  pending_arrival_ = engine_.schedule(rng_.exponential(1.0 / rate), *this, kArrival);
}

void MmppSource::toggle_state() {
  // Memorylessness makes "cancel and redraw at the new rate" exact.
  if (pending_arrival_ != 0) engine_.cancel(pending_arrival_);
  busy_ = !busy_;
  schedule_arrival();
  const double sojourn = busy_ ? params_.sojourn_busy : params_.sojourn_quiet;
  engine_.schedule(rng_.exponential(sojourn), *this, kToggle);
}

}  // namespace blade::sim
