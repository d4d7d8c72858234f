#include "queueing/blade_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "numerics/erlang.hpp"
#include "obs/obs.hpp"
#include "queueing/mmm.hpp"

namespace blade::queue {

const char* to_string(Discipline d) noexcept {
  return d == Discipline::Fcfs ? "fcfs" : "priority";
}

BladeQueue::BladeQueue(unsigned m, double xbar, double lambda2, Discipline d, double service_scv)
    : m_(m), xbar_(xbar), lambda2_(lambda2), disc_(d), scv_(service_scv) {
  if (m == 0) throw std::invalid_argument("BladeQueue: m must be >= 1");
  if (!(xbar > 0.0)) throw std::invalid_argument("BladeQueue: xbar must be > 0");
  if (!(lambda2 >= 0.0)) throw std::invalid_argument("BladeQueue: lambda2 must be >= 0");
  if (!(service_scv >= 0.0)) throw std::invalid_argument("BladeQueue: scv must be >= 0");
  if (special_utilization() >= 1.0) {
    throw UnstableQueueError("BladeQueue: special tasks alone saturate the server");
  }
}

double BladeQueue::special_utilization() const noexcept {
  return lambda2_ * xbar_ / static_cast<double>(m_);
}

double BladeQueue::max_generic_rate() const noexcept {
  return static_cast<double>(m_) / xbar_ - lambda2_;
}

double BladeQueue::utilization(double lambda1) const {
  if (!(lambda1 >= 0.0)) throw std::invalid_argument("BladeQueue: lambda1 must be >= 0");
  const double rho = (lambda1 + lambda2_) * xbar_ / static_cast<double>(m_);
  if (rho >= 1.0) {
    throw UnstableQueueError("BladeQueue: generic + special arrivals exceed capacity");
  }
  return rho;
}

double BladeQueue::response_time_at_rho(double rho) const {
  if (!(rho >= 0.0) || rho >= 1.0) {
    throw std::invalid_argument("BladeQueue: rho must be in [0, 1)");
  }
  return response_time_from(rho, num::erlang_c(m_, rho));
}

double BladeQueue::response_time_from(double rho, double pq) const {
  const double md = static_cast<double>(m_);
  double wait = variability_factor() * pq / (md * (1.0 - rho)) * xbar_;
  if (disc_ == Discipline::SpecialPriority) {
    wait /= (1.0 - special_utilization());
  }
  return xbar_ + wait;
}

double BladeQueue::generic_response_time(double lambda1) const {
  return response_time_at_rho(utilization(lambda1));
}

double BladeQueue::special_response_time(double lambda1) const {
  const double rho = utilization(lambda1);
  const double pq = num::erlang_c(m_, rho);
  const double md = static_cast<double>(m_);
  if (disc_ == Discipline::Fcfs) {
    return xbar_ + variability_factor() * pq * xbar_ / (md * (1.0 - rho));
  }
  // Theorem 2's intermediate result: W'' = W_0 / (1 - rho'').
  const double w0 = variability_factor() * pq * xbar_ / md;
  return xbar_ + w0 / (1.0 - special_utilization());
}

double BladeQueue::dT_drho(double lambda1) const {
  const double rho = utilization(lambda1);
  const auto k = num::erlang_c_with_drho(m_, rho);
  return dT_drho_from(rho, k.c, k.dc);
}

double BladeQueue::dT_drho_from(double rho, double pq, double dpq) const {
  const double md = static_cast<double>(m_);
  // T' = xbar (1 + f * C/(1-rho) / m) with f = (1+scv)/2 times 1 (FCFS)
  // or 1/(1-rho'') (priority); f is constant in rho either way.
  double f = variability_factor();
  if (disc_ == Discipline::SpecialPriority) f /= (1.0 - special_utilization());
  const double one_minus = 1.0 - rho;
  return xbar_ * f / md * (dpq * one_minus + pq) / (one_minus * one_minus);
}

double BladeQueue::dT_dlambda(double lambda1) const {
  return xbar_ / static_cast<double>(m_) * dT_drho(lambda1);
}

double BladeQueue::lagrange_marginal(double lambda1) const {
  // generic_response_time(lambda1) + lambda1 * dT_dlambda(lambda1) through
  // the same helpers, with C and C' from one Erlang-B recurrence.
  const double rho = utilization(lambda1);
  const auto k = num::erlang_c_with_drho(m_, rho);
  return response_time_from(rho, k.c) +
         lambda1 * (xbar_ / static_cast<double>(m_) * dT_drho_from(rho, k.c, k.dc));
}

std::pair<double, double> BladeQueue::lagrange_marginal_with_derivative(double lambda1) const {
  const double rho = utilization(lambda1);
  const double md = static_cast<double>(m_);
  const auto k = num::erlang_c_derivs(m_, rho);
  double f = variability_factor();
  if (disc_ == Discipline::SpecialPriority) f /= (1.0 - special_utilization());
  const double one_minus = 1.0 - rho;
  const double scale = xbar_ * f / md;
  const double T = xbar_ + scale * k.c / one_minus;  // T' = xbar + xbar f C /(m(1-rho))
  const double dT_drho_v = scale * (k.dc * one_minus + k.c) / (one_minus * one_minus);
  const double d2T_drho2_v =
      scale * (k.d2c * one_minus * one_minus + 2.0 * (k.dc * one_minus + k.c)) /
      (one_minus * one_minus * one_minus);
  const double s = xbar_ / md;  // drho/dlambda1
  const double dT_dl = s * dT_drho_v;
  const double d2T_dl2 = s * s * d2T_drho2_v;
  const double g = T + lambda1 * dT_dl;
  double dg = 2.0 * dT_dl + lambda1 * d2T_dl2;
  if (!std::isfinite(dg)) {
    // Analytic curvature overflowed (rho pushed against 1): guarded
    // central difference of the marginal keeps Newton usable, and the
    // differential tests pin this fallback against the analytic branch.
    const double sup = max_generic_rate();
    const double h = std::max(1e-9, 1e-7 * std::min(lambda1, sup - lambda1));
    const double hi = std::min(lambda1 + h, (1.0 - 1e-12) * sup);
    const double lo = std::max(lambda1 - h, 0.0);
    if (hi > lo) dg = (lagrange_marginal(hi) - lagrange_marginal(lo)) / (hi - lo);
  }
  return {g, dg};
}

}  // namespace blade::queue
