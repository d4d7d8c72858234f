// Erlang B / Erlang C and their derivatives with respect to the server
// utilization rho. These are the kernels behind every response-time and
// marginal-cost evaluation in the optimizer.
//
// Stability: both functions are computed through the Erlang-B recurrence
//   B_0 = 1,  B_k = a B_{k-1} / (k + a B_{k-1}),   a = m * rho,
// which involves no factorials or powers and is stable for arbitrary m.
// The textbook formulas from the paper (p_0, partial p_0 / partial rho) are
// also provided (log-domain) for cross-validation in tests.
#pragma once

namespace blade::num {

/// Erlang-B blocking probability for m servers at offered load a = m*rho.
/// Defined for a >= 0, m >= 1; B(m, 0) == 0.
[[nodiscard]] double erlang_b(unsigned m, double a);

/// Erlang-C queueing probability P_q for an M/M/m queue with utilization
/// rho in [0, 1). This equals the paper's P_{q,i}.
[[nodiscard]] double erlang_c(unsigned m, double rho);

/// d/d(rho) of erlang_c(m, rho). Analytic, via
///   t = B/(1-B),  C = t/(1-rho+t),  dt/drho = (t m / rho)(1-rho+t),
///   dC/drho = (t' (1-rho) + t) / (1-rho+t)^2.
/// At rho == 0 the derivative is 0 for m >= 2 and 1 for m == 1.
[[nodiscard]] double erlang_c_drho(unsigned m, double rho);

/// erlang_c(m, rho) and erlang_c_drho(m, rho) from ONE Erlang-B
/// recurrence: the same arithmetic, in the same order, as the two
/// separate kernels, so both members are bitwise equal to theirs. This
/// is the plain Lagrange marginal's kernel (T' needs C, dT'/drho needs
/// C and C').
struct ErlangCDrho {
  double c = 0.0;   ///< C(m, rho)
  double dc = 0.0;  ///< dC/drho
};
[[nodiscard]] ErlangCDrho erlang_c_with_drho(unsigned m, double rho);

/// Erlang C together with its first two rho-derivatives, all from a
/// single Erlang-B recurrence evaluation. This is the solver's hot-path
/// kernel: one marginal-cost evaluation needs C, C', and (for Newton
/// steps) C'', and computing them separately would run the O(m)
/// recurrence three times. With t = B/(1-B) and u = 1 - rho + t:
///   C   = t/u
///   C'  = (t'(1-rho) + t) / u^2                 t' = (t m / rho) u
///   C'' = (t''(1-rho) u - 2 u' (t'(1-rho)+t)) / u^3,   u' = t' - 1,
///         t'' = m [ (t'/rho - t/rho^2) u + (t/rho) u' ].
struct ErlangCDerivs {
  double c = 0.0;    ///< C(m, rho)
  double dc = 0.0;   ///< dC/drho
  double d2c = 0.0;  ///< d^2C/drho^2
};
[[nodiscard]] ErlangCDerivs erlang_c_derivs(unsigned m, double rho);

/// Steady-state probability p_0 of an empty M/M/m system (paper formula,
/// evaluated stably). Underflows to 0 gracefully for very large m*rho.
[[nodiscard]] double mmm_p0(unsigned m, double rho);

/// Paper's partial p_0 / partial rho (used only for cross-checking the
/// recurrence-based derivative; computed term-by-term, so intended for
/// moderate m).
[[nodiscard]] double mmm_p0_drho(unsigned m, double rho);

/// Direct textbook Erlang C through p_0 (reference implementation for
/// tests; subject to overflow for very large m, use erlang_c instead).
[[nodiscard]] double erlang_c_reference(unsigned m, double rho);

}  // namespace blade::num
