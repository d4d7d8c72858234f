// Unit tests for the solver hot path: the derivative-returning Erlang
// kernel, the analytic marginal derivative, the warm-bracketed Newton
// inner solve, workspace-threaded outer solves, and the batched
// optimize_many/optimize_chain layer (including the determinism
// contract: results never depend on the pool's thread count).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/batch.hpp"
#include "core/objective.hpp"
#include "core/optimizer.hpp"
#include "core/solver_core.hpp"
#include "model/paper_configs.hpp"
#include "numerics/erlang.hpp"
#include "obs/obs.hpp"
#include "parallel/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "support/generators.hpp"

namespace {

using namespace blade;
using testsupport::Instance;
using testsupport::make_instance;
using testsupport::Regime;
using queue::Discipline;

// --- Erlang kernel -------------------------------------------------------

TEST(ErlangCDerivs, ValueMatchesErlangC) {
  for (unsigned m : {1u, 2u, 5u, 16u, 64u}) {
    for (double rho : {0.0, 0.05, 0.3, 0.7, 0.95, 0.999}) {
      const auto k = num::erlang_c_derivs(m, rho);
      EXPECT_NEAR(k.c, num::erlang_c(m, rho), 1e-13) << "m=" << m << " rho=" << rho;
      EXPECT_NEAR(k.dc, num::erlang_c_drho(m, rho), 1e-9 * (1.0 + std::abs(k.dc)))
          << "m=" << m << " rho=" << rho;
    }
  }
}

TEST(ErlangCDerivs, SecondDerivativeMatchesCentralDifference) {
  for (unsigned m : {1u, 2u, 4u, 12u, 48u}) {
    for (double rho : {0.1, 0.35, 0.6, 0.85, 0.97}) {
      const double h = 1e-5;
      const double fd =
          (num::erlang_c_drho(m, rho + h) - num::erlang_c_drho(m, rho - h)) / (2.0 * h);
      const auto k = num::erlang_c_derivs(m, rho);
      EXPECT_NEAR(k.d2c, fd, 1e-5 * (1.0 + std::abs(fd))) << "m=" << m << " rho=" << rho;
    }
  }
}

TEST(ErlangCDerivs, ZeroLoadLimits) {
  // C(m, rho) ~ rho^m near 0: C(1,.) has slope 1, C(2,.) curvature 4
  // (C = 2 rho^2 / (1 + rho) to leading order), higher m vanish.
  const auto k1 = num::erlang_c_derivs(1, 0.0);
  EXPECT_DOUBLE_EQ(k1.c, 0.0);
  EXPECT_DOUBLE_EQ(k1.dc, 1.0);
  const auto k2 = num::erlang_c_derivs(2, 0.0);
  EXPECT_DOUBLE_EQ(k2.dc, 0.0);
  EXPECT_NEAR(k2.d2c, 4.0, 1e-12);
  const auto k3 = num::erlang_c_derivs(3, 0.0);
  EXPECT_DOUBLE_EQ(k3.dc, 0.0);
  EXPECT_DOUBLE_EQ(k3.d2c, 0.0);
}

// --- marginal derivative -------------------------------------------------

TEST(MarginalDerivative, MatchesMarginalAndCentralDifference) {
  const auto cluster = model::paper_example_cluster();
  for (Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    for (double scv : {1.0, 2.5}) {
      const opt::ResponseTimeObjective obj(cluster, d, /*lambda_total=*/5.0, scv);
      for (std::size_t i = 0; i < obj.size(); ++i) {
        const double sup = obj.rate_bound(i);
        for (double frac : {0.05, 0.3, 0.6, 0.9}) {
          const double rate = frac * sup;
          const auto [g, dg] = obj.marginal_with_derivative(i, rate);
          EXPECT_NEAR(g, obj.marginal(i, rate), 1e-12 * (1.0 + std::abs(g)))
              << "i=" << i << " frac=" << frac;
          const double h = 1e-6 * sup;
          const double fd = (obj.marginal(i, rate + h) - obj.marginal(i, rate - h)) / (2.0 * h);
          EXPECT_NEAR(dg, fd, 1e-4 * (1.0 + std::abs(fd)))
              << "i=" << i << " frac=" << frac << " scv=" << scv
              << " d=" << queue::to_string(d);
          EXPECT_GT(dg, 0.0);  // T' convex in lambda'_i
        }
      }
    }
  }
}

// --- warm-bracketed inner solve ------------------------------------------

class FindRateBracketed : public ::testing::Test {
 protected:
  FindRateBracketed()
      : solver_(model::paper_example_cluster(), Discipline::Fcfs),
        obj_(model::paper_example_cluster(), Discipline::Fcfs, 5.0) {}

  opt::LoadDistributionOptimizer solver_;
  opt::ResponseTimeObjective obj_;
};

TEST_F(FindRateBracketed, MatchesColdSolveFromValidBracket) {
  const double phi = 1.5;
  for (std::size_t i = 0; i < obj_.size(); ++i) {
    const double cold = solver_.find_rate(obj_, i, phi);
    if (cold <= 0.0) continue;
    const double warm =
        solver_.find_rate_bracketed(obj_, i, phi, 0.5 * cold, std::min(2.0 * cold,
                                    obj_.rate_bound(i)));
    EXPECT_NEAR(warm, cold, 1e-9 * (1.0 + cold)) << "server " << i;
  }
}

TEST_F(FindRateBracketed, CollapsedBracketCostsZeroEvaluations) {
  const double phi = 1.5;
  const double cold = solver_.find_rate(obj_, 0, phi);
  ASSERT_GT(cold, 0.0);
  long evals = 0;
  const double eps = 1e-13;  // < rate_tolerance
  const double r = solver_.find_rate_bracketed(obj_, 0, phi, cold - eps, cold + eps, &evals);
  EXPECT_EQ(evals, 0);
  EXPECT_NEAR(r, cold, 1e-12);
}

TEST_F(FindRateBracketed, MonotoneInPhi) {
  double prev = 0.0;
  for (double phi : {0.8, 1.0, 1.4, 2.0, 3.5}) {
    const double r = solver_.find_rate(obj_, 0, phi);
    EXPECT_GE(r, prev - 1e-12) << "phi=" << phi;
    prev = r;
  }
}

TEST_F(FindRateBracketed, UndershootingWarmBoundRecovers) {
  // A stale upper bound below the true root must not be trusted: the
  // solve resumes the doubling expansion and still lands on the root.
  const double phi = 2.0;
  const double cold = solver_.find_rate(obj_, 0, phi);
  ASSERT_GT(cold, 0.0);
  const double warm = solver_.find_rate_bracketed(obj_, 0, phi, 0.0, 0.5 * cold);
  EXPECT_NEAR(warm, cold, 1e-9 * (1.0 + cold));
}

// --- bracket-end memo ----------------------------------------------------

// The objective with a count of plain marginal queries that reach the
// kernel, so the memo test can see that it actually hits.
struct CountingObjective {
  const opt::ResponseTimeObjective& obj;
  long* plain_calls;

  double rate_bound(std::size_t i) const { return obj.rate_bound(i); }
  double marginal(std::size_t i, double rate) const {
    ++*plain_calls;
    return obj.marginal(i, rate);
  }
  std::pair<double, double> marginal_with_derivative(std::size_t i, double rate) const {
    return obj.marginal_with_derivative(i, rate);
  }
};

struct WarmBracketReplay {
  std::vector<std::uint64_t> rate_bits;  ///< every returned rate, in call order
  std::vector<ErrorCode> codes;          ///< every call's outcome
  long evals = 0;
  long plain_calls = 0;
};

// Drives find_rate_core through the phi search's warm-bracket pattern on
// the paper cluster: doubling phi until the rates cover lambda', then
// bisecting, with each server's inner solve bracketed by its rates at
// phi_lo and phi_hi. The end the bisection did not move is queried again
// on the next probe, which is what the memo answers.
WarmBracketReplay replay_warm_brackets(long max_evals, bool with_memo) {
  const auto cluster = model::paper_example_cluster();
  opt::OptimizerOptions opts;
  opts.max_marginal_evaluations = max_evals;
  const double lambda_total = 0.6 * cluster.max_generic_rate();
  const opt::ResponseTimeObjective base(cluster, Discipline::Fcfs, lambda_total);
  WarmBracketReplay out;
  const CountingObjective obj{base, &out.plain_calls};
  const std::size_t n = base.size();
  const double tol = opts.rate_tolerance;
  opt::detail::SolveBudget budget = opt::detail::SolveBudget::from(opts);
  std::vector<opt::detail::MarginalMemo> memo(n);
  std::vector<double> rates_lo(n, 0.0), rates_hi(n, 0.0), scratch(n, 0.0);
  double phi_lo = 0.0, phi_hi = -1.0;

  // F(phi) into scratch; false once a call fails.
  auto probe = [&](double phi, double& total) {
    total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double lo = phi >= phi_lo ? rates_lo[i] - tol : 0.0;
      const double hi = phi_hi >= 0.0 && phi <= phi_hi ? rates_hi[i] + tol : -1.0;
      auto r = opt::detail::find_rate_core(opts, obj, i, phi, lo, hi, &out.evals, budget,
                                           with_memo ? &memo[i] : nullptr);
      out.codes.push_back(r ? ErrorCode::Ok : r.error().code);
      if (!r) return false;
      out.rate_bits.push_back(std::bit_cast<std::uint64_t>(r.value()));
      scratch[i] = r.value();
      total += r.value();
    }
    return true;
  };
  auto absorb = [&](double phi, double total) {
    if (total < lambda_total) {
      phi_lo = phi;
      rates_lo.swap(scratch);
    } else {
      phi_hi = phi;
      rates_hi.swap(scratch);
    }
  };
  double total = 0.0;
  for (double phi = 1e-6;; phi *= 2.0) {
    if (!probe(phi, total)) return out;
    absorb(phi, total);
    if (total >= lambda_total) break;
  }
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (phi_lo + phi_hi);
    if (!probe(mid, total)) return out;
    absorb(mid, total);
  }
  return out;
}

TEST(MarginalMemo, WarmBracketSequenceMatchesNoMemoBitwise) {
  const WarmBracketReplay plain = replay_warm_brackets(0, false);
  const WarmBracketReplay memo = replay_warm_brackets(0, true);
  ASSERT_FALSE(plain.codes.empty());
  EXPECT_EQ(memo.rate_bits, plain.rate_bits);
  EXPECT_EQ(memo.codes, plain.codes);
  EXPECT_EQ(memo.evals, plain.evals);  // hits still count as evaluations
  // Not vacuous: the memo answered a share of the plain queries.
  EXPECT_LT(memo.plain_calls, plain.plain_calls);
  EXPECT_GT(memo.plain_calls, 0);

  // Budget trips land on the same call and the same evaluation count.
  for (long max_evals : {1L, 7L, plain.evals / 3, plain.evals / 2, plain.evals - 1}) {
    const WarmBracketReplay p = replay_warm_brackets(max_evals, false);
    const WarmBracketReplay m = replay_warm_brackets(max_evals, true);
    ASSERT_FALSE(p.codes.empty());
    EXPECT_EQ(p.codes.back(), ErrorCode::BudgetExceeded) << "max_evals=" << max_evals;
    EXPECT_EQ(m.codes, p.codes) << "max_evals=" << max_evals;
    EXPECT_EQ(m.rate_bits, p.rate_bits) << "max_evals=" << max_evals;
    EXPECT_EQ(m.evals, p.evals) << "max_evals=" << max_evals;
  }
}

TEST(MarginalMemo, OnlyABitwiseEqualRateHits) {
  // phi = g(b) exactly, with b a hair above a. After g(a) < phi is
  // memoized, a query at lo = b must reach the kernel: g(b) >= phi makes
  // the server inactive at lo, where a near-match would return g(a) and
  // send the solve on to Newton.
  const auto cluster = model::paper_example_cluster();
  const opt::ResponseTimeObjective obj(cluster, Discipline::Fcfs, 5.0);
  const opt::OptimizerOptions opts;
  const double a = 0.3 * obj.rate_bound(0);
  const double b = a * (1.0 + 1e-10);
  const double phi = obj.marginal(0, b);
  ASSERT_LT(obj.marginal(0, a), phi);
  opt::detail::SolveBudget budget;
  opt::detail::MarginalMemo memo;
  long evals = 0;
  (void)opt::detail::find_rate_core(opts, obj, 0, phi, a, -1.0, &evals, budget, &memo);
  ASSERT_EQ(std::bit_cast<std::uint64_t>(memo.x_lo), std::bit_cast<std::uint64_t>(a));
  evals = 0;
  auto r = opt::detail::find_rate_core(opts, obj, 0, phi, b, -1.0, &evals, budget, &memo);
  ASSERT_TRUE(r);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.value()), std::bit_cast<std::uint64_t>(b));
  EXPECT_EQ(evals, 1);
}

#if BLADE_OBS_ENABLED
TEST(MarginalMemo, ColdSweepRunsFewerRecurrencesThanEvaluations) {
  // One Erlang-B recurrence per kernel-reaching marginal query, and the
  // memo answers repeated bracket ends without one: a cold sweep needs
  // fewer recurrences than it counts marginal evaluations.
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  auto recurrences = [] {
    const obs::Snapshot snap = obs::registry().snapshot();
    const obs::MetricValue* m = snap.find("numerics.erlang_b_evals");
    return m != nullptr ? static_cast<long>(m->count) : 0L;
  };
  const long before = recurrences();
  long inner_evaluations = 0;
  for (double lambda : par::linspace(0.05 * cluster.max_generic_rate(),
                                     0.95 * cluster.max_generic_rate(), 24)) {
    inner_evaluations += solver.optimize(lambda).inner_evaluations;
  }
  const long delta = recurrences() - before;
  EXPECT_GT(delta, 0);
  EXPECT_LT(delta, inner_evaluations) << "erlang_b_evals=" << delta;
}
#endif

// --- workspace-threaded outer solves -------------------------------------

TEST(Workspace, ReusedWorkspaceMatchesFreshSolves) {
  for (auto [regime, d] : {std::pair{Regime::Random, Discipline::Fcfs},
                           std::pair{Regime::LargeServers, Discipline::SpecialPriority},
                           std::pair{Regime::NearSaturation, Discipline::Fcfs}}) {
    const Instance inst = make_instance(regime, 7, d);
    const opt::LoadDistributionOptimizer solver(inst.cluster, inst.discipline);
    opt::SolverWorkspace ws;
    const double lambda_max = inst.cluster.max_generic_rate();
    for (double frac : {0.2, 0.4, 0.6, 0.8, 0.85}) {
      const double lambda = frac * lambda_max;
      const auto warm = solver.optimize(lambda, ws);
      const auto cold = solver.optimize(lambda);
      EXPECT_NEAR(warm.response_time, cold.response_time,
                  1e-9 * (1.0 + cold.response_time))
          << inst.name << " frac=" << frac;
      ASSERT_EQ(warm.rates.size(), cold.rates.size());
      for (std::size_t i = 0; i < cold.rates.size(); ++i) {
        EXPECT_NEAR(warm.rates[i], cold.rates[i], 1e-5 * (1.0 + cold.rates[i]))
            << inst.name << " frac=" << frac << " server " << i;
      }
    }
    EXPECT_GT(ws.seed_phi(), 0.0);
  }
}

TEST(Workspace, WarmSweepIsCheaperThanColdSweep) {
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  const auto grid = par::linspace(3.0, 9.0, 24);
  long cold_evals = 0;
  long warm_evals = 0;
  opt::SolverWorkspace ws;
  for (double lambda : grid) {
    cold_evals += solver.optimize(lambda).inner_evaluations;
    warm_evals += solver.optimize(lambda, ws).inner_evaluations;
  }
  // The chain shares brackets and the phi seed; anything less than ~25%
  // cheaper would mean the warm start stopped working.
  EXPECT_LT(warm_evals, (3 * cold_evals) / 4)
      << "warm=" << warm_evals << " cold=" << cold_evals;
}

TEST(Workspace, ClearDropsTheSeed) {
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  opt::SolverWorkspace ws;
  (void)solver.optimize(5.0, ws);
  ASSERT_GT(ws.seed_phi(), 0.0);
  ws.clear();
  EXPECT_LT(ws.seed_phi(), 0.0);
}

// --- batched solves ------------------------------------------------------

TEST(OptimizeMany, MatchesSequentialOptimize) {
  const Instance inst = make_instance(Regime::SpeedExtremes, 3, Discipline::Fcfs);
  const opt::LoadDistributionOptimizer solver(inst.cluster, inst.discipline);
  const auto grid =
      par::linspace(0.1 * inst.lambda, 0.9 * inst.cluster.max_generic_rate(), 33);
  par::ThreadPool pool(2);
  const auto batch = opt::optimize_many(solver, grid, pool);
  ASSERT_EQ(batch.size(), grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const auto solo = solver.optimize(grid[k]);
    EXPECT_NEAR(batch[k].response_time, solo.response_time,
                1e-9 * (1.0 + solo.response_time))
        << "k=" << k;
  }
}

TEST(OptimizeMany, ThreadCountInvariant) {
  const Instance inst = make_instance(Regime::Random, 5, Discipline::SpecialPriority);
  const opt::LoadDistributionOptimizer solver(inst.cluster, inst.discipline);
  const auto grid =
      par::linspace(0.1 * inst.lambda, 0.9 * inst.cluster.max_generic_rate(), 40);
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  const auto a = opt::optimize_many(solver, grid, one);
  const auto b = opt::optimize_many(solver, grid, four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].response_time, b[k].response_time) << "k=" << k;  // bitwise
    ASSERT_EQ(a[k].rates.size(), b[k].rates.size());
    for (std::size_t i = 0; i < a[k].rates.size(); ++i) {
      EXPECT_EQ(a[k].rates[i], b[k].rates[i]) << "k=" << k << " i=" << i;
    }
  }
}

TEST(OptimizeMany, ChainEqualsSingleChunkBatch) {
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  const auto grid = par::linspace(2.0, 9.0, 17);
  const auto chained = opt::optimize_chain(solver, grid);
  par::ThreadPool pool(3);
  opt::BatchOptions opts;
  opts.chunk = grid.size();  // one chunk == one chain
  const auto batch = opt::optimize_many(solver, grid, pool, opts);
  ASSERT_EQ(chained.size(), batch.size());
  for (std::size_t k = 0; k < chained.size(); ++k) {
    EXPECT_EQ(chained[k].response_time, batch[k].response_time) << "k=" << k;
  }
}

TEST(OptimizeMany, HeterogeneousRequestsResolvePerSolver) {
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer fcfs(cluster, Discipline::Fcfs);
  const opt::LoadDistributionOptimizer prio(cluster, Discipline::SpecialPriority);
  std::vector<opt::SolveRequest> reqs;
  for (double lambda : {4.0, 5.0, 6.0}) reqs.push_back({&fcfs, lambda});
  for (double lambda : {4.0, 5.0, 6.0}) reqs.push_back({&prio, lambda});
  par::ThreadPool pool(2);
  const auto sols = opt::optimize_many(reqs, pool);
  ASSERT_EQ(sols.size(), reqs.size());
  for (std::size_t k = 0; k < reqs.size(); ++k) {
    const auto solo = reqs[k].solver->optimize(reqs[k].lambda_total);
    EXPECT_NEAR(sols[k].response_time, solo.response_time, 1e-9 * (1.0 + solo.response_time))
        << "k=" << k;
  }
  // Priority waits dominate FCFS waits at equal lambda on this cluster.
  EXPECT_GT(sols[3].response_time, sols[0].response_time);
}

TEST(OptimizeMany, RejectsBadInput) {
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  par::ThreadPool pool(1);
  opt::BatchOptions bad;
  bad.chunk = 0;
  const std::vector<double> grid{4.0};
  EXPECT_THROW((void)opt::optimize_many(solver, grid, pool, bad), std::invalid_argument);
  const std::vector<opt::SolveRequest> null_req{{nullptr, 4.0}};
  EXPECT_THROW((void)opt::optimize_many(null_req, pool), std::invalid_argument);
  opt::BatchOptions short_hints;
  short_hints.cost_hints = {1.0, 2.0};  // batch has 1 item
  EXPECT_THROW((void)opt::optimize_many(solver, grid, pool, short_hints),
               std::invalid_argument);
}

// Cost hints regroup the warm-start chains but solve the same problems:
// per-item results match the hint-free batch to solver tolerance, and
// with hints fixed the batch stays bitwise thread-count invariant (the
// cut is a pure function of (size, chunk, hints)).
TEST(OptimizeMany, CostHintsPreserveResultsAndDeterminism) {
  const Instance inst = make_instance(Regime::Random, 7, Discipline::Fcfs);
  const opt::LoadDistributionOptimizer solver(inst.cluster, inst.discipline);
  const auto grid =
      par::linspace(0.1 * inst.lambda, 0.9 * inst.cluster.max_generic_rate(), 40);
  opt::BatchOptions opts;
  opts.chunk = 8;
  opts.cost_hints.resize(grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    opts.cost_hints[k] = (k % 10 == 0) ? 20.0 : 1.0;
  }
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  const auto a = opt::optimize_many(solver, grid, one, opts);
  const auto b = opt::optimize_many(solver, grid, four, opts);
  const auto plain = opt::optimize_many(solver, grid, four);
  ASSERT_EQ(a.size(), grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    EXPECT_EQ(a[k].response_time, b[k].response_time) << "k=" << k;  // bitwise
    EXPECT_NEAR(a[k].response_time, plain[k].response_time,
                1e-9 * (1.0 + plain[k].response_time))
        << "k=" << k;
  }
}

TEST(OptimizeMany, PropagatesSolveErrors) {
  const auto cluster = model::paper_example_cluster();
  const opt::LoadDistributionOptimizer solver(cluster, Discipline::Fcfs);
  par::ThreadPool pool(2);
  std::vector<double> grid{4.0, 5.0, 1e9 /* infeasible */, 6.0};
  EXPECT_THROW((void)opt::optimize_many(solver, grid, pool), std::invalid_argument);
}

// --- for_each_chunk ------------------------------------------------------

TEST(ForEachChunk, CoversEveryIndexExactlyOnce) {
  par::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(103);
  par::for_each_chunk(pool, hits.size(), 16, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(hi, hits.size());
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ForEachChunk, RethrowsFirstException) {
  par::ThreadPool pool(2);
  EXPECT_THROW(par::for_each_chunk(pool, 50, 8,
                                   [&](std::size_t lo, std::size_t) {
                                     if (lo >= 16) throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  EXPECT_THROW(par::for_each_chunk(pool, 5, 0, [](std::size_t, std::size_t) {}),
               std::invalid_argument);
}

}  // namespace
