// BladeQueue: the paper's T'_i formulas for both disciplines, their
// derivatives, convexity of the weighted response time, and the priority
// factor of Theorem 2.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "numerics/convexity.hpp"
#include "numerics/differentiation.hpp"
#include "queueing/blade_queue.hpp"
#include "queueing/mm1.hpp"
#include "queueing/mmm.hpp"

namespace {

using blade::queue::BladeQueue;
using blade::queue::Discipline;

TEST(BladeQueue, ConstructionValidation) {
  EXPECT_THROW(BladeQueue(0, 1.0, 0.0, Discipline::Fcfs), std::invalid_argument);
  EXPECT_THROW(BladeQueue(2, 0.0, 0.0, Discipline::Fcfs), std::invalid_argument);
  EXPECT_THROW(BladeQueue(2, 1.0, -1.0, Discipline::Fcfs), std::invalid_argument);
  // Special stream alone saturating the server is rejected.
  EXPECT_THROW(BladeQueue(2, 1.0, 2.5, Discipline::Fcfs), blade::queue::UnstableQueueError);
}

TEST(BladeQueue, DisciplineNames) {
  EXPECT_STREQ(blade::queue::to_string(Discipline::Fcfs), "fcfs");
  EXPECT_STREQ(blade::queue::to_string(Discipline::SpecialPriority), "priority");
}

TEST(BladeQueue, UtilizationSplitsAdditively) {
  const BladeQueue q(4, 0.5, 2.0, Discipline::Fcfs);
  EXPECT_DOUBLE_EQ(q.special_utilization(), 0.25);
  EXPECT_NEAR(q.utilization(2.0), 0.5, 1e-14);  // rho' = rho'' = 0.25
  EXPECT_DOUBLE_EQ(q.max_generic_rate(), 6.0);
  EXPECT_THROW((void)q.utilization(6.5), blade::queue::UnstableQueueError);
}

TEST(BladeQueue, FcfsEqualsMergedMMm) {
  // Without priority the generic response time is just the M/M/m response
  // at the merged rate.
  const BladeQueue q(5, 0.8, 1.5, Discipline::Fcfs);
  const blade::queue::MMmQueue merged(5, 0.8);
  for (double lam : {0.0, 0.5, 2.0, 4.0}) {
    EXPECT_NEAR(q.generic_response_time(lam), merged.mean_response_time(lam + 1.5), 1e-12);
    EXPECT_NEAR(q.special_response_time(lam), q.generic_response_time(lam), 1e-12);
  }
}

TEST(BladeQueue, PriorityFactorMatchesTheorem2) {
  // T'(priority) = xbar + W(fcfs) / (1 - rho'') exactly.
  const unsigned m = 6;
  const double xbar = 0.7;
  const double lambda2 = 3.0;
  const BladeQueue fcfs(m, xbar, lambda2, Discipline::Fcfs);
  const BladeQueue prio(m, xbar, lambda2, Discipline::SpecialPriority);
  const double rho2 = prio.special_utilization();
  for (double lam : {0.1, 1.0, 3.0, 5.0}) {
    const double w_fcfs = fcfs.generic_response_time(lam) - xbar;
    EXPECT_NEAR(prio.generic_response_time(lam), xbar + w_fcfs / (1.0 - rho2), 1e-12);
  }
}

TEST(BladeQueue, PriorityHelpsSpecialHurtsGeneric) {
  const BladeQueue fcfs(4, 1.0, 1.2, Discipline::Fcfs);
  const BladeQueue prio(4, 1.0, 1.2, Discipline::SpecialPriority);
  for (double lam : {0.5, 1.5, 2.5}) {
    EXPECT_GT(prio.generic_response_time(lam), fcfs.generic_response_time(lam));
    EXPECT_LT(prio.special_response_time(lam), fcfs.special_response_time(lam));
  }
}

TEST(BladeQueue, NoSpecialTasksMakesDisciplinesIdentical) {
  const BladeQueue fcfs(3, 0.5, 0.0, Discipline::Fcfs);
  const BladeQueue prio(3, 0.5, 0.0, Discipline::SpecialPriority);
  for (double lam : {0.5, 2.0, 4.0}) {
    EXPECT_NEAR(fcfs.generic_response_time(lam), prio.generic_response_time(lam), 1e-14);
  }
}

TEST(BladeQueue, SingleBladeMatchesMM1ClosedForms) {
  const double xbar = 0.8;
  const double lambda2 = 0.4;  // rho'' = 0.32
  const BladeQueue fcfs(1, xbar, lambda2, Discipline::Fcfs);
  const BladeQueue prio(1, xbar, lambda2, Discipline::SpecialPriority);
  for (double lam : {0.1, 0.4, 0.7}) {
    const double rho = (lam + lambda2) * xbar;
    EXPECT_NEAR(fcfs.generic_response_time(lam), blade::queue::mm1_response_time(xbar, rho),
                1e-12);
    EXPECT_NEAR(prio.generic_response_time(lam),
                blade::queue::mm1_priority_generic_response_time(xbar, rho, lambda2 * xbar),
                1e-12);
  }
}

TEST(BladeQueue, AnalyticDerivativeMatchesNumeric) {
  for (Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    for (unsigned m : {1u, 2u, 6u, 14u}) {
      const double xbar = 0.9;
      const double lambda2 = 0.3 * m / xbar;
      const BladeQueue q(m, xbar, lambda2, d);
      for (double frac : {0.1, 0.4, 0.7, 0.9}) {
        const double lam = frac * q.max_generic_rate();
        const auto f = [&](double x) { return q.generic_response_time(x); };
        const double numeric = blade::num::richardson_derivative(f, lam);
        EXPECT_NEAR(q.dT_dlambda(lam), numeric, 1e-5 * std::max(1.0, std::abs(numeric)))
            << "d=" << blade::queue::to_string(d) << " m=" << m << " frac=" << frac;
      }
    }
  }
}

TEST(BladeQueue, ResponseTimeIsConvexInGenericRate) {
  for (Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    for (unsigned m : {1u, 4u, 10u}) {
      const BladeQueue q(m, 1.0, 0.3 * m, d);
      const double hi = 0.98 * q.max_generic_rate();
      // The objective contribution lambda * T'(lambda) must be convex.
      const auto rep = blade::num::check_convex(
          [&](double lam) { return lam * q.generic_response_time(lam); }, 0.0, hi, 120, 1e-8);
      EXPECT_TRUE(rep.holds) << "m=" << m << " worst=" << rep.worst_violation;
    }
  }
}

TEST(BladeQueue, LagrangeMarginalIsIncreasing) {
  // The solver's correctness rests on this monotonicity.
  for (Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    for (unsigned m : {1u, 2u, 8u, 14u}) {
      const BladeQueue q(m, 1.1, 0.25 * m / 1.1, d);
      const double hi = 0.97 * q.max_generic_rate();
      const auto rep = blade::num::check_increasing(
          [&](double lam) { return q.lagrange_marginal(lam); }, 0.0, hi, 160, 1e-9);
      EXPECT_TRUE(rep.holds) << "m=" << m << " worst at " << rep.worst_x;
    }
  }
}

TEST(BladeQueue, MarginalAtZeroIsIdleResponseTime) {
  const BladeQueue q(4, 1.0, 1.0, Discipline::Fcfs);
  EXPECT_NEAR(q.lagrange_marginal(0.0), q.generic_response_time(0.0), 1e-14);
}

TEST(BladeQueue, LagrangeMarginalBitwiseEqualsComposition) {
  // lagrange_marginal fuses the kernel passes of T' + lambda1 dT'/dlambda1
  // but must keep that composition's arithmetic bit for bit.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (Discipline d : {Discipline::Fcfs, Discipline::SpecialPriority}) {
    for (double scv : {0.0, 1.0, 2.5}) {
      for (unsigned m : {1u, 2u, 7u, 14u, 64u, 300u}) {
        for (double special_load : {0.0, 0.3}) {
          const double xbar = 1.3;
          const BladeQueue q(m, xbar, special_load * m / xbar, d, scv);
          const double sup = q.max_generic_rate();
          std::vector<double> rates{0.0, 1e-12 * sup, (1.0 - 1e-9) * sup, (1.0 - 1e-12) * sup};
          for (int k = 1; k < 200; ++k) rates.push_back(k / 200.0 * sup);
          for (double lam : rates) {
            const double reference = q.generic_response_time(lam) + lam * q.dT_dlambda(lam);
            EXPECT_EQ(bits(q.lagrange_marginal(lam)), bits(reference))
                << blade::queue::to_string(d) << " scv=" << scv << " m=" << m
                << " special=" << special_load << " lambda1=" << lam;
          }
        }
      }
    }
  }
}

TEST(BladeQueue, RhoQueryValidation) {
  const BladeQueue q(2, 1.0, 0.5, Discipline::Fcfs);
  EXPECT_THROW((void)q.response_time_at_rho(1.0), std::invalid_argument);
  EXPECT_THROW((void)q.response_time_at_rho(-0.1), std::invalid_argument);
  EXPECT_THROW((void)q.utilization(-1.0), std::invalid_argument);
}

}  // namespace
