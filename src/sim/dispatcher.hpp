// Generic-task dispatchers: how the single arriving stream of generic
// tasks is routed to servers. Probabilistic routing with the optimizer's
// rates realizes the paper's model (a Poisson split is again Poisson);
// RoundRobin and JoinShortestQueue are dynamic comparison policies for
// the extension benches.
#pragma once

#include <cstddef>
#include <vector>

#include "policy/policy.hpp"
#include "sim/rng.hpp"
#include "sim/server_sim.hpp"

namespace blade::sim {

class Dispatcher {
 public:
  virtual ~Dispatcher() = default;
  /// Chooses the destination server index for the next generic task.
  [[nodiscard]] virtual std::size_t route(const std::vector<ServerSim*>& servers) = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Routes to server i with probability rates[i] / sum(rates).
class ProbabilisticDispatcher final : public Dispatcher {
 public:
  ProbabilisticDispatcher(std::vector<double> rates, RngStream rng);
  [[nodiscard]] std::size_t route(const std::vector<ServerSim*>& servers) override;
  [[nodiscard]] const char* name() const noexcept override { return "probabilistic"; }

 private:
  std::vector<double> cumulative_;  // normalized cumulative probabilities
  RngStream rng_;
};

/// Cycles deterministically through the servers.
class RoundRobinDispatcher final : public Dispatcher {
 public:
  [[nodiscard]] std::size_t route(const std::vector<ServerSim*>& servers) override;
  [[nodiscard]] const char* name() const noexcept override { return "round-robin"; }

 private:
  std::size_t next_ = 0;
};

/// Joins the server with the fewest tasks in system, normalized by
/// AVAILABLE blade count (ties broken by lowest index). Fully dark
/// servers are skipped while any alternative exists — comparing against
/// installed blades() routed arrivals into failed servers, where they
/// queued unservable until recovery (the stale-capacity regression in
/// tests/test_policy.cpp).
class JoinShortestQueueDispatcher final : public Dispatcher {
 public:
  [[nodiscard]] std::size_t route(const std::vector<ServerSim*>& servers) override;
  [[nodiscard]] const char* name() const noexcept override { return "join-shortest-queue"; }
};

/// Adapts a policy::DispatchPolicy to the simulator's Dispatcher seam.
/// The policy reads LIVE ServerSim state through a StateView built per
/// route() call — tasks_in_system()/available_blades() are evaluated at
/// the arrival instant, never cached across events, which is what keeps
/// the probe immune to the read-during-departure staleness bug class.
class PolicyDispatcher final : public Dispatcher {
 public:
  /// @param cfg  validated against `n` on construction (throws
  ///             std::invalid_argument like DispatchPolicy).
  PolicyDispatcher(policy::PolicyConfig cfg, std::size_t n);

  [[nodiscard]] std::size_t route(const std::vector<ServerSim*>& servers) override;
  [[nodiscard]] const char* name() const noexcept override {
    return policy_.name();
  }

  [[nodiscard]] const policy::DispatchPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] const policy::PolicyCounters& counters() const noexcept {
    return policy_.counters();
  }
  /// Tasks routed to each server so far — the measured assignment
  /// fractions the light-traffic oracle tests integrate against.
  [[nodiscard]] const std::vector<std::uint64_t>& routed_by_server() const noexcept {
    return routed_;
  }

 private:
  policy::DispatchPolicy policy_;
  std::vector<std::uint64_t> routed_;
};

}  // namespace blade::sim
