#include "sim/dispatcher.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "numerics/special.hpp"

namespace blade::sim {

ProbabilisticDispatcher::ProbabilisticDispatcher(std::vector<double> rates, RngStream rng)
    : rng_(std::move(rng)) {
  if (rates.empty()) throw std::invalid_argument("ProbabilisticDispatcher: no rates");
  num::KahanSum total;
  for (double r : rates) {
    if (!(r >= 0.0)) throw std::invalid_argument("ProbabilisticDispatcher: negative rate");
    total.add(r);
  }
  if (!(total.value() > 0.0)) {
    throw std::invalid_argument("ProbabilisticDispatcher: all rates are zero");
  }
  cumulative_.resize(rates.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    acc += rates[i] / total.value();
    cumulative_[i] = acc;
  }
  cumulative_.back() = 1.0;  // guard against rounding
}

std::size_t ProbabilisticDispatcher::route(const std::vector<ServerSim*>& servers) {
  if (servers.size() != cumulative_.size()) {
    throw std::invalid_argument("ProbabilisticDispatcher: server count mismatch");
  }
  const double u = rng_.uniform();
  // First i with cumulative_[i] >= u — the same index the old linear scan
  // (`u <= cumulative_[i]`) returned, so seeded routing sequences are
  // unchanged, in O(log n) instead of O(n).
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  const auto i = static_cast<std::size_t>(std::distance(cumulative_.begin(), it));
  return i < cumulative_.size() ? i : cumulative_.size() - 1;
}

std::size_t RoundRobinDispatcher::route(const std::vector<ServerSim*>& servers) {
  if (servers.empty()) throw std::invalid_argument("RoundRobinDispatcher: no servers");
  const std::size_t pick = next_ % servers.size();
  next_ = (next_ + 1) % servers.size();
  return pick;
}

std::size_t JoinShortestQueueDispatcher::route(const std::vector<ServerSim*>& servers) {
  if (servers.empty()) throw std::invalid_argument("JSQ: no servers");
  // Load must be measured against the blades that can actually serve
  // right now: a failed/drained server's installed blade count is stale
  // capacity. Skip fully dark servers entirely while any alternative
  // exists (tasks routed there would queue unservable until recovery);
  // when the whole fleet is dark, fall back to the fewest-tasks server.
  std::size_t best = static_cast<std::size_t>(-1);
  double best_load = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const unsigned avail = servers[i]->available_blades();
    if (avail == 0) continue;
    const double load =
        static_cast<double>(servers[i]->tasks_in_system()) / static_cast<double>(avail);
    if (load < best_load) {
      best_load = load;
      best = i;
    }
  }
  if (best != static_cast<std::size_t>(-1)) return best;
  std::size_t dark_best = 0;
  std::size_t dark_q = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < servers.size(); ++i) {
    if (servers[i]->tasks_in_system() < dark_q) {
      dark_q = servers[i]->tasks_in_system();
      dark_best = i;
    }
  }
  return dark_best;
}

namespace {

policy::ServerState read_server_state(const void* ctx, std::size_t i) {
  const auto& servers = *static_cast<const std::vector<ServerSim*>*>(ctx);
  const ServerSim& s = *servers[i];
  return policy::ServerState{
      .speed = s.speed(),
      .blades = s.blades(),
      .available = s.available_blades(),
      .in_system = s.tasks_in_system(),
  };
}

}  // namespace

PolicyDispatcher::PolicyDispatcher(policy::PolicyConfig cfg, std::size_t n)
    : policy_(std::move(cfg), n), routed_(n, 0) {}

std::size_t PolicyDispatcher::route(const std::vector<ServerSim*>& servers) {
  if (servers.size() != policy_.fleet_size()) {
    throw std::invalid_argument("PolicyDispatcher: server count mismatch");
  }
  const policy::StateView view{&servers, &read_server_state, servers.size()};
  const std::size_t dest = policy_.route(view);
  ++routed_[dest];
  return dest;
}

}  // namespace blade::sim
