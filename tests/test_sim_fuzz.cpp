// Fuzz/stress tests of the simulation substrate: randomized event-queue
// workloads (time ordering under heavy cancellation, a reference model of
// typed/callback events and generation ids), thread-pool load,
// and conservation invariants of full cluster runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "model/random_cluster.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace blade;

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueFuzz, PopsAreTimeOrderedUnderRandomCancellation) {
  sim::RngStream rng(GetParam(), 0);
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  std::vector<double> times;
  for (int i = 0; i < 3000; ++i) {
    const double t = rng.uniform() * 1000.0;
    times.push_back(t);
    ids.push_back(q.push(t, [] {}));
  }
  // Cancel a random third.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (rng.uniform() < 0.33) {
      q.cancel(ids[i]);
      ++cancelled;
    }
  }
  ASSERT_EQ(q.size(), ids.size() - cancelled);
  double prev = -1.0;
  std::size_t popped = 0;
  while (!q.empty()) {
    auto [t, fn] = q.pop();
    EXPECT_GE(t, prev);
    prev = t;
    ++popped;
  }
  EXPECT_EQ(popped, ids.size() - cancelled);
}

TEST_P(EventQueueFuzz, InterleavedPushPopKeepsOrdering) {
  sim::RngStream rng(GetParam(), 1);
  sim::EventQueue q;
  double clock = 0.0;  // popped events may only move time forward
  for (int round = 0; round < 200; ++round) {
    const int pushes = 1 + static_cast<int>(rng.below(8));
    for (int i = 0; i < pushes; ++i) {
      (void)q.push(clock + rng.uniform() * 10.0, [] {});
    }
    const int pops = static_cast<int>(rng.below(4));
    for (int i = 0; i < pops && !q.empty(); ++i) {
      auto [t, fn] = q.pop();
      EXPECT_GE(t, clock);
      clock = t;
    }
  }
}

/// Appends the tag (a push index) of every typed event it receives.
struct TagLog final : sim::EventTarget {
  std::vector<std::uint32_t> fired;
  void on_event(std::uint32_t tag) override { fired.push_back(tag); }
};

TEST_P(EventQueueFuzz, MatchesReferenceModelUnderGenerationReuse) {
  // Reference: the set of live (time, push index) keys. Push indices are
  // issued in push order, so they break ties exactly as the queue must.
  sim::RngStream rng(GetParam(), 2);
  sim::EventQueue q;
  TagLog log;  // typed and callback events both log their push index
  std::vector<sim::EventId> ids;
  std::vector<double> times;
  std::vector<bool> typed;
  std::set<std::pair<double, std::uint32_t>> live;
  std::size_t stale_reused = 0;
  std::size_t self_cancels = 0;
  std::size_t mixed_ties = 0;

  std::function<void(double)> push = [&](double t) {
    const auto k = static_cast<std::uint32_t>(ids.size());
    const double kind = rng.uniform();
    times.push_back(t);
    typed.push_back(kind < 0.5);
    ids.push_back(0);
    if (kind < 0.5) {
      ids[k] = q.push(t, log, k);
    } else if (kind < 0.8) {
      ids[k] = q.push(t, [&log, k] { log.fired.push_back(k); });
    } else {
      // Re-arms a follow-up, which may take over this event's freed slot,
      // then cancels its own id: that must not touch the follow-up.
      ids[k] = q.push(t, [&, k] {
        log.fired.push_back(k);
        push(times[k] + 0.25 * static_cast<double>(rng.below(4)));
        q.cancel(ids[k]);
        ++self_cancels;
      });
    }
    EXPECT_NE(ids[k], 0u);
    live.insert({t, k});
  };

  double clock = 0.0;
  double last_t = -1.0;
  std::uint32_t last_k = 0;
  for (int op = 0; op < 4000; ++op) {
    const double u = rng.uniform();
    if (u < 0.45) {
      // A coarse time grid makes equal-time ties common.
      push(clock + 0.25 * static_cast<double>(rng.below(8)));
    } else if (u < 0.65 && !ids.empty()) {
      const auto k = static_cast<std::uint32_t>(rng.below(ids.size()));
      const auto it = live.find({times[k], k});
      if (it != live.end()) {
        live.erase(it);
      } else {
        const auto slot = static_cast<std::uint32_t>(ids[k]);
        for (const auto& [t, j] : live) {
          if (static_cast<std::uint32_t>(ids[j]) == slot) {
            ++stale_reused;  // a stale id whose slot a live event now holds
            break;
          }
        }
      }
      q.cancel(ids[k]);
    } else if (!live.empty()) {
      const auto [t, k] = *live.begin();
      live.erase(live.begin());
      ASSERT_EQ(q.next_time(), t);
      auto [qt, fn] = q.pop();
      ASSERT_EQ(qt, t);
      fn();
      ASSERT_FALSE(log.fired.empty());
      ASSERT_EQ(log.fired.back(), k);
      if (qt == last_t && typed[k] != typed[last_k]) ++mixed_ties;
      clock = qt;
      last_t = qt;
      last_k = k;
    }
    ASSERT_EQ(q.size(), live.size());
    ASSERT_EQ(q.empty(), live.empty());
  }
  EXPECT_GT(stale_reused, 0u);
  EXPECT_GT(self_cancels, 0u);
  EXPECT_GT(mixed_ties, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueFuzz, ::testing::Values(1u, 7u, 42u, 1234u),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

TEST(ThreadPoolStress, ThousandsOfTinyTasks) {
  par::ThreadPool pool(8);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futures;
  futures.reserve(20000);
  for (long i = 0; i < 20000; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 20000L * 19999L / 2);
}

TEST(ThreadPoolStress, NestedSubmitsFromWorkers) {
  par::ThreadPool pool(4);
  std::atomic<int> leaf{0};
  std::vector<std::future<void>> outer;
  for (int i = 0; i < 16; ++i) {
    outer.push_back(pool.submit([&pool, &leaf] {
      // Submitting from a worker must not deadlock (queue, not join).
      auto inner = pool.submit([&leaf] { leaf.fetch_add(1); });
      (void)inner;  // completion is awaited via wait_idle below
    }));
  }
  for (auto& f : outer) f.get();
  pool.wait_idle();
  EXPECT_EQ(leaf.load(), 16);
}

class ClusterSimFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterSimFuzz, ConservationOnRandomClusters) {
  // For random clusters at moderate random loads: completions+in-system
  // ~= emitted arrivals, utilization in [0,1), samples positive.
  model::RandomClusterSpec spec;
  spec.seed = GetParam();
  spec.max_servers = 5;
  spec.max_blades = 8;
  const auto cluster = model::random_cluster(spec);
  const double lambda = model::random_feasible_rate(cluster, spec.seed, 0.2, 0.7);

  // Split proportional to free capacity (always feasible at these loads).
  std::vector<double> rates;
  double cap = 0.0;
  for (const auto& s : cluster.servers()) cap += s.max_generic_rate(cluster.rbar());
  for (const auto& s : cluster.servers()) {
    rates.push_back(lambda * s.max_generic_rate(cluster.rbar()) / cap);
  }

  sim::SimConfig cfg;
  cfg.horizon = 5000.0;
  cfg.warmup = 500.0;
  cfg.seed = spec.seed;
  const auto res = sim::simulate_split(cluster, rates, sim::SchedulingMode::Fcfs, cfg);
  EXPECT_GT(res.generic_samples, 0u);
  EXPECT_GT(res.events, res.generic_samples);
  for (const auto& obs : res.servers) {
    EXPECT_GE(obs.utilization, 0.0);
    EXPECT_LT(obs.utilization, 1.0);
    EXPECT_GE(obs.time_avg_tasks, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterSimFuzz, ::testing::Range<std::uint64_t>(100, 112),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

}  // namespace
