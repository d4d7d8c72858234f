#include "sim/simulation.hpp"

#include <stdexcept>

#include "parallel/parallel_for.hpp"
#include "sim/arrivals.hpp"
#include "sim/dispatcher.hpp"
#include "sim/engine.hpp"

namespace blade::sim {

SchedulingMode to_mode(queue::Discipline d) noexcept {
  return d == queue::Discipline::Fcfs ? SchedulingMode::Fcfs
                                      : SchedulingMode::NonPreemptivePriority;
}

namespace {

struct World {
  Engine engine;
  ResponseTimeCollector collector;
  std::vector<std::unique_ptr<ServerSim>> servers;
  std::vector<std::unique_ptr<PoissonSource>> sources;

  World(double warmup, bool trace) : collector(warmup, trace) {}
};

std::unique_ptr<World> build_world(const model::Cluster& cluster, SchedulingMode mode,
                                   const SimConfig& config) {
  auto w = std::make_unique<World>(config.warmup, config.record_generic_trace);
  for (const auto& srv : cluster.servers()) {
    w->servers.push_back(
        std::make_unique<ServerSim>(w->engine, srv.size(), srv.speed(), mode, w->collector));
  }
  // Dedicated special streams (one RNG stream per server).
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto& srv = cluster.server(i);
    if (srv.special_rate() > 0.0) {
      ServerSim* dest = w->servers[i].get();
      w->sources.push_back(std::make_unique<PoissonSource>(
          w->engine, srv.special_rate(),
          ServiceDistribution::from_scv(cluster.rbar(), config.service_scv), TaskClass::Special,
          RngStream(config.seed, 2 * i + 1), [dest](Task t) { dest->arrive(t); }));
    }
  }
  return w;
}

SimResult harvest(World& w, const SimConfig& config) {
  SimResult r;
  r.generic_mean_response = w.collector.generic().mean();
  r.generic_samples = w.collector.generic().count();
  r.special_mean_response = w.collector.special().mean();
  r.special_samples = w.collector.special().count();
  r.events = w.engine.events_processed();
  r.servers.reserve(w.servers.size());
  for (const auto& s : w.servers) {
    ServerObservation obs;
    obs.utilization = s->mean_utilization(0.0, config.horizon);
    obs.time_avg_tasks = s->time_avg_tasks(0.0, config.horizon);
    obs.completions = s->completions();
    obs.preemptions = s->preemptions();
    r.servers.push_back(obs);
  }
  r.generic_trace = w.collector.take_generic_trace();
  return r;
}

}  // namespace

SimResult simulate_split(const model::Cluster& cluster, const std::vector<double>& rates,
                         SchedulingMode mode, const SimConfig& config) {
  if (rates.size() != cluster.size()) {
    throw std::invalid_argument("simulate_split: rate vector size mismatch");
  }
  auto w = build_world(cluster, mode, config);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (rates[i] < 0.0) throw std::invalid_argument("simulate_split: negative rate");
    if (rates[i] > 0.0) {
      ServerSim* dest = w->servers[i].get();
      w->sources.push_back(std::make_unique<PoissonSource>(
          w->engine, rates[i],
          ServiceDistribution::from_scv(cluster.rbar(), config.service_scv), TaskClass::Generic,
          RngStream(config.seed, 2 * i + 2), [dest](Task t) { dest->arrive(t); }));
    }
  }
  for (auto& src : w->sources) src->start();
  w->engine.run_until(config.horizon);
  return harvest(*w, config);
}

SimResult simulate_dispatched(const model::Cluster& cluster, double lambda_total,
                              Dispatcher& dispatcher, SchedulingMode mode,
                              const SimConfig& config) {
  if (!(lambda_total > 0.0)) {
    throw std::invalid_argument("simulate_dispatched: lambda' must be > 0");
  }
  auto w = build_world(cluster, mode, config);
  std::vector<ServerSim*> raw;
  raw.reserve(w->servers.size());
  for (auto& s : w->servers) raw.push_back(s.get());

  // The arrival callback is the simulator's hottest edge: one route() per
  // generic task. Dispatcher is a virtual interface, but the two
  // steady-state policies are final classes — recover the concrete type
  // once so the per-task call is direct (inlinable) instead of virtual.
  std::function<void(Task)> arrive;
  if (auto* prob = dynamic_cast<ProbabilisticDispatcher*>(&dispatcher)) {
    arrive = [prob, raw](Task t) { raw[prob->route(raw)]->arrive(t); };
  } else if (auto* pol = dynamic_cast<PolicyDispatcher*>(&dispatcher)) {
    arrive = [pol, raw](Task t) { raw[pol->route(raw)]->arrive(t); };
  } else {
    arrive = [&dispatcher, raw](Task t) { raw[dispatcher.route(raw)]->arrive(t); };
  }
  w->sources.push_back(std::make_unique<PoissonSource>(
      w->engine, lambda_total,
      ServiceDistribution::from_scv(cluster.rbar(), config.service_scv), TaskClass::Generic,
      RngStream(config.seed, 1000003), std::move(arrive)));
  for (auto& src : w->sources) src->start();
  w->engine.run_until(config.horizon);
  return harvest(*w, config);
}

ReplicatedResult replicate(const std::function<SimResult(const SimConfig&)>& one_run,
                           const SimConfig& base_config, int replications, double confidence,
                           par::ThreadPool* pool) {
  if (replications < 2) throw std::invalid_argument("replicate: need >= 2 replications");
  ReplicatedResult out;
  out.runs.resize(static_cast<std::size_t>(replications));
  auto body = [&](std::size_t k) {
    SimConfig cfg = base_config;
    cfg.seed = base_config.seed + k;
    out.runs[k] = one_run(cfg);
  };
  if (pool) {
    par::parallel_for(*pool, 0, out.runs.size(), body);
  } else {
    par::parallel_for(0, out.runs.size(), body);
  }
  std::vector<double> generic, special;
  for (const auto& r : out.runs) {
    generic.push_back(r.generic_mean_response);
    if (r.special_samples > 0) special.push_back(r.special_mean_response);
  }
  out.generic_response = util::t_confidence_interval(generic, confidence);
  if (special.size() >= 2) {
    out.special_response = util::t_confidence_interval(special, confidence);
  }
  return out;
}

}  // namespace blade::sim
