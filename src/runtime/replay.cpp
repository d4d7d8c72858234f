#include "runtime/replay.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/chaos.hpp"

#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "sim/failures.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/service.hpp"
#include "util/fileio.hpp"

namespace blade::runtime {

void ReplayTrace::validate(std::size_t n) const {
  if (!(horizon > 0.0) || !std::isfinite(horizon)) {
    throw std::invalid_argument("ReplayTrace: horizon must be > 0");
  }
  for (const auto& e : events) {
    if (!std::isfinite(e.time) || e.time < 0.0) {
      throw std::invalid_argument("ReplayTrace: event times must be finite and >= 0");
    }
    if (e.kind == ReplayEvent::Kind::Rate) {
      if (!std::isfinite(e.rate) || e.rate < 0.0) {
        throw std::invalid_argument("ReplayTrace: rates must be finite and >= 0");
      }
    } else if (e.server >= n) {
      throw std::invalid_argument("ReplayTrace: server index out of range");
    }
    if (e.kind == ReplayEvent::Kind::Slow &&
        (!std::isfinite(e.factor) || e.factor <= 0.0 || e.factor > 1.0)) {
      throw std::invalid_argument("ReplayTrace: slowdown factor must be in (0, 1]");
    }
  }
}

namespace {

Error parse_fail(std::size_t line_no, const std::string& what) {
  std::ostringstream msg;
  msg << "parse_replay_trace: line " << line_no << ": " << what;
  return make_error(ErrorCode::ParseError, msg.str());
}

}  // namespace

Expected<ReplayTrace> try_parse_replay_trace(const std::string& text) {
  ReplayTrace trace;
  bool have_horizon = false;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  double last_time = 0.0;
  // Which servers the trace has fully failed so far, to reject the
  // contradictory "fail again what is already gone".
  std::vector<bool> fully_failed;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword)) continue;  // blank / comment-only line
    if (keyword == "horizon") {
      if (!(fields >> trace.horizon)) return parse_fail(line_no, "horizon needs a number");
      have_horizon = true;
    } else if (keyword == "seed") {
      if (!(fields >> trace.seed)) return parse_fail(line_no, "seed needs an integer");
    } else if (keyword == "rate") {
      ReplayEvent e;
      e.kind = ReplayEvent::Kind::Rate;
      if (!(fields >> e.time >> e.rate)) return parse_fail(line_no, "rate needs <t> <lambda>");
      if (!std::isfinite(e.rate) || e.rate < 0.0) {
        return parse_fail(line_no, "rate must be finite and >= 0");
      }
      trace.events.push_back(e);
    } else if (keyword == "fail" || keyword == "recover") {
      ReplayEvent e;
      e.kind = keyword == "fail" ? ReplayEvent::Kind::Fail : ReplayEvent::Kind::Recover;
      if (!(fields >> e.time >> e.server)) {
        return parse_fail(line_no, keyword + " needs <t> <server>");
      }
      fields >> e.blades;  // optional; stays 0 (= all) when absent
      if (e.server >= fully_failed.size()) fully_failed.resize(e.server + 1, false);
      if (e.kind == ReplayEvent::Kind::Fail && e.blades == 0) {
        if (fully_failed[e.server]) {
          return parse_fail(line_no, "server " + std::to_string(e.server) +
                                         " is already fully failed");
        }
        fully_failed[e.server] = true;
      } else if (e.kind == ReplayEvent::Kind::Recover) {
        fully_failed[e.server] = false;
      }
      trace.events.push_back(e);
    } else if (keyword == "slow") {
      ReplayEvent e;
      e.kind = ReplayEvent::Kind::Slow;
      if (!(fields >> e.time >> e.server >> e.factor)) {
        return parse_fail(line_no, "slow needs <t> <server> <factor>");
      }
      if (!std::isfinite(e.factor) || e.factor <= 0.0 || e.factor > 1.0) {
        return parse_fail(line_no, "slowdown factor must be in (0, 1]");
      }
      trace.events.push_back(e);
    } else if (keyword == "stall" || keyword == "unstall") {
      ReplayEvent e;
      e.kind = keyword == "stall" ? ReplayEvent::Kind::Stall : ReplayEvent::Kind::Unstall;
      if (!(fields >> e.time >> e.server)) {
        return parse_fail(line_no, keyword + " needs <t> <server>");
      }
      trace.events.push_back(e);
    } else {
      return parse_fail(line_no, "unknown keyword '" + keyword + "'");
    }
    if (!trace.events.empty() && keyword != "horizon" && keyword != "seed") {
      const double t = trace.events.back().time;
      if (!std::isfinite(t) || t < 0.0) {
        return parse_fail(line_no, "event time must be finite and >= 0");
      }
      if (t < last_time) return parse_fail(line_no, "event times must be non-decreasing");
      last_time = t;
    }
    std::string extra;
    if (fields.clear(), fields >> extra) return parse_fail(line_no, "trailing tokens");
  }
  if (!have_horizon) {
    return make_error(ErrorCode::ParseError, "parse_replay_trace: missing 'horizon' line");
  }
  return trace;
}

ReplayTrace parse_replay_trace(const std::string& text) {
  auto trace = try_parse_replay_trace(text);
  if (!trace) throw std::invalid_argument(trace.error().context);
  return std::move(trace).value();
}

std::string to_text(const ReplayTrace& trace) {
  std::ostringstream out;
  out.precision(17);
  out << "horizon " << trace.horizon << "\n";
  out << "seed " << trace.seed << "\n";
  for (const auto& e : trace.events) {
    switch (e.kind) {
      case ReplayEvent::Kind::Rate:
        out << "rate " << e.time << " " << e.rate << "\n";
        break;
      case ReplayEvent::Kind::Fail:
        out << "fail " << e.time << " " << e.server << " " << e.blades << "\n";
        break;
      case ReplayEvent::Kind::Recover:
        out << "recover " << e.time << " " << e.server << " " << e.blades << "\n";
        break;
      case ReplayEvent::Kind::Slow:
        out << "slow " << e.time << " " << e.server << " " << e.factor << "\n";
        break;
      case ReplayEvent::Kind::Stall:
        out << "stall " << e.time << " " << e.server << "\n";
        break;
      case ReplayEvent::Kind::Unstall:
        out << "unstall " << e.time << " " << e.server << "\n";
        break;
    }
  }
  return out.str();
}

ReplayTrace reference_failure_trace(const model::Cluster& cluster, double horizon) {
  if (!(horizon > 0.0) || !std::isfinite(horizon)) {
    throw std::invalid_argument("reference_failure_trace: horizon must be > 0");
  }
  ReplayTrace trace;
  trace.horizon = horizon;
  const double lambda_max = cluster.max_generic_rate();
  // Diurnal shape: trough at the edges, a sustained peak over the middle
  // third — the peak overlaps the outage, so the surviving capacity is
  // exceeded exactly there and nowhere else.
  const double shape[] = {0.35, 0.55, 0.80, 0.80, 0.55, 0.35};
  for (std::size_t k = 0; k < 6; ++k) {
    ReplayEvent e;
    e.kind = ReplayEvent::Kind::Rate;
    e.time = horizon * static_cast<double>(k) / 6.0;
    e.rate = shape[k] * lambda_max;
    trace.events.push_back(e);
  }
  std::size_t biggest = 0;
  for (std::size_t i = 1; i < cluster.size(); ++i) {
    if (cluster.server(i).capacity(cluster.rbar()) >
        cluster.server(biggest).capacity(cluster.rbar())) {
      biggest = i;
    }
  }
  trace.events.push_back(
      {.time = horizon / 3.0, .kind = ReplayEvent::Kind::Fail, .server = biggest});
  trace.events.push_back(
      {.time = 2.0 * horizon / 3.0, .kind = ReplayEvent::Kind::Recover, .server = biggest});
  // The text format requires time order; keep to_text() round-trippable.
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const ReplayEvent& a, const ReplayEvent& b) { return a.time < b.time; });
  return trace;
}

namespace {

/// Maps one trace event onto the simulator's failure schedule (Rate
/// events are driver concerns and are skipped). Fail/recover keep their
/// semantics; gray events carry the slowdown factor / stall toggles.
void append_sim_event(sim::FailureSchedule& sched, const ReplayEvent& e) {
  switch (e.kind) {
    case ReplayEvent::Kind::Rate:
      return;
    case ReplayEvent::Kind::Fail:
      sched.events.push_back({e.time, sim::FailureKind::Failure, e.server, e.blades});
      return;
    case ReplayEvent::Kind::Recover:
      sched.events.push_back({e.time, sim::FailureKind::Recovery, e.server, e.blades});
      return;
    case ReplayEvent::Kind::Slow:
      sched.events.push_back({e.time, sim::FailureKind::Slowdown, e.server, 0, e.factor});
      return;
    case ReplayEvent::Kind::Stall:
      sched.events.push_back({e.time, sim::FailureKind::StallStart, e.server, 0});
      return;
    case ReplayEvent::Kind::Unstall:
      sched.events.push_back({e.time, sim::FailureKind::StallEnd, e.server, 0});
      return;
  }
}

/// Variable-rate generic Poisson source feeding the controller for
/// admission and the published alias table for routing. Rate changes
/// cancel and re-draw the pending interarrival — valid because the
/// exponential is memoryless.
struct GenericDriver final : sim::EventTarget {
  GenericDriver(sim::Engine& engine, Controller& controller,
                const std::vector<sim::ServerSim*>& servers, sim::ServiceDistribution work,
                sim::RngStream arrivals, sim::RngStream routing, sim::RngStream admission,
                FaultInjector* chaos)
      : engine(engine), controller(controller), servers(servers), work(work),
        arrivals(std::move(arrivals)), routing(std::move(routing)),
        admission(std::move(admission)), chaos(chaos) {}

  sim::Engine& engine;
  Controller& controller;
  const std::vector<sim::ServerSim*>& servers;
  sim::ServiceDistribution work;
  sim::RngStream arrivals;
  sim::RngStream routing;
  sim::RngStream admission;
  FaultInjector* chaos = nullptr;
  double rate = 0.0;
  sim::EventId pending = 0;
  bool has_pending = false;
  std::uint64_t dispatch_sample = 0;  ///< record every Nth dispatch (0 = off)
  std::uint64_t dispatches = 0;
  std::uint64_t rate_epoch = 0;
  std::uint64_t routes_to_quarantined = 0;  ///< see ReplayResult

  void set_rate(double r) {
    if (has_pending) {
      engine.cancel(pending);
      has_pending = false;
    }
    rate = r;
    BLADE_OBS_EVENT(EpochMark, rate_epoch++, engine.now(), r, 0.0);
    schedule_next();
  }

  void schedule_next() {
    if (!(rate > 0.0)) return;
    pending = engine.schedule(arrivals.exponential(1.0 / rate), *this, 0);
    has_pending = true;
  }

  void on_event(std::uint32_t /*tag*/) override { fire(); }

  void fire() {
    has_pending = false;
    const double t = engine.now();
    bool heard = true;  // did the controller's telemetry see this arrival?
    double report_t = t;
    if (chaos != nullptr) {
      const ObservationFault f = chaos->corrupt_observation(t);
      heard = !f.drop;
      report_t = f.time;
      // Phantom spikes: telemetry reports arrivals that never happened.
      // A draw of 2.0 can never be shed, so phantoms perturb only the
      // estimators and counters, not the routed workload.
      for (unsigned k = 0; heard && k < f.phantoms; ++k) {
        (void)controller.on_generic_arrival(report_t, 2.0);
      }
      if (chaos->should_fault_solver()) controller.arm_solver_fault();
    }
    // A dropped observation still carries a real task: it routes through
    // the published table, bypassing admission the controller never saw.
    const bool admit = heard ? controller.on_generic_arrival(report_t, admission.uniform()) : true;
    if (admit) {
      const auto table = controller.weights();
      if (table && table->size() == servers.size()) {
        sim::Task task;
        task.cls = sim::TaskClass::Generic;
        task.work = work.sample(arrivals);
        const std::size_t dest = table->sample(routing.uniform(), routing.uniform());
        ++dispatches;
        if (dispatch_sample > 0 && dispatches % dispatch_sample == 0) {
          BLADE_OBS_EVENT(Dispatch, dest, t, dispatches, 0.0);
        }
        servers[dest]->arrive(task);
        if (controller.health_enabled()) {
          // Contract violation tally, judged on the state the routing
          // decision was made under (on_dispatch below may quarantine
          // dest itself): a quarantined destination only counts while a
          // healthy alternative was available — serving a degraded blade
          // beats blackout when the fleet is dark.
          if (controller.health_state(dest) == HealthState::Quarantined) {
            for (std::size_t i = 0; i < servers.size(); ++i) {
              if (i != dest && controller.available_blades(i) > 0 &&
                  controller.health_state(i) != HealthState::Quarantined) {
                ++routes_to_quarantined;
                break;
              }
            }
          }
          controller.on_dispatch(t, dest);
        }
      }
    }
    schedule_next();
  }
};

ReplayResult replay_impl(const model::Cluster& cluster, const ControllerConfig& cfg,
                         const ReplayTrace& trace, const ReplayOptions& options) {
  trace.validate(cluster.size());
  FaultInjector* chaos = options.chaos;
  const double warmup = options.warmup;
  const double service_scv = options.service_scv;
  if (!(warmup >= 0.0) || warmup >= trace.horizon) {
    throw std::invalid_argument("replay: warmup must be in [0, horizon)");
  }
  const bool slo_enabled = options.slo.any_enabled();
  if (slo_enabled && options.slo_epochs < 1) {
    throw std::invalid_argument("replay: slo_epochs must be >= 1");
  }

  sim::Engine engine;
  sim::ResponseTimeCollector collector(warmup, false);
  Controller controller(cluster, cfg);
  if (!options.checkpoint_in.empty()) {
    const blade::Status restored = controller.restore_checkpoint(options.checkpoint_in);
    if (!restored.ok()) {
      throw std::invalid_argument("replay: checkpoint restore failed: " +
                                  restored.error().context);
    }
  }

  const sim::SchedulingMode mode = sim::to_mode(cfg.discipline);
  std::vector<std::unique_ptr<sim::ServerSim>> servers;
  std::vector<sim::ServerSim*> raw;
  for (const auto& srv : cluster.servers()) {
    servers.push_back(
        std::make_unique<sim::ServerSim>(engine, srv.size(), srv.speed(), mode, collector));
    raw.push_back(servers.back().get());
  }

  // Special streams: each arrival feeds the controller's lambda''_i
  // estimator and then enters its server (RNG stream ids match the
  // static simulator's convention).
  std::vector<std::unique_ptr<sim::PoissonSource>> sources;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto& srv = cluster.server(i);
    if (srv.special_rate() > 0.0) {
      sim::ServerSim* dest = raw[i];
      sources.push_back(std::make_unique<sim::PoissonSource>(
          engine, srv.special_rate(),
          sim::ServiceDistribution::from_scv(cluster.rbar(), service_scv),
          sim::TaskClass::Special, sim::RngStream(trace.seed, 2 * i + 1),
          [dest, i, &engine, &controller](sim::Task t) {
            controller.on_special_arrival(engine.now(), i);
            dest->arrive(t);
          }));
    }
  }

  GenericDriver driver{engine,
                       controller,
                       raw,
                       sim::ServiceDistribution::from_scv(cluster.rbar(), service_scv),
                       sim::RngStream(trace.seed, 1000003),
                       sim::RngStream(trace.seed, 1000033),
                       sim::RngStream(trace.seed, 1000019),
                       chaos};
  driver.dispatch_sample = options.dispatch_sample;

  // Failure/recovery events mutate the simulated blades first, then tell
  // the controller, which re-solves and republishes at the same instant.
  // Gray events (slowdowns, stalls) mutate only the blades: the
  // controller hears nothing — detecting them is the health tracker's
  // job, fed by the dispatch/completion stream below.
  sim::FailureSchedule failures;
  for (const auto& e : trace.events) {
    if (e.kind == ReplayEvent::Kind::Rate) {
      engine.schedule_at(e.time, [&driver, rate = e.rate] { driver.set_rate(rate); });
    } else {
      append_sim_event(failures, e);
    }
  }
  if (chaos != nullptr) {
    for (const ReplayEvent& e : chaos->flap_events(trace.horizon, cluster.size())) {
      append_sim_event(failures, e);
    }
    for (const ReplayEvent& e : chaos->gray_events(trace.horizon, cluster.size())) {
      append_sim_event(failures, e);
    }
  }
  sim::schedule_failures(engine, failures, raw, [&](const sim::FailureEvent& ev) {
    if (ev.kind == sim::FailureKind::Failure) {
      controller.on_failure(engine.now(), ev.server, ev.blades);
    } else if (ev.kind == sim::FailureKind::Recovery) {
      controller.on_recovery(engine.now(), ev.server, ev.blades);
    }
  });

  // Health scoring's observed-rate side: every generic completion at a
  // server reports to the controller at the instant it happens.
  if (controller.health_enabled()) {
    for (std::size_t i = 0; i < raw.size(); ++i) {
      raw[i]->set_completion_observer([&controller, &engine, i](const sim::Task& task, double) {
        if (task.cls == sim::TaskClass::Generic) controller.on_completion(engine.now(), i);
      });
    }
  }

  // Crash-safe checkpoint persistence: periodic atomic writes plus one
  // final write after the horizon, so a restarted process can resume
  // from the newest complete snapshot.
  std::uint64_t checkpoints_written = 0;
  const auto write_checkpoint = [&] {
    const blade::Status s =
        util::write_file_atomic(options.checkpoint_out, controller.checkpoint_json());
    if (!s.ok()) {
      throw std::runtime_error("replay: checkpoint write failed: " + s.error().context);
    }
    ++checkpoints_written;
    BLADE_OBS_COUNT("runtime.checkpoint_writes");
  };
  if (!options.checkpoint_out.empty()) {
    if (!(options.checkpoint_every >= 0.0) || !std::isfinite(options.checkpoint_every)) {
      throw std::invalid_argument("replay: checkpoint_every must be >= 0");
    }
    if (options.checkpoint_every > 0.0) {
      for (double t = options.checkpoint_every; t < trace.horizon; t += options.checkpoint_every) {
        engine.schedule_at(t, write_checkpoint);
      }
    }
  }

  ReplayResult result;

  // SLO epoch evaluation: split the horizon into slo_epochs windows and
  // feed each to the burn-rate monitors. Cumulative collector/controller
  // counters are differenced at the boundaries, so per-epoch means cost
  // O(1) regardless of sample volume.
  std::optional<obs::SloSet> slo_set;
  struct SloCursor {
    double response_sum = 0.0;
    std::uint64_t response_count = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t resolves = 0;
    double resolve_seconds = 0.0;
  };
  SloCursor cursor;
  if (slo_enabled) {
    obs::SloTargets targets = options.slo;
    const double epoch_len = trace.horizon / static_cast<double>(options.slo_epochs);
    if (!(targets.window > 0.0)) targets.window = 4.0 * epoch_len;
    targets.validate();
    slo_set.emplace(targets);
    for (int k = 1; k <= options.slo_epochs; ++k) {
      const double t1 = (k == options.slo_epochs) ? trace.horizon
                                                  : epoch_len * static_cast<double>(k);
      engine.schedule_at(t1, [&, k, t1, epoch_len] {
        const auto& gen = collector.generic();
        const ControllerStats now = controller.stats();
        obs::SloEpoch epoch;
        epoch.index = k;
        epoch.total = options.slo_epochs;
        epoch.t0 = t1 - epoch_len;
        epoch.t1 = t1;
        epoch.response_samples = gen.count() - cursor.response_count;
        epoch.mean_response =
            epoch.response_samples > 0
                ? (gen.sum() - cursor.response_sum) / static_cast<double>(epoch.response_samples)
                : 0.0;
        const std::uint64_t offered =
            (now.admitted - cursor.admitted) + (now.shed - cursor.shed);
        epoch.shed_fraction =
            offered > 0 ? static_cast<double>(now.shed - cursor.shed) /
                              static_cast<double>(offered)
                        : 0.0;
        epoch.resolves = now.resolves - cursor.resolves;
        epoch.resolve_seconds_mean =
            epoch.resolves > 0 ? (now.resolve_seconds_total - cursor.resolve_seconds) /
                                     static_cast<double>(epoch.resolves)
                               : 0.0;
        epoch.staleness = controller.lkg_age(t1);
        cursor.response_sum = gen.sum();
        cursor.response_count = gen.count();
        cursor.admitted = now.admitted;
        cursor.shed = now.shed;
        cursor.resolves = now.resolves;
        cursor.resolve_seconds = now.resolve_seconds_total;
        result.slo.push_back(slo_set->observe(epoch));
      });
    }
  }

  for (auto& src : sources) src->start();
  engine.run_until(trace.horizon);
  if (!options.checkpoint_out.empty()) write_checkpoint();

  result.stats = controller.stats();
  result.routes_to_quarantined = driver.routes_to_quarantined;
  result.checkpoints_written = checkpoints_written;
  result.shed_fraction = result.stats.shed_fraction();
  result.final_shed_probability = controller.shed_probability();
  result.final_fractions = controller.routing_fractions();
  result.final_mode = controller.mode();
  result.sim.generic_mean_response = collector.generic().mean();
  result.sim.generic_samples = collector.generic().count();
  result.sim.special_mean_response = collector.special().mean();
  result.sim.special_samples = collector.special().count();
  result.sim.events = engine.events_processed();
  for (const auto& s : servers) {
    sim::ServerObservation obs;
    obs.utilization = s->mean_utilization(0.0, trace.horizon);
    obs.time_avg_tasks = s->time_avg_tasks(0.0, trace.horizon);
    obs.completions = s->completions();
    obs.preemptions = s->preemptions();
    result.sim.servers.push_back(obs);
  }
  if (slo_set) result.slo_breaches = slo_set->total_breaches();
  return result;
}

/// The policy-harness counterpart of GenericDriver: same variable-rate
/// arrival process (same RNG stream), but every admitted-by-default task
/// routes through a DispatchPolicy over the live server state.
struct PolicyDriver final : sim::EventTarget {
  PolicyDriver(sim::Engine& engine, policy::DispatchPolicy& policy,
               const std::vector<sim::ServerSim*>& servers, std::vector<std::uint64_t>& routed,
               sim::ServiceDistribution work, sim::RngStream arrivals)
      : engine(engine), policy(policy), servers(servers), routed(routed), work(work),
        arrivals(std::move(arrivals)) {}

  sim::Engine& engine;
  policy::DispatchPolicy& policy;
  const std::vector<sim::ServerSim*>& servers;
  std::vector<std::uint64_t>& routed;
  sim::ServiceDistribution work;
  sim::RngStream arrivals;
  double rate = 0.0;
  sim::EventId pending = 0;
  bool has_pending = false;

  void set_rate(double r) {
    if (has_pending) {
      engine.cancel(pending);
      has_pending = false;
    }
    rate = r;
    schedule_next();
  }

  void schedule_next() {
    if (!(rate > 0.0)) return;
    pending = engine.schedule(arrivals.exponential(1.0 / rate), *this, 0);
    has_pending = true;
  }

  void on_event(std::uint32_t /*tag*/) override { fire(); }

  static policy::ServerState read_state(const void* ctx, std::size_t i) {
    const auto& raw = *static_cast<const std::vector<sim::ServerSim*>*>(ctx);
    const sim::ServerSim& s = *raw[i];
    return policy::ServerState{
        .speed = s.speed(),
        .blades = s.blades(),
        .available = s.available_blades(),
        .in_system = s.tasks_in_system(),
    };
  }

  void fire() {
    has_pending = false;
    sim::Task task;
    task.cls = sim::TaskClass::Generic;
    task.work = work.sample(arrivals);
    const policy::StateView view{&servers, &read_state, servers.size()};
    const std::size_t dest = policy.route(view);
    ++routed[dest];
    servers[dest]->arrive(task);
    schedule_next();
  }
};

}  // namespace

PolicyReplayResult replay_policy(const model::Cluster& cluster,
                                 const policy::PolicyConfig& policy_cfg,
                                 const ReplayTrace& trace, const ReplayOptions& options) {
  trace.validate(cluster.size());
  if (!(options.warmup >= 0.0) || options.warmup >= trace.horizon) {
    throw std::invalid_argument("replay_policy: warmup must be in [0, horizon)");
  }
  policy::DispatchPolicy policy(policy_cfg, cluster.size());

  sim::Engine engine;
  sim::ResponseTimeCollector collector(options.warmup, false);
  const sim::SchedulingMode mode = sim::SchedulingMode::Fcfs;
  std::vector<std::unique_ptr<sim::ServerSim>> servers;
  std::vector<sim::ServerSim*> raw;
  for (const auto& srv : cluster.servers()) {
    servers.push_back(
        std::make_unique<sim::ServerSim>(engine, srv.size(), srv.speed(), mode, collector));
    raw.push_back(servers.back().get());
  }

  // Special streams keep their servers partially busy exactly as in
  // replay() — same RNG stream ids, so the background load a policy sees
  // is identical to what the controller harness sees.
  std::vector<std::unique_ptr<sim::PoissonSource>> sources;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const auto& srv = cluster.server(i);
    if (srv.special_rate() > 0.0) {
      sim::ServerSim* dest = raw[i];
      sources.push_back(std::make_unique<sim::PoissonSource>(
          engine, srv.special_rate(),
          sim::ServiceDistribution::from_scv(cluster.rbar(), options.service_scv),
          sim::TaskClass::Special, sim::RngStream(trace.seed, 2 * i + 1),
          [dest](sim::Task t) { dest->arrive(t); }));
    }
  }

  PolicyReplayResult result;
  result.routed_by_server.assign(cluster.size(), 0);
  PolicyDriver driver{engine,
                      policy,
                      raw,
                      result.routed_by_server,
                      sim::ServiceDistribution::from_scv(cluster.rbar(), options.service_scv),
                      sim::RngStream(trace.seed, 1000003)};

  sim::FailureSchedule failures;
  for (const auto& e : trace.events) {
    if (e.kind == ReplayEvent::Kind::Rate) {
      engine.schedule_at(e.time, [&driver, rate = e.rate] { driver.set_rate(rate); });
    } else {
      append_sim_event(failures, e);
    }
  }
  if (options.chaos != nullptr) {
    for (const ReplayEvent& e : options.chaos->flap_events(trace.horizon, cluster.size())) {
      append_sim_event(failures, e);
    }
    for (const ReplayEvent& e : options.chaos->gray_events(trace.horizon, cluster.size())) {
      append_sim_event(failures, e);
    }
  }
  sim::schedule_failures(engine, failures, raw, [](const sim::FailureEvent&) {});

  for (auto& src : sources) src->start();
  engine.run_until(trace.horizon);

  result.counters = policy.counters();
  result.sim.generic_mean_response = collector.generic().mean();
  result.sim.generic_samples = collector.generic().count();
  result.sim.special_mean_response = collector.special().mean();
  result.sim.special_samples = collector.special().count();
  result.sim.events = engine.events_processed();
  for (const auto& s : servers) {
    sim::ServerObservation obs;
    obs.utilization = s->mean_utilization(0.0, trace.horizon);
    obs.time_avg_tasks = s->time_avg_tasks(0.0, trace.horizon);
    obs.completions = s->completions();
    obs.preemptions = s->preemptions();
    result.sim.servers.push_back(obs);
  }
  std::uint64_t total = 0;
  for (const std::uint64_t c : result.routed_by_server) total += c;
  result.measured_fractions.assign(cluster.size(), 0.0);
  if (total > 0) {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      result.measured_fractions[i] =
          static_cast<double>(result.routed_by_server[i]) / static_cast<double>(total);
    }
  }
  return result;
}

ReplayResult replay(const model::Cluster& cluster, const ControllerConfig& cfg,
                    const ReplayTrace& trace, double warmup, double service_scv) {
  ReplayOptions options;
  options.warmup = warmup;
  options.service_scv = service_scv;
  return replay_impl(cluster, cfg, trace, options);
}

ReplayResult replay(const model::Cluster& cluster, const ControllerConfig& cfg,
                    const ReplayTrace& trace, const ReplayOptions& options) {
  return replay_impl(cluster, cfg, trace, options);
}

ReplayResult replay_chaotic(const model::Cluster& cluster, const ControllerConfig& cfg,
                            const ReplayTrace& trace, FaultInjector& chaos, double warmup,
                            double service_scv) {
  ReplayOptions options;
  options.warmup = warmup;
  options.service_scv = service_scv;
  options.chaos = &chaos;
  return replay_impl(cluster, cfg, trace, options);
}

}  // namespace blade::runtime
