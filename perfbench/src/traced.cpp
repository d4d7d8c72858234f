// The traced run: drives each workload through the layers' public
// functions and times every call into a layer from outside, so the
// per-layer ledger can be filled without touching the program. The
// controller and policy harnesses below mirror runtime::replay and
// runtime::replay_policy step for step (same RNG streams, same draw
// order); a fidelity check against the untraced entry points proves it.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "sim/failures.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/server_sim.hpp"
#include "sim/service.hpp"
#include "sim/simulation.hpp"

namespace perfbench {
namespace {

/// Calls into one layer: how many, and the nanoseconds inside them.
struct Layer {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

/// Everything one traced replay measured.
struct Ledger {
  Layer ingest;   ///< on_generic/on_special_arrival calls that did not re-solve
  Layer resolve;  ///< Controller calls after which resolves or publications grew
  Layer health;   ///< on_dispatch/on_completion (+ quarantine tally) that did not re-solve
  Layer route;    ///< weights() + AliasTable::sample
  Layer chaos;    ///< FaultInjector observation/solver-fault draws
  Layer policy;   ///< DispatchPolicy::route
  std::vector<double> resolve_us;
  std::uint64_t drift_resolves = 0;  ///< re-solves fired inside on_generic_arrival
  std::int64_t construct_sim_ns = 0;
  std::int64_t construct_runtime_ns = 0;
  std::int64_t run_ns = 0;    ///< Engine::run_until
  std::int64_t total_ns = 0;  ///< the whole traced replay

  Ledger& operator+=(const Ledger& b) {
    for (auto [x, y] : {std::pair{&ingest, &b.ingest}, {&resolve, &b.resolve},
                        {&health, &b.health}, {&route, &b.route}, {&chaos, &b.chaos},
                        {&policy, &b.policy}}) {
      x->calls += y->calls;
      x->ns += y->ns;
    }
    resolve_us.insert(resolve_us.end(), b.resolve_us.begin(), b.resolve_us.end());
    drift_resolves += b.drift_resolves;
    construct_sim_ns += b.construct_sim_ns;
    construct_runtime_ns += b.construct_runtime_ns;
    run_ns += b.run_ns;
    total_ns += b.total_ns;
    return *this;
  }

  [[nodiscard]] std::uint64_t spans() const {
    return ingest.calls + resolve.calls + health.calls + route.calls + chaos.calls + policy.calls;
  }
};

/// Cost of one empty span (two clock reads), in ns: subtracted per call
/// so layer times are not inflated by the measurement itself.
double span_overhead_ns() {
  std::vector<double> per;
  for (int block = 0; block < 64; ++block) {
    std::int64_t acc = 0;
    for (int k = 0; k < 1000; ++k) {
      const std::int64_t t0 = now_ns();
      acc += now_ns() - t0;
    }
    per.push_back(static_cast<double>(acc) / 1000.0);
  }
  return median(per);
}

template <class F>
void timed(Layer& layer, F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  layer.ns += now_ns() - t0;
  ++layer.calls;
}

/// Times one Controller call; it lands in `layer` unless it re-solved or
/// republished, in which case it is a re-solve sample.
template <class F>
auto control(Ledger& L, const runtime::Controller& c, Layer& layer, F&& f) {
  const std::uint64_t r0 = c.stats().resolves;
  const std::uint64_t p0 = c.stats().publications;
  const std::int64_t t0 = now_ns();
  const auto result = f();
  const std::int64_t dt = now_ns() - t0;
  if (c.stats().resolves != r0 || c.stats().publications != p0) {
    L.resolve.ns += dt;
    ++L.resolve.calls;
    L.resolve_us.push_back(static_cast<double>(dt) * 1e-3);
  } else {
    layer.ns += dt;
    ++layer.calls;
  }
  return result;
}

void append_sim_event(sim::FailureSchedule& sched, const runtime::ReplayEvent& e) {
  using K = runtime::ReplayEvent::Kind;
  switch (e.kind) {
    case K::Rate:
      return;
    case K::Fail:
      sched.events.push_back({e.time, sim::FailureKind::Failure, e.server, e.blades});
      return;
    case K::Recover:
      sched.events.push_back({e.time, sim::FailureKind::Recovery, e.server, e.blades});
      return;
    case K::Slow:
      sched.events.push_back({e.time, sim::FailureKind::Slowdown, e.server, 0, e.factor});
      return;
    case K::Stall:
      sched.events.push_back({e.time, sim::FailureKind::StallStart, e.server, 0});
      return;
    case K::Unstall:
      sched.events.push_back({e.time, sim::FailureKind::StallEnd, e.server, 0});
      return;
  }
}

/// The trace's failure schedule plus the injector's flaps and gray events.
sim::FailureSchedule failure_schedule(const ReplaySetup& s, runtime::FaultInjector* chaos) {
  sim::FailureSchedule failures;
  for (const auto& e : s.trace.events) append_sim_event(failures, e);
  if (chaos != nullptr) {
    for (const auto& e : chaos->flap_events(s.trace.horizon, s.cluster.size())) {
      append_sim_event(failures, e);
    }
    for (const auto& e : chaos->gray_events(s.trace.horizon, s.cluster.size())) {
      append_sim_event(failures, e);
    }
  }
  return failures;
}

/// The simulated side both harnesses share: servers, the special streams
/// and the response-time collector.
struct SimSide {
  sim::Engine engine;
  sim::ResponseTimeCollector collector{0.0, false};
  std::vector<std::unique_ptr<sim::ServerSim>> servers;
  std::vector<sim::ServerSim*> raw;
  std::vector<std::unique_ptr<sim::PoissonSource>> sources;

  SimSide(const model::Cluster& cluster, sim::SchedulingMode mode) {
    for (const auto& srv : cluster.servers()) {
      servers.push_back(
          std::make_unique<sim::ServerSim>(engine, srv.size(), srv.speed(), mode, collector));
      raw.push_back(servers.back().get());
    }
  }

  void fill(ReplayOutcome& o) const {
    o.events = engine.events_processed();
    o.generic_samples = collector.generic().count();
    o.special_samples = collector.special().count();
    o.tprime_generic = collector.generic().mean();
    o.tprime_special = collector.special().mean();
  }
};

/// runtime::replay's generic-arrival source with every layer call timed.
struct TracedGeneric {
  sim::Engine& engine;
  runtime::Controller& controller;
  const std::vector<sim::ServerSim*>& servers;
  Ledger& L;
  runtime::FaultInjector* chaos;
  sim::ServiceDistribution work;
  sim::RngStream arrivals;
  sim::RngStream routing;
  sim::RngStream admission;
  double rate = 0.0;
  sim::EventId pending = 0;
  bool has_pending = false;
  std::uint64_t routes_to_quarantined = 0;

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
    pending = engine.schedule(arrivals.exponential(1.0 / rate), [this] { fire(); });
    has_pending = true;
  }

  bool arrival(double t, double u) {
    const std::uint64_t r0 = controller.stats().resolves;
    const bool admit =
        control(L, controller, L.ingest, [&] { return controller.on_generic_arrival(t, u); });
    if (controller.stats().resolves != r0) ++L.drift_resolves;
    return admit;
  }

  void fire() {
    has_pending = false;
    const double t = engine.now();
    bool heard = true;
    double report_t = t;
    if (chaos != nullptr) {
      runtime::ObservationFault f;
      timed(L.chaos, [&] { f = chaos->corrupt_observation(t); });
      heard = !f.drop;
      report_t = f.time;
      for (unsigned k = 0; heard && k < f.phantoms; ++k) (void)arrival(report_t, 2.0);
      timed(L.chaos, [&] {
        if (chaos->should_fault_solver()) controller.arm_solver_fault();
      });
    }
    bool admit = true;
    if (heard) admit = arrival(report_t, admission.uniform());
    if (!admit) {
      schedule_next();
      return;
    }
    std::shared_ptr<const util::AliasTable> table;
    timed(L.route, [&] { table = controller.weights(); });
    if (table && table->size() == servers.size()) {
      sim::Task task;
      task.cls = sim::TaskClass::Generic;
      task.work = work.sample(arrivals);
      // Same draw order as `table->sample(routing.uniform(), routing.uniform())`
      // in runtime::replay, whose arguments GCC evaluates right to left.
      const double u2 = routing.uniform();
      const double u1 = routing.uniform();
      std::size_t dest = 0;
      timed(L.route, [&] { dest = table->sample(u1, u2); });
      servers[dest]->arrive(task);
      if (controller.health_enabled()) {
        timed(L.health, [&] {
          if (controller.health_state(dest) == runtime::HealthState::Quarantined) {
            for (std::size_t i = 0; i < servers.size(); ++i) {
              if (i != dest && controller.available_blades(i) > 0 &&
                  controller.health_state(i) != runtime::HealthState::Quarantined) {
                ++routes_to_quarantined;
                break;
              }
            }
          }
        });
        control(L, controller, L.health, [&] {
          controller.on_dispatch(t, dest);
          return true;
        });
      }
    }
    schedule_next();
  }
};

struct TracedReplay {
  Ledger ledger;
  ReplayOutcome outcome;
};

TracedReplay traced_controller_replay(const ReplaySetup& s) {
  TracedReplay out;
  Ledger& L = out.ledger;
  const std::int64_t t_total = now_ns();
  std::optional<runtime::FaultInjector> injector;
  runtime::FaultInjector* chaos = s.chaos ? &injector.emplace(s.chaos_seed, *s.chaos) : nullptr;

  std::int64_t t0 = now_ns();
  runtime::Controller controller(s.cluster, s.cfg);
  L.construct_runtime_ns = now_ns() - t0;

  t0 = now_ns();
  SimSide side(s.cluster, sim::to_mode(s.cfg.discipline));
  sim::Engine& engine = side.engine;
  for (std::size_t i = 0; i < s.cluster.size(); ++i) {
    const auto& srv = s.cluster.server(i);
    if (srv.special_rate() > 0.0) {
      sim::ServerSim* dest = side.raw[i];
      side.sources.push_back(std::make_unique<sim::PoissonSource>(
          engine, srv.special_rate(), sim::ServiceDistribution::from_scv(s.cluster.rbar(), 1.0),
          sim::TaskClass::Special, sim::RngStream(s.trace.seed, 2 * i + 1),
          [dest, i, &engine, &controller, &L](sim::Task t) {
            control(L, controller, L.ingest, [&] {
              controller.on_special_arrival(engine.now(), i);
              return true;
            });
            dest->arrive(t);
          }));
    }
  }
  TracedGeneric generic{engine,
                       controller,
                       side.raw,
                       L,
                       chaos,
                       sim::ServiceDistribution::from_scv(s.cluster.rbar(), 1.0),
                       sim::RngStream(s.trace.seed, 1000003),
                       sim::RngStream(s.trace.seed, 1000033),
                       sim::RngStream(s.trace.seed, 1000019)};
  for (const auto& e : s.trace.events) {
    if (e.kind == runtime::ReplayEvent::Kind::Rate) {
      engine.schedule_at(e.time, [&generic, rate = e.rate] { generic.set_rate(rate); });
    }
  }
  sim::schedule_failures(engine, failure_schedule(s, chaos), side.raw,
                         [&](const sim::FailureEvent& ev) {
                           if (ev.kind == sim::FailureKind::Failure) {
                             control(L, controller, L.ingest, [&] {
                               controller.on_failure(engine.now(), ev.server, ev.blades);
                               return true;
                             });
                           } else if (ev.kind == sim::FailureKind::Recovery) {
                             control(L, controller, L.ingest, [&] {
                               controller.on_recovery(engine.now(), ev.server, ev.blades);
                               return true;
                             });
                           }
                         });
  if (controller.health_enabled()) {
    for (std::size_t i = 0; i < side.raw.size(); ++i) {
      side.raw[i]->set_completion_observer(
          [&controller, &engine, &L, i](const sim::Task& task, double) {
            if (task.cls != sim::TaskClass::Generic) return;
            control(L, controller, L.health, [&] {
              controller.on_completion(engine.now(), i);
              return true;
            });
          });
    }
  }
  L.construct_sim_ns = now_ns() - t0;

  for (auto& src : side.sources) src->start();
  t0 = now_ns();
  engine.run_until(s.trace.horizon);
  L.run_ns = now_ns() - t0;

  ReplayOutcome& o = out.outcome;
  side.fill(o);
  const auto& st = controller.stats();
  o.offered = st.generic_arrivals;
  o.admitted = st.admitted;
  o.shed = st.shed;
  o.resolves = st.resolves;
  o.publications = st.publications;
  o.solver_failures = st.solver_failures;
  o.skipped_by_hysteresis = st.skipped_by_hysteresis;
  o.routes_to_quarantined = generic.routes_to_quarantined;
  o.resolve_seconds = st.resolve_seconds_total;
  o.final_fractions = controller.routing_fractions();
  L.total_ns = now_ns() - t_total;
  return out;
}

/// runtime::replay_policy's arrival source with the policy call timed.
struct TracedPolicy {
  sim::Engine& engine;
  policy::DispatchPolicy& policy;
  const std::vector<sim::ServerSim*>& servers;
  std::vector<std::uint64_t>& routed;
  Ledger& L;
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
    pending = engine.schedule(arrivals.exponential(1.0 / rate), [this] { fire(); });
    has_pending = true;
  }

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
    std::size_t dest = 0;
    timed(L.policy, [&] { dest = policy.route(view); });
    ++routed[dest];
    servers[dest]->arrive(task);
    schedule_next();
  }
};

TracedReplay traced_policy_replay(const ReplaySetup& s) {
  TracedReplay out;
  Ledger& L = out.ledger;
  const std::int64_t t_total = now_ns();
  std::optional<runtime::FaultInjector> injector;
  runtime::FaultInjector* chaos = s.chaos ? &injector.emplace(s.chaos_seed, *s.chaos) : nullptr;

  std::int64_t t0 = now_ns();
  policy::DispatchPolicy pol(*s.policy, s.cluster.size());
  L.construct_runtime_ns = now_ns() - t0;

  t0 = now_ns();
  SimSide side(s.cluster, sim::SchedulingMode::Fcfs);
  sim::Engine& engine = side.engine;
  for (std::size_t i = 0; i < s.cluster.size(); ++i) {
    const auto& srv = s.cluster.server(i);
    if (srv.special_rate() > 0.0) {
      sim::ServerSim* dest = side.raw[i];
      side.sources.push_back(std::make_unique<sim::PoissonSource>(
          engine, srv.special_rate(), sim::ServiceDistribution::from_scv(s.cluster.rbar(), 1.0),
          sim::TaskClass::Special, sim::RngStream(s.trace.seed, 2 * i + 1),
          [dest](sim::Task t) { dest->arrive(t); }));
    }
  }
  std::vector<std::uint64_t> routed(s.cluster.size(), 0);
  TracedPolicy router{engine,
                      pol,
                      side.raw,
                      routed,
                      L,
                      sim::ServiceDistribution::from_scv(s.cluster.rbar(), 1.0),
                      sim::RngStream(s.trace.seed, 1000003)};
  for (const auto& e : s.trace.events) {
    if (e.kind == runtime::ReplayEvent::Kind::Rate) {
      engine.schedule_at(e.time, [&router, rate = e.rate] { router.set_rate(rate); });
    }
  }
  sim::schedule_failures(engine, failure_schedule(s, chaos), side.raw,
                         [](const sim::FailureEvent&) {});
  L.construct_sim_ns = now_ns() - t0;

  for (auto& src : side.sources) src->start();
  t0 = now_ns();
  engine.run_until(s.trace.horizon);
  L.run_ns = now_ns() - t0;

  ReplayOutcome& o = out.outcome;
  side.fill(o);
  o.offered = pol.counters().routed;
  for (const std::uint64_t c : routed) o.routed_total += c;
  o.admitted = o.routed_total;
  o.probes = pol.counters().probes;
  o.redraws = pol.counters().redraws;
  o.final_fractions.assign(s.cluster.size(), 0.0);
  if (o.routed_total > 0) {
    for (std::size_t i = 0; i < routed.size(); ++i) {
      o.final_fractions[i] =
          static_cast<double>(routed[i]) / static_cast<double>(o.routed_total);
    }
  }
  L.total_ns = now_ns() - t_total;
  return out;
}

/// One traced pass over a solve set: each optimize() timed, then
/// find_rate timed from outside for every server at the solved phi.
struct CoreLedger {
  std::vector<double> solve_us;
  std::vector<std::uint64_t> prints;  ///< fingerprint per case
  std::uint64_t bad = 0;              ///< solutions failing solution_ok
  std::int64_t solve_ns = 0;
  std::uint64_t outer_iters = 0;
  std::uint64_t evals = 0;
  Layer find_rate;
  double rate_sum = 0.0;  ///< keeps find_rate's result observable
  std::int64_t total_ns = 0;
};

/// Replicas the traced run replays (the first ones, so the per-layer
/// counts repeat exactly at a fixed seed).
constexpr std::size_t kTracedReplicas = 32;

/// find_rate calls timed per solve: every server of a small cluster, an
/// even stride of a fleet.
constexpr std::size_t kFindRatePerSolve = 64;

CoreLedger traced_solves(const SolveSet& set) {
  CoreLedger c;
  const std::int64_t t_total = now_ns();
  for (const SolveCase& sc : set.cases) {
    const std::int64_t t0 = now_ns();
    const opt::LoadDistribution d = sc.inst->solve(sc.lambda);
    const std::int64_t dt = now_ns() - t0;
    c.solve_ns += dt;
    c.solve_us.push_back(static_cast<double>(dt) * 1e-3);
    c.outer_iters += static_cast<std::uint64_t>(d.outer_iterations);
    c.evals += static_cast<std::uint64_t>(d.inner_evaluations);
    const opt::ResponseTimeObjective obj(sc.inst->cluster(), sc.inst->discipline(), sc.lambda);
    const std::size_t stride = (obj.size() + kFindRatePerSolve - 1) / kFindRatePerSolve;
    for (std::size_t i = 0; i < obj.size(); i += stride) {
      timed(c.find_rate, [&] { c.rate_sum += sc.inst->flat->find_rate(obj, i, d.phi); });
    }
    c.prints.push_back(fingerprint(d));
    if (!solution_ok(sc, d)) ++c.bad;
  }
  c.total_ns = now_ns() - t_total;
  return c;
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void run_traced(const Inputs& in, Report& rep) {
  check_golden(in, rep);
  const double eps = span_overhead_ns();
  rep.note("span_overhead_ns", eps);
  const bool replay = is_replay_workload(in.workload);

  std::vector<ReplaySetup> setups;
  SolveSet solves;
  if (replay) {
    setups = make_replay_setups(in);
    solves = make_probe(setups.front(), in.grid);
  } else {
    solves = make_sweep(in.grid);
  }

  // Core: one untraced and one traced pass over the same cases.
  std::vector<std::uint64_t> plain;
  const std::int64_t t_plain = now_ns();
  for (const SolveCase& sc : solves.cases) plain.push_back(fingerprint(sc.inst->solve(sc.lambda)));
  const double plain_core_s = seconds_since(t_plain);
  const CoreLedger core = traced_solves(solves);
  bool fidelity = plain == core.prints;
  const std::uint64_t bad_solves = core.bad;
  rep.check(bad_solves == 0, "every traced solve passes verify_kkt and sums to lambda'");
  const double n_solves = static_cast<double>(solves.cases.size());

  // Replays: the first replicas, each through the public entry point and
  // then through the traced harness.
  Ledger L;
  ReplayOutcome o;  ///< traced counters summed over the replicas
  double plain_replay_s = 0.0;
  const std::size_t traced_replicas = std::min(setups.size(), kTracedReplicas);
  for (std::size_t k = 0; k < traced_replicas; ++k) {
    const ReplaySetup& setup = setups[k];
    const std::int64_t t0 = now_ns();
    const ReplayOutcome plain_outcome = run_replay(setup);
    plain_replay_s += seconds_since(t0);
    const TracedReplay tr =
        setup.policy ? traced_policy_replay(setup) : traced_controller_replay(setup);
    check_replay(setup, plain_outcome, rep);
    if (!tr.outcome.same_as(plain_outcome)) fidelity = false;
    L += tr.ledger;
    o.events += tr.outcome.events;
    o.offered += tr.outcome.offered;
    o.shed += tr.outcome.shed;
    o.resolves += tr.outcome.resolves;
    o.solver_failures += tr.outcome.solver_failures;
    o.skipped_by_hysteresis += tr.outcome.skipped_by_hysteresis;
    o.probes += tr.outcome.probes;
    o.redraws += tr.outcome.redraws;
    o.resolve_seconds += tr.outcome.resolve_seconds;
  }
  rep.check(fidelity, "traced replay reproduces the untraced counters and T' bitwise");
  rep.attempted = 2 * traced_replicas + solves.cases.size();
  rep.failed = bad_solves + (fidelity ? 0 : 1);
  rep.note("fidelity", fidelity ? "exact" : "MISMATCH: per-layer numbers unavailable");

  // Overhead: the traced replays against the untraced ones; for the sweep,
  // the timed optimize() calls against an untimed pass of the same solves.
  const double traced_s = replay ? static_cast<double>(L.total_ns) * 1e-9
                                 : static_cast<double>(core.solve_ns) * 1e-9;
  const double plain_s = replay ? plain_replay_s : plain_core_s;
  rep.add("trace.fidelity_ok", fidelity ? 1.0 : 0.0, "bool");
  rep.add("trace.overhead_ratio", traced_s / plain_s, "ratio");
  if (!fidelity) return;  // layer numbers from a diverged run would mislead

  const auto self_ns = [eps](const Layer& l) {
    return std::max(0.0, static_cast<double>(l.ns) - eps * static_cast<double>(l.calls));
  };
  const auto ns_per_call = [&](const Layer& l) {
    return per(self_ns(l), static_cast<double>(l.calls));
  };
  const double spans = static_cast<double>(L.spans());
  const double sim_self_ns =
      std::max(0.0, static_cast<double>(L.run_ns) - (self_ns(L.ingest) + self_ns(L.resolve) +
                                                     self_ns(L.health) + self_ns(L.route) +
                                                     self_ns(L.chaos) + self_ns(L.policy)) -
                        2.0 * eps * spans);
  const double events = static_cast<double>(o.events);

  // Shares are of the traced time less the measured span overhead, which
  // estimates the untraced time; calibration_error says how well.
  double corrected_ns = 0.0;
  double unattributed = 0.0;
  if (replay) {
    corrected_ns = static_cast<double>(L.total_ns) - 2.0 * eps * spans;
    unattributed = static_cast<double>(L.total_ns - L.run_ns - L.construct_sim_ns -
                                       L.construct_runtime_ns) /
                   corrected_ns;
  } else {
    corrected_ns = static_cast<double>(core.solve_ns) - eps * n_solves;
    unattributed = static_cast<double>(core.total_ns - core.solve_ns - core.find_rate.ns) /
                   static_cast<double>(core.total_ns);
  }

  rep.add("sim.events", events, "count");
  rep.add("sim.self_s", sim_self_ns * 1e-9, "s");
  rep.add("sim.self_share", per(sim_self_ns, corrected_ns), "ratio");
  rep.add("sim.ns_per_event", per(sim_self_ns, events), "ns");
  rep.add("sim.construct_s", static_cast<double>(L.construct_sim_ns) * 1e-9, "s");
  rep.add("runtime.construct_s", static_cast<double>(L.construct_runtime_ns) * 1e-9, "s");
  rep.add("runtime.ingest.calls", static_cast<double>(L.ingest.calls), "count");
  rep.add("runtime.ingest.self_s", self_ns(L.ingest) * 1e-9, "s");
  rep.add("runtime.ingest.ns_per_call", ns_per_call(L.ingest), "ns");
  rep.add("runtime.resolve.count", static_cast<double>(L.resolve.calls), "count");
  rep.add("runtime.resolve.self_s", self_ns(L.resolve) * 1e-9, "s");
  rep.add("runtime.resolve.timer_s", o.resolve_seconds, "s");
  rep.add("runtime.resolve.p50_us", quantile(L.resolve_us, 0.5), "us");
  rep.add("runtime.resolve.p99_us", quantile(L.resolve_us, 0.99), "us");
  rep.add("runtime.resolves_per_1k_arrivals",
          per(1000.0 * static_cast<double>(o.resolves), static_cast<double>(o.offered)),
          "count");
  rep.add("runtime.resolve.ok_ratio",
          per(static_cast<double>(o.resolves - o.solver_failures),
              static_cast<double>(o.resolves)),
          "ratio");
  rep.add("runtime.drift.skip_ratio",
          per(static_cast<double>(o.skipped_by_hysteresis),
              static_cast<double>(o.skipped_by_hysteresis + L.drift_resolves)),
          "ratio");
  rep.add("runtime.health.self_s", self_ns(L.health) * 1e-9, "s");
  rep.add("runtime.health.ns_per_call", ns_per_call(L.health), "ns");
  rep.add("runtime.route.self_s", self_ns(L.route) * 1e-9, "s");
  rep.add("runtime.route.ns_per_call", ns_per_call(L.route), "ns");
  rep.add("runtime.chaos.self_s", self_ns(L.chaos) * 1e-9, "s");
  rep.add("policy.route.self_s", self_ns(L.policy) * 1e-9, "s");
  rep.add("policy.route.ns_per_call", ns_per_call(L.policy), "ns");
  rep.add("policy.probes_per_route",
          per(static_cast<double>(o.probes), static_cast<double>(o.offered)),
          "count");
  rep.add("policy.redraws_per_route",
          per(static_cast<double>(o.redraws), static_cast<double>(o.offered)),
          "count");
  rep.add("core.solves", n_solves, "count");
  rep.add("core.solve.p50_us", quantile(core.solve_us, 0.5), "us");
  rep.add("core.outer_iters_per_solve", per(static_cast<double>(core.outer_iters), n_solves),
          "count");
  rep.add("core.marginal_evals_per_solve", per(static_cast<double>(core.evals), n_solves),
          "count");
  rep.add("core.ns_per_marginal_eval",
          per(static_cast<double>(core.solve_ns) - eps * n_solves, static_cast<double>(core.evals)),
          "ns");
  rep.add("core.find_rate.ns_per_call",
          per(static_cast<double>(core.find_rate.ns) -
                  eps * static_cast<double>(core.find_rate.calls),
              static_cast<double>(core.find_rate.calls)),
          "ns");
  rep.add("trace.unattributed_share", unattributed, "ratio");
  rep.add("trace.calibration_error", corrected_ns * 1e-9 / plain_s - 1.0, "ratio");
  rep.add("failed_fraction",
          replay ? per(static_cast<double>(o.shed), static_cast<double>(o.offered))
                 : per(static_cast<double>(bad_solves), n_solves),
          "ratio");
}

}  // namespace perfbench
