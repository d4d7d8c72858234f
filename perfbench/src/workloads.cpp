// Workload set-up, output checks and the untraced (end-to-end) run.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/kkt.hpp"
#include "model/paper_configs.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double trimmed_mean(std::vector<double> v, double share) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto cut = static_cast<std::size_t>(share * static_cast<double>(v.size()));
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

bool ReplayOutcome::same_as(const ReplayOutcome& o) const {
  return events == o.events && offered == o.offered && admitted == o.admitted &&
         shed == o.shed && resolves == o.resolves && publications == o.publications &&
         solver_failures == o.solver_failures &&
         skipped_by_hysteresis == o.skipped_by_hysteresis &&
         generic_samples == o.generic_samples && special_samples == o.special_samples &&
         routes_to_quarantined == o.routes_to_quarantined && routed_total == o.routed_total &&
         probes == o.probes && redraws == o.redraws && tprime_generic == o.tprime_generic &&
         tprime_special == o.tprime_special && final_fractions == o.final_fractions;
}

namespace {

// Replay horizons (simulated time units) and replicas per run.
// paper-chaos and paper-jsqd share one timeline, replayed under many
// chaos/arrival seeds: chaos places a fixed number of blade flaps per
// horizon, so one replica's measured T' depends on where its flaps land
// and only a trimmed mean over many replicas is steady. fleet-sharded runs
// no chaos; its cost is the control plane, not the event count, and the
// re-solve count (so the cost) varies by seed, hence 16 replicas.
constexpr double kPaperHorizon = 2000.0;
constexpr std::size_t kChaosReplicas = 192;
constexpr std::size_t kJsqdReplicas = 384;
/// T' over the replicas drops the lowest and highest tenth.
constexpr double kTrim = 0.1;
constexpr double kFleetHorizon = 1.0;
constexpr std::size_t kFleetReplicas = 16;
constexpr std::size_t kFleetServers = 10000;
constexpr std::size_t kFleetSkus = 48;
constexpr std::size_t kFleetCells = 64;

/// bench_shard_scaling's fleet shape: n servers drawn from a catalog of
/// `skus` hardware types in contiguous blocks.
model::Cluster catalog_fleet(std::size_t n, std::size_t skus) {
  std::vector<unsigned> sizes(n);
  std::vector<double> speeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = i * skus / n;
    sizes[i] = 1 + static_cast<unsigned>(s % 6);
    speeds[i] = 0.5 + 0.05 * static_cast<double>(s);
  }
  return model::make_cluster(sizes, speeds, 1.0, 0.2);
}

ReplayOutcome outcome_of(const runtime::ReplayResult& r) {
  ReplayOutcome o;
  o.events = r.sim.events;
  o.offered = r.stats.generic_arrivals;
  o.admitted = r.stats.admitted;
  o.shed = r.stats.shed;
  o.resolves = r.stats.resolves;
  o.publications = r.stats.publications;
  o.solver_failures = r.stats.solver_failures;
  o.skipped_by_hysteresis = r.stats.skipped_by_hysteresis;
  o.generic_samples = r.sim.generic_samples;
  o.special_samples = r.sim.special_samples;
  o.routes_to_quarantined = r.routes_to_quarantined;
  o.tprime_generic = r.sim.generic_mean_response;
  o.tprime_special = r.sim.special_mean_response;
  o.resolve_seconds = r.stats.resolve_seconds_total;
  o.final_fractions = r.final_fractions;
  return o;
}

ReplayOutcome outcome_of(const runtime::PolicyReplayResult& r) {
  ReplayOutcome o;
  o.events = r.sim.events;
  o.offered = r.counters.routed;
  for (const std::uint64_t c : r.routed_by_server) o.routed_total += c;
  o.admitted = o.routed_total;  // no admission control: every task is routed
  o.probes = r.counters.probes;
  o.redraws = r.counters.redraws;
  o.generic_samples = r.sim.generic_samples;
  o.special_samples = r.sim.special_samples;
  o.tprime_generic = r.sim.generic_mean_response;
  o.tprime_special = r.sim.special_mean_response;
  o.final_fractions = r.measured_fractions;
  return o;
}

/// Mean analytic special-task response time at a solved split, weighted
/// by each server's special rate.
double special_response(const SolveCase& c, const opt::LoadDistribution& d) {
  const auto& cl = c.inst->cluster();
  const opt::ResponseTimeObjective obj(cl, c.inst->discipline(), c.lambda);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < cl.size(); ++i) {
    const double l2 = cl.server(i).special_rate();
    num += l2 * obj.queue(i).special_response_time(d.rates[i]);
    den += l2;
  }
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace

bool is_replay_workload(const std::string& name) {
  return name == "paper-chaos" || name == "fleet-sharded" || name == "paper-jsqd";
}

std::vector<ReplaySetup> make_replay_setups(const Inputs& in) {
  const bool fleet = in.workload == "fleet-sharded";
  const model::Cluster cluster =
      fleet ? catalog_fleet(kFleetServers, kFleetSkus) : model::paper_example_cluster();
  const double horizon = (fleet ? kFleetHorizon : kPaperHorizon) * in.horizon_scale;
  const std::size_t replicas = fleet                          ? kFleetReplicas
                               : in.workload == "paper-chaos" ? kChaosReplicas
                                                              : kJsqdReplicas;
  if (in.seeds.size() < replicas) throw std::invalid_argument("too few replica seeds");
  std::optional<runtime::ChaosProfile> chaos;
  if (!fleet) {
    auto moderate = runtime::chaos_profile("moderate");
    if (!moderate) throw std::runtime_error(moderate.error().context);
    chaos = moderate.value();
  }
  const runtime::ReplayTrace timeline = runtime::reference_failure_trace(cluster, horizon);

  std::vector<ReplaySetup> out;
  for (std::size_t k = 0; k < replicas; ++k) {
    ReplaySetup s{.cluster = cluster,
                  .trace = timeline,
                  .cfg = {},
                  .policy = std::nullopt,
                  .chaos = chaos,
                  .chaos_seed = in.seeds[k].chaos};
    s.trace.seed = in.seeds[k].trace;
    // serve-replay's default estimator memory: a hundredth of the horizon.
    s.cfg.half_life = horizon / 100.0;
    if (fleet) {
      s.cfg.shard_cells = kFleetCells;
    } else if (in.workload == "paper-chaos") {
      s.cfg.health.enabled = true;
    } else {
      // serve-replay --policy ha-jsq-d: routing stream 77 over the trace seed.
      policy::PolicyConfig p;
      p.kind = policy::PolicyKind::HeteroJsqD;
      p.probe_d = 2;
      p.seed = s.trace.seed;
      p.stream = 77;
      s.policy = p;
    }
    out.push_back(std::move(s));
  }
  return out;
}

ReplayOutcome run_replay(const ReplaySetup& s) {
  std::optional<runtime::FaultInjector> chaos;
  runtime::ReplayOptions options;
  if (s.chaos) options.chaos = &chaos.emplace(s.chaos_seed, *s.chaos);
  if (s.policy) return outcome_of(runtime::replay_policy(s.cluster, *s.policy, s.trace, options));
  return outcome_of(runtime::replay(s.cluster, s.cfg, s.trace, options));
}

opt::LoadDistribution SolveInstance::solve(double lambda) const {
  if (sharded) {
    opt::ShardedWorkspace ws;
    return sharded->optimize(lambda, par::global_pool(), ws).dist;
  }
  return flat->optimize(lambda);
}

namespace {

/// Cases at every `stride`-th grid point: a stratified grid's every k-th
/// point is itself stratified.
void add_cases(SolveSet& set, const std::vector<double>& grid, std::size_t stride) {
  for (const auto& inst : set.instances) {
    const double lmax = inst->cluster().max_generic_rate();
    for (std::size_t k = 0; k < grid.size(); k += stride) {
      set.cases.push_back({inst.get(), grid[k] * lmax});
    }
  }
}

}  // namespace

SolveSet make_sweep(const std::vector<double>& grid) {
  const std::vector<std::vector<model::NamedCluster>> families = {
      model::size_groups(),          model::speed_groups(),
      model::requirement_groups(),   model::special_rate_groups(),
      model::size_heterogeneity_groups(), model::speed_heterogeneity_groups()};
  SolveSet set;
  for (const auto& family : families) {
    for (const auto& group : family) {
      for (const auto d : {queue::Discipline::Fcfs, queue::Discipline::SpecialPriority}) {
        auto inst = std::make_unique<SolveInstance>();
        inst->flat = std::make_unique<opt::LoadDistributionOptimizer>(group.cluster, d);
        set.instances.push_back(std::move(inst));
      }
    }
  }
  // Every 16th grid point: 150 lambda' points per instance, 9,000 solves
  // per pass.
  add_cases(set, grid, 16);
  return set;
}

SolveSet make_probe(const ReplaySetup& s, const std::vector<double>& grid) {
  SolveSet set;
  auto inst = std::make_unique<SolveInstance>();
  inst->flat = std::make_unique<opt::LoadDistributionOptimizer>(s.cluster, s.cfg.discipline);
  if (s.cfg.shard_cells > 0) {
    opt::ShardOptions shard;
    shard.cells = s.cfg.shard_cells;
    inst->sharded = std::make_unique<opt::ShardedOptimizer>(s.cluster, s.cfg.discipline,
                                                            opt::OptimizerOptions{}, shard);
  }
  set.instances.push_back(std::move(inst));
  // Every grid point at n=7; every second one on the fleet, whose solves
  // cost ten times as much. The p99 is then over the 24 or 12 costliest
  // points, few enough to move with the grid's jitter at 600 points.
  add_cases(set, grid, set.instances.front()->sharded ? 2 : 1);
  return set;
}

std::uint64_t fingerprint(const opt::LoadDistribution& d) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the bit patterns
  const auto mix = [&h](double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    h = (h ^ bits) * 1099511628211ULL;
  };
  for (const double r : d.rates) mix(r);
  mix(d.response_time);
  return h;
}

bool solution_ok(const SolveCase& c, const opt::LoadDistribution& d) {
  double sum = 0.0;
  for (const double r : d.rates) sum += r;
  if (!(std::abs(sum - c.lambda) <= 1e-9 * c.lambda)) return false;
  if (!(d.response_time > 0.0) || !std::isfinite(d.response_time)) return false;
  return opt::verify_kkt(c.inst->cluster(), c.inst->discipline(), c.lambda, d.rates).optimal();
}

void check_golden(const Inputs& in, Report& rep) {
  std::ifstream file(in.golden);
  std::vector<double> rates;
  double tprime = -1.0;
  double lambda = -1.0;
  std::string line;
  std::getline(file, line);  // header
  while (std::getline(file, line)) {
    std::vector<std::string> cols;
    std::stringstream ss(line);
    for (std::string c; std::getline(ss, c, ',');) cols.push_back(c);
    if (cols.size() == 2 && cols[0] == "response_time") tprime = std::stod(cols[1]);
    if (cols.size() == 2 && cols[0] == "lambda_total") lambda = std::stod(cols[1]);
    if (cols.size() == 7) rates.push_back(std::stod(cols[4]));
  }
  const opt::LoadDistributionOptimizer solver(model::paper_example_cluster(),
                                              queue::Discipline::Fcfs);
  const auto sol = solver.optimize(model::paper_example_lambda());
  const auto close = [](double a, double b) { return std::abs(a - b) <= 1e-6 * std::abs(b); };
  bool ok = rates.size() == sol.rates.size() && close(sol.response_time, tprime) &&
            close(model::paper_example_lambda(), lambda);
  for (std::size_t i = 0; ok && i < rates.size(); ++i) ok = close(sol.rates[i], rates[i]);
  rep.check(ok, "paper Example 1 matches " + in.golden + " at 1e-6");
}

void check_replay(const ReplaySetup& s, const ReplayOutcome& o, Report& rep) {
  const std::string where = "replay: ";
  rep.check(o.admitted + o.shed == o.offered, where + "admitted + shed == offered");
  if (s.policy) rep.check(o.routed_total == o.offered, where + "routed_by_server sums to routed");
  if (s.cfg.health.enabled) {
    rep.check(o.routes_to_quarantined == 0, where + "routes_to_quarantined == 0 with health on");
  }
  double sum = 0.0;
  for (const double f : o.final_fractions) sum += f;
  rep.check(std::abs(sum - 1.0) <= 1e-9, where + "final split sums to 1");
  rep.check(o.tprime_generic > 0.0 && std::isfinite(o.tprime_generic) &&
                o.tprime_special > 0.0 && std::isfinite(o.tprime_special),
            where + "measured T' finite and positive");
  rep.check(o.generic_samples > 0 && o.events > o.offered, where + "simulator ran the timeline");
}

namespace {

/// CPU seconds of solving timed between two host-speed samples.
constexpr double kSpeedChunkS = 0.03;
/// Each case's latency is the median of at least this many timed passes.
constexpr std::size_t kMinSolvePasses = 3;

void note_host(const HostSpeed& host, Report& rep) {
  rep.note("host_speed_samples", host.samples().size());
  rep.note("host_speed_q1", quantile(host.samples(), 0.25));
  rep.note("host_speed_median", median(host.samples()));
  rep.note("host_speed_q3", quantile(host.samples(), 0.75));
}

/// Runs the solve set's cases back to back for at least `budget` seconds
/// and kMinSolvePasses timed passes (whole passes), timing each solve.
/// Checks every solution of an untimed first pass and that the timed
/// passes repeat it bitwise.
struct SolveRun {
  std::vector<std::vector<double>> latency_us;  ///< [case][timed pass], scaled CPU time
  std::vector<double> pass_rate;  ///< solves per scaled CPU second, one per timed pass
  // The same unscaled (reported as info).
  std::vector<std::vector<double>> cpu_latency_us;
  std::vector<double> cpu_pass_rate;
  double tprime_generic = 0.0;     ///< mean over the cases
  double tprime_special = 0.0;
  std::uint64_t solves = 0;
  std::uint64_t failed = 0;        ///< solves that threw or failed a check
};

SolveRun run_solves(const SolveSet& set, double budget, HostSpeed& host, Report& rep) {
  SolveRun run;
  run.latency_us.resize(set.cases.size());
  run.cpu_latency_us.resize(set.cases.size());
  std::vector<std::uint64_t> prints(set.cases.size());
  // Pass 0 checks every solution, records its fingerprint and warms the
  // caches; it is not timed. Timed passes follow until the budget is
  // spent (at least one).
  double tg = 0.0;
  double ts = 0.0;
  for (std::size_t k = 0; k < set.cases.size(); ++k) {
    const SolveCase& c = set.cases[k];
    try {
      const opt::LoadDistribution d = c.inst->solve(c.lambda);
      if (!solution_ok(c, d)) ++run.failed;
      prints[k] = fingerprint(d);
      tg += d.response_time;
      ts += special_response(c, d);
    } catch (const std::exception&) {
      ++run.failed;
    }
  }
  run.solves += set.cases.size();
  run.tprime_generic = tg / static_cast<double>(set.cases.size());
  run.tprime_special = ts / static_cast<double>(set.cases.size());

  // Each timed pass solves the cases in its own fixed shuffled order, so
  // the costliest cases (the top of the lambda' grid) do not sit together
  // in one stretch of host time. Solve times are scaled by the host speed
  // sampled before and after each chunk of about kSpeedChunkS of solving.
  const std::int64_t t_start = now_ns();
  std::vector<std::size_t> order(set.cases.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::pair<std::size_t, double>> chunk;  ///< (case, CPU us)
  while (run.pass_rate.size() < kMinSolvePasses || seconds_since(t_start) < budget) {
    std::mt19937_64 shuffle_rng(run.pass_rate.size());
    std::shuffle(order.begin(), order.end(), shuffle_rng);
    double busy_us = 0.0;
    double cpu_busy_us = 0.0;
    double chunk_us = 0.0;
    double speed_before = host.sample();
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::size_t k = order[i];
      const SolveCase& c = set.cases[k];
      const std::int64_t t0 = cpu_ns();
      std::uint64_t print = 0;
      double dt_us = 0.0;
      try {
        const opt::LoadDistribution d = c.inst->solve(c.lambda);
        dt_us = static_cast<double>(cpu_ns() - t0) * 1e-3;
        print = fingerprint(d);
      } catch (const std::exception&) {
        // counted below: a solve that throws leaves no fingerprint
      }
      if (print != prints[k]) ++run.failed;
      chunk.emplace_back(k, dt_us);
      chunk_us += dt_us;
      if (chunk_us >= kSpeedChunkS * 1e6 || i + 1 == order.size()) {
        const double speed_after = host.sample();
        const double speed = 0.5 * (speed_before + speed_after);
        for (const auto& [case_k, us] : chunk) {
          run.latency_us[case_k].push_back(us * speed);
          run.cpu_latency_us[case_k].push_back(us);
          busy_us += us * speed;
          cpu_busy_us += us;
        }
        chunk.clear();
        chunk_us = 0.0;
        speed_before = speed_after;
      }
    }
    run.pass_rate.push_back(static_cast<double>(set.cases.size()) / (busy_us * 1e-6));
    run.cpu_pass_rate.push_back(static_cast<double>(set.cases.size()) / (cpu_busy_us * 1e-6));
    run.solves += set.cases.size();
  }
  rep.check(run.failed == 0, "every solve passes verify_kkt, sums to lambda' and repeats bitwise");
  return run;
}

/// Solve latency percentile across the cases, each case's latency the
/// median of its timed passes (host noise moves single samples, not
/// medians).
double case_percentile(const std::vector<std::vector<double>>& latency_us, double q) {
  std::vector<double> per_case;
  for (const auto& samples : latency_us) per_case.push_back(median(samples));
  return quantile(per_case, q);
}

void note_solve_clocks(const SolveRun& run, Report& rep) {
  rep.note("cpu_solves_per_s", median(run.cpu_pass_rate));
  rep.note("cpu_solve_p99_us", case_percentile(run.cpu_latency_us, 0.99));
}

/// Set-up CPU time per build: after one untimed build (first-touch page
/// faults, allocator growth), 15 batches, each repeating `build` until it
/// has used at least 20 ms (sub-microsecond set-ups are not readable from
/// a single clock pair); the median batch mean.
struct Setup {
  double scaled_s = 0.0;
  double cpu_s = 0.0;  ///< unscaled (reported as info)
};

template <class F>
Setup median_setup(HostSpeed& host, F&& build) {
  build();
  std::vector<double> per_build;
  std::vector<double> cpu_per_build;
  double speed_before = host.sample();
  for (int batch = 0; batch < 15; ++batch) {
    const std::int64_t t0 = cpu_ns();
    int builds = 0;
    do {
      build();
      ++builds;
    } while (cpu_seconds_since(t0) < 20e-3);
    const double dt = cpu_seconds_since(t0);
    const double speed_after = host.sample();
    per_build.push_back(dt * 0.5 * (speed_before + speed_after) / builds);
    cpu_per_build.push_back(dt / builds);
    speed_before = speed_after;
  }
  return {median(per_build), median(cpu_per_build)};
}

}  // namespace

void run_untraced(const Inputs& in, Report& rep) {
  check_golden(in, rep);
  HostSpeed host;
  if (in.workload == "solve-sweep") {
    const Setup setup = median_setup(host, [&] { (void)make_sweep(in.grid); });
    const SolveSet set = make_sweep(in.grid);
    const SolveRun run = run_solves(set, in.seconds, host, rep);
    const double rate = median(run.pass_rate);
    rep.attempted = run.solves;
    rep.failed = run.failed;
    rep.add("setup_s", setup.scaled_s, "s");
    rep.add("events_per_s", rate, "1/s");
    rep.add("solves_per_s", rate, "1/s");
    rep.add("solve_p99_us", case_percentile(run.latency_us, 0.99), "us");
    rep.add("tprime_generic", run.tprime_generic, "time");
    rep.add("tprime_special", run.tprime_special, "time");
    rep.add("served_fraction",
            1.0 - static_cast<double>(run.failed) / static_cast<double>(run.solves), "ratio");
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
    rep.note("solves", run.solves);
    rep.note("solves_per_pass", set.cases.size());
    rep.note("solve_p50_us", case_percentile(run.latency_us, 0.5));
    rep.note("timed_passes", run.pass_rate.size());
    rep.note("cpu_setup_s", setup.cpu_s);
    note_solve_clocks(run, rep);
    note_host(host, rep);
    return;
  }

  // Replay workloads: the replicas back to back, pass after pass, for
  // most of the budget; then the solve probe on the workload's cluster.
  const Setup setup = median_setup(host, [&] {
    const auto setups = make_replay_setups(in);
    (void)make_probe(setups.front(), in.grid);
  });
  const std::vector<ReplaySetup> setups = make_replay_setups(in);
  const SolveSet probe = make_probe(setups.front(), in.grid);
  const double replay_budget = 0.5 * in.seconds;
  std::vector<std::vector<double>> cpus(setups.size());   ///< [replica][run] scaled CPU seconds
  std::vector<std::vector<double>> raw_cpus(setups.size());  ///< the same unscaled
  std::vector<ReplayOutcome> first(setups.size());
  std::uint64_t failed = 0;
  const std::int64_t t_start = now_ns();
  // Pass 0 runs every replica once (its outcomes are the T' sample);
  // later passes repeat them, for timing only, until the budget is spent.
  // Each replay's CPU time is scaled by the host speed around it.
  double speed_before = host.sample();
  for (std::size_t n = 0; n < setups.size() || seconds_since(t_start) < replay_budget; ++n) {
    const std::size_t k = n % setups.size();
    const std::int64_t c0 = cpu_ns();
    const ReplayOutcome o = run_replay(setups[k]);
    const double cpu = cpu_seconds_since(c0);
    const double speed_after = host.sample();
    cpus[k].push_back(cpu * 0.5 * (speed_before + speed_after));
    raw_cpus[k].push_back(cpu);
    speed_before = speed_after;
    if (n < setups.size()) {
      first[k] = o;
      const std::size_t before = rep.failed_checks.size();
      check_replay(setups[k], o, rep);
      if (rep.failed_checks.size() != before) ++failed;
    } else if (!rep.check(o.same_as(first[k]), "replay repeats bitwise at a fixed seed")) {
      ++failed;
    }
  }
  const SolveRun run =
      run_solves(probe, std::max(0.15 * in.seconds, in.seconds - seconds_since(t_start)), host,
                 rep);
  // Throughput of one pass over the replicas, each replica's CPU time
  // the median of its runs.
  double pass_cpu = 0.0;
  double pass_raw_cpu = 0.0;
  std::size_t replays = 0;
  for (std::size_t k = 0; k < setups.size(); ++k) {
    pass_cpu += median(cpus[k]);
    pass_raw_cpu += median(raw_cpus[k]);
    replays += cpus[k].size();
  }
  std::vector<double> tg;
  std::vector<double> ts;
  ReplayOutcome total;
  for (const ReplayOutcome& o : first) {
    tg.push_back(o.tprime_generic);
    ts.push_back(o.tprime_special);
    total.events += o.events;
    total.offered += o.offered;
    total.admitted += o.admitted;
    total.shed += o.shed;
    total.resolves += o.resolves;
  }
  rep.attempted = replays + run.solves;
  rep.failed = failed + run.failed;
  rep.add("setup_s", setup.scaled_s, "s");
  rep.add("events_per_s", static_cast<double>(total.events) / pass_cpu, "1/s");
  rep.add("solves_per_s", median(run.pass_rate), "1/s");
  rep.add("solve_p99_us", case_percentile(run.latency_us, 0.99), "us");
  rep.add("tprime_generic", trimmed_mean(tg, kTrim), "time");
  rep.add("tprime_special", trimmed_mean(ts, kTrim), "time");
  rep.add("served_fraction",
          static_cast<double>(total.admitted) / static_cast<double>(total.offered), "ratio");
  rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
  rep.note("replicas", setups.size());
  rep.note("replays", replays);
  rep.note("sim_events_per_pass", total.events);
  rep.note("offered_per_pass", total.offered);
  rep.note("shed_per_pass", total.shed);
  rep.note("resolves_per_pass", total.resolves);
  rep.note("tprime_generic_q1", quantile(tg, 0.25));
  rep.note("tprime_generic_q3", quantile(tg, 0.75));
  rep.note("probe_solves", run.solves);
  rep.note("probe_timed_passes", run.pass_rate.size());
  rep.note("cpu_setup_s", setup.cpu_s);
  rep.note("cpu_events_per_s", static_cast<double>(total.events) / pass_raw_cpu);
  note_solve_clocks(run, rep);
  note_host(host, rep);
}

}  // namespace perfbench
