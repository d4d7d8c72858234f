// Shared pieces of e2ebench: the inputs run.py hands over, the report
// e2ebench prints, and the workloads' set-up, solve sets and
// output checks that the untraced and traced runs share.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/optimizer.hpp"
#include "core/sharded.hpp"
#include "model/cluster.hpp"
#include "policy/policy.hpp"
#include "runtime/chaos.hpp"
#include "runtime/controller.hpp"
#include "runtime/replay.hpp"

namespace perfbench {

using namespace blade;

/// Everything e2ebench is given. run.py derives the replica seeds and the
/// lambda' grid from the workload seed; e2ebench never sees that seed.
struct Inputs {
  std::string workload;
  bool trace = false;
  double seconds = 10.0;
  /// Per-replica seeds for the replay workloads (arrival/service streams
  /// and fault injection); each workload uses the first few it needs.
  struct ReplicaSeeds {
    std::uint64_t trace = 1;
    std::uint64_t chaos = 1;
  };
  std::vector<ReplicaSeeds> seeds;
  std::vector<double> grid;  ///< lambda' as fractions of each cluster's lambda'_max
  std::string golden;        ///< path of the Example 1 golden table (table1.csv)
  double horizon_scale = 1.0;  ///< shortens replay horizons (tests only)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one e2ebench invocation prints: metrics, named output checks, and
/// free-form facts (sample counts, sizes) for the human reader.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failed_checks;
  std::uint64_t checks = 0;
  std::uint64_t attempted = 0;  ///< workload operations run and checked
  std::uint64_t failed = 0;     ///< operations whose output failed a check
  std::vector<std::pair<std::string, std::string>> info;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records one output check; returns `ok` so callers can count failures.
  bool check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) failed_checks.push_back(what);
    return ok;
  }
  template <class T>
    requires std::is_arithmetic_v<T>
  void note(const std::string& key, T value) {
    info.emplace_back(key, std::to_string(value));
  }
  void note(const std::string& key, const std::string& value) { info.emplace_back(key, value); }
};

// --- time ---

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// CPU time of the whole process (every thread), in ns: the clock of the
/// end-to-end host timings. Unlike the wall clock it leaves out the time
/// the process waits for a core, so other tenants of a shared host, which
/// take the vCPUs away for stretches (steal), barely move it. Run length
/// stays wall time (now_ns); the traced run's spans stay on steady_clock,
/// which is cheap enough to read around every call.
[[nodiscard]] inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

[[nodiscard]] inline double cpu_seconds_since(std::int64_t t0) {
  return static_cast<double>(cpu_ns() - t0) * 1e-9;
}

/// How fast this host runs right now, relative to its fast level. The
/// cores of a shared host flip between two speed levels about a quarter
/// apart, in stretches of tens of milliseconds to seconds, and CPU time
/// does not leave that out. The benchmark samples a fixed reference kernel
/// between units of work and reports each unit's CPU time scaled by the
/// host's speed around it: the time the unit would take at the fast level.
/// The kernel is the benchmark's own code, so a change to the program
/// moves the scaled times fully.
class HostSpeed {
 public:
  /// Runs the reference kernel for 2 ms of CPU and returns its speed
  /// relative to the host's fast level (1 = as fast, 0.8 = 20% slower).
  double sample();
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
/// Mean of a sample without its lowest and highest `share` (in [0, 0.5)):
/// a mean that a few heavy-tailed values do not swing.
[[nodiscard]] double trimmed_mean(std::vector<double> v, double share);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

// --- workloads ---

/// A replay workload: the cluster, its timeline and how it is driven.
/// Controller workloads use `cfg`; the policy workload uses `policy`.
struct ReplaySetup {
  model::Cluster cluster;
  runtime::ReplayTrace trace;
  runtime::ControllerConfig cfg;
  std::optional<policy::PolicyConfig> policy;  ///< set: replay_policy
  std::optional<runtime::ChaosProfile> chaos;  ///< set: FaultInjector in the loop
  std::uint64_t chaos_seed = 1;
};

/// The counters a replay's correctness and fidelity are judged on.
struct ReplayOutcome {
  std::uint64_t events = 0;
  std::uint64_t offered = 0;   ///< generic tasks offered to admission (routed, for policies)
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t resolves = 0;
  std::uint64_t publications = 0;
  std::uint64_t solver_failures = 0;
  std::uint64_t skipped_by_hysteresis = 0;
  std::uint64_t generic_samples = 0;
  std::uint64_t special_samples = 0;
  std::uint64_t routes_to_quarantined = 0;
  std::uint64_t routed_total = 0;  ///< policy: sum of routed_by_server
  std::uint64_t probes = 0;        ///< policy counters
  std::uint64_t redraws = 0;
  double tprime_generic = 0.0;
  double tprime_special = 0.0;
  double resolve_seconds = 0.0;  ///< the controller's own re-solve timer (not compared)
  std::vector<double> final_fractions;

  /// Bitwise equality on every counter, T' and the final split.
  [[nodiscard]] bool same_as(const ReplayOutcome& o) const;
};

[[nodiscard]] bool is_replay_workload(const std::string& name);
/// One set-up per replica of the workload, in replica order.
[[nodiscard]] std::vector<ReplaySetup> make_replay_setups(const Inputs& in);
[[nodiscard]] ReplayOutcome run_replay(const ReplaySetup& s);

/// One solver instance. Every instance has the flat paper optimizer
/// (find_rate, the sweep's solves); fleet-scale instances also carry the
/// sharded optimizer their control plane re-solves through.
struct SolveInstance {
  std::unique_ptr<opt::LoadDistributionOptimizer> flat;
  std::unique_ptr<opt::ShardedOptimizer> sharded;

  [[nodiscard]] const model::Cluster& cluster() const { return flat->cluster(); }
  [[nodiscard]] queue::Discipline discipline() const { return flat->discipline(); }
  /// One cold solve (fresh workspace) through the instance's solver.
  [[nodiscard]] opt::LoadDistribution solve(double lambda) const;
};

/// One cold solve: which instance, at which lambda'.
struct SolveCase {
  const SolveInstance* inst = nullptr;
  double lambda = 0.0;
};

/// Solver instances plus the cases over them.
struct SolveSet {
  std::vector<std::unique_ptr<SolveInstance>> instances;
  std::vector<SolveCase> cases;
};

/// solve-sweep: six figure families x 5 groups x {FCFS, priority} x every
/// 16th grid point.
[[nodiscard]] SolveSet make_sweep(const std::vector<double>& grid);
/// Replay workloads' solve probe: the workload's own cluster x every grid
/// point (every second one on the fleet).
[[nodiscard]] SolveSet make_probe(const ReplaySetup& s, const std::vector<double>& grid);

/// Checks that apply to every run: paper Example 1 against the golden.
void check_golden(const Inputs& in, Report& rep);
/// Hash of a solution's rates and T' bit patterns (bitwise-repeat checks).
[[nodiscard]] std::uint64_t fingerprint(const opt::LoadDistribution& d);
/// KKT optimality and sum-to-lambda' for one solve.
[[nodiscard]] bool solution_ok(const SolveCase& c, const opt::LoadDistribution& d);
/// Output checks on one replay outcome.
void check_replay(const ReplaySetup& s, const ReplayOutcome& o, Report& rep);

// --- the two modes ---

void run_untraced(const Inputs& in, Report& rep);
void run_traced(const Inputs& in, Report& rep);

}  // namespace perfbench
