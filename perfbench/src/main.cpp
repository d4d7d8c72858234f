// e2ebench: runs one benchmark workload and prints its result as one JSON
// line. perfbench/run.py builds it, derives the inputs below from the
// workload seed, and turns this line into the benchmark's output.
//
//   e2ebench --workload <paper-chaos|fleet-sharded|solve-sweep|paper-jsqd>
//            --trace <0|1> --seconds <s> --seeds <file of "trace chaos" seed pairs>
//            --grid <file of lambda' fractions> --golden <table1.csv>
//            [--horizon-scale <x>]
//
// Exit code 0 when every output check passed, 1 when one failed, 2 on a
// usage or input error.
#include <malloc.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Inputs;
using perfbench::Report;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print(const Report& rep) {
  std::ostringstream os;
  os << "{\"correct\": " << (rep.failed_checks.empty() ? "true" : "false")
     << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
     << ", \"metrics\": {";
  for (std::size_t k = 0; k < rep.metrics.size(); ++k) {
    const auto& m = rep.metrics[k];
    os << (k ? ", " : "") << json_string(m.name) << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}, \"checks\": " << rep.checks << ", \"failed_checks\": [";
  for (std::size_t k = 0; k < rep.failed_checks.size(); ++k) {
    os << (k ? ", " : "") << json_string(rep.failed_checks[k]);
  }
  os << "], \"info\": {";
  for (std::size_t k = 0; k < rep.info.size(); ++k) {
    os << (k ? ", " : "") << json_string(rep.info[k].first) << ": "
       << json_string(rep.info[k].second);
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

Inputs parse(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in --flag value pairs");
  const auto need = [&](const std::string& k) {
    const auto it = args.find(k);
    if (it == args.end()) throw std::invalid_argument("missing " + k);
    return it->second;
  };
  Inputs in;
  in.workload = need("--workload");
  if (in.workload != "solve-sweep" && !perfbench::is_replay_workload(in.workload)) {
    throw std::invalid_argument("unknown workload " + in.workload);
  }
  in.trace = need("--trace") == "1";
  in.seconds = std::stod(need("--seconds"));
  std::ifstream seeds(need("--seeds"));
  for (Inputs::ReplicaSeeds r; seeds >> r.trace >> r.chaos;) in.seeds.push_back(r);
  if (in.seeds.empty()) throw std::invalid_argument("empty replica seed file");
  in.golden = need("--golden");
  if (args.count("--horizon-scale")) in.horizon_scale = std::stod(args["--horizon-scale"]);
  std::ifstream grid(need("--grid"));
  for (double f; grid >> f;) {
    if (!(f > 0.0 && f < 1.0)) throw std::invalid_argument("grid fractions must be in (0, 1)");
    in.grid.push_back(f);
  }
  if (in.grid.empty()) throw std::invalid_argument("empty lambda' grid");
  if (!std::ifstream(in.golden)) throw std::invalid_argument("cannot read " + in.golden);
  if (!(in.seconds > 0.0) || !(in.horizon_scale > 0.0)) {
    throw std::invalid_argument("--seconds and --horizon-scale must be > 0");
  }
  return in;
}

/// Pins the process, and the thread pool it starts later, to the CPU it
/// started on. The host-speed samples then measure the core that does all
/// the work, and no thread migrates to a core that is slower at the time.
/// On fleet-sharded the pool's threads take turns on that core; its times
/// are CPU time summed over threads either way.
void pin_to_one_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

/// Fixes glibc malloc's thresholds. By default they adapt at run time: the
/// mmap threshold grows as large blocks are freed and the heap's top is
/// returned to the kernel past a threshold that follows it. When that
/// settles depends on the order of every allocation, timing included, and
/// identical runs took from 20k to 100k page faults to build the same
/// fleet set-up, 0.6 to 2.2 ms per build. With blocks up to 32 MiB taken
/// from the heap and the heap never trimmed, freed memory is reused.
void fix_malloc_thresholds() {
  (void)mallopt(M_MMAP_THRESHOLD, 32 << 20);
  (void)mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

}  // namespace

int main(int argc, char** argv) {
  pin_to_one_cpu();
  fix_malloc_thresholds();
  Inputs in;
  try {
    in = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
  Report rep;
  try {
    if (in.trace) {
      perfbench::run_traced(in, rep);
    } else {
      perfbench::run_untraced(in, rep);
    }
  } catch (const std::exception& e) {
    rep.check(false, std::string("uncaught exception: ") + e.what());
  }
  print(rep);
  return rep.failed_checks.empty() ? 0 : 1;
}
