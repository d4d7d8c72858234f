// Perf-smoke gate over BENCH_*.json self-records: compares a
// counter-per-counter ratio between a checked-in baseline export and a
// fresh one, and fails when the current ratio crosses an allowed factor.
//
//   bench_check [--min-ratio] <baseline.json> <current.json>
//               <numerator> <denominator> <factor>
//
// Default mode treats the ratio as a cost (fail when current exceeds
// factor * baseline); --min-ratio treats it as a throughput (fail when
// current falls below factor * baseline). Full semantics, metric
// addressing (`name[:field]`), and exit codes in src/cli/bench_gate.hpp.
//
// examples:
//   bench_check bench/baselines/BENCH_bench_solver_scaling.json
//               BENCH_bench_solver_scaling.json
//               numerics.erlang_c_evals optimizer.solves 2.0
//   bench_check --min-ratio bench/baselines/BENCH_bench_gray_failure.json
//               BENCH_bench_gray_failure.json
//               bench.gray.slowdown.t_off:value bench.gray.slowdown.t_on:value 0.08
#include <iostream>
#include <string>
#include <vector>

#include "cli/bench_gate.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  return blade::cli::run_bench_check(args, std::cout, std::cerr);
}
