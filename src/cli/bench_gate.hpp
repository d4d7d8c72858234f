// Library core of the bench_check perf-smoke gate, factored out of
// tools/bench_check.cpp so tests drive both gate modes in-process.
//
// Usage (args, program name excluded):
//   [--min-ratio] <baseline.json> <current.json> <numerator> <denominator> <factor>
//
// Compares the numerator/denominator counter ratio between a checked-in
// baseline BENCH_*.json export and a fresh one. Counters are addressed
// as `name` or `name:field` where `field` is a numeric key of the metric
// record ("count" when omitted) — gauge values like
// `bench.gray.slowdown.t_off:value` are reachable that way.
//
// Default (max-ratio) mode treats the ratio as a cost (lower is better):
// fail when current > factor * baseline. With --min-ratio the ratio is a
// throughput (higher is better): fail when current < factor * baseline.
// Counter ratios are machine-load independent, so the default mode is
// safe on shared CI runners; --min-ratio gates over a wall-clock
// denominator trade that safety for a real throughput floor, which is
// why the factor there is deliberately slack (e.g. 0.08 on the
// gray-failure ablation ratio).
//
// exit 0: within the allowed factor
// exit 1: regression, or a counter missing from the current export
// exit 2: usage / unreadable input
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace blade::cli {

int run_bench_check(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace blade::cli
