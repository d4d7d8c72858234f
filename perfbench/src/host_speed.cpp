// The host-speed meter: a fixed reference kernel, owned by the benchmark
// and independent of the program's code, timed on the same CPU clock as
// the workload.
#include <cstdint>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Reference-kernel units per CPU second on a 4-vCPU Intel Xeon VM (GCC 12,
/// Release) while the host ran at its fast level. Only scales the reported
/// values; every comparison is between runs on one host.
constexpr double kNominalUnitsPerS = 3.3e6;
/// 64 KiB of chase indices: past L1, inside L2, like the n=7 simulator's
/// and the solver's working sets. A kernel that missed in L3 would measure
/// the other tenants' memory traffic, which moves these workloads less
/// than it moves the kernel.
constexpr std::size_t kChaseSlots = std::size_t{1} << 14;
/// CPU time of one sample.
constexpr double kSliceS = 2e-3;
constexpr int kUnitsPerCheck = 16;
/// Two passes over the chase array.
constexpr int kWarmUnits = 2 * static_cast<int>(kChaseSlots) / 32;

/// One unit mixes the program's kinds of work: a dependent floating-point
/// recursion (the Erlang-B recurrence the solver's kernel runs), integer
/// hashing with a data-dependent branch (the random streams and event
/// dispatch) and a dependent pointer chase (the event heap and server
/// state).
struct Kernel {
  std::vector<std::uint32_t> next;
  std::uint32_t at = 0;
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  double sink = 0.0;

  Kernel() : next(kChaseSlots) {
    // Sattolo's shuffle: one cycle through every slot, so the chase never
    // settles into a short loop.
    std::iota(next.begin(), next.end(), std::uint32_t{0});
    std::mt19937 rng(20260517);
    for (std::size_t i = kChaseSlots - 1; i > 0; --i) {
      std::uniform_int_distribution<std::size_t> pick(0, i - 1);
      std::swap(next[i], next[pick(rng)]);
    }
  }

  void unit() {
    double b = 1.0;
    for (int m = 1; m <= 32; ++m) b = 30.0 * b / (m + 30.0 * b);
    sink += b;
    for (int k = 0; k < 32; ++k) {
      h ^= h >> 29;
      h *= 0xbf58476d1ce4e5b9ULL;
      if (h & 1) at = next[(at + static_cast<std::uint32_t>(h >> 40)) & (kChaseSlots - 1)];
      else at = next[at];
    }
  }
};

}  // namespace

/// Where the kernel's results go, so the compiler keeps its work.
double host_speed_sink = 0.0;

double HostSpeed::sample() {
  static Kernel kernel;
  // Untimed warm-up: the workload just ran and evicted the kernel's data
  // and branch history, by an amount that depends on the program. Timed
  // cold, the kernel would measure the program's footprint, not the host.
  for (int k = 0; k < kWarmUnits; ++k) kernel.unit();
  const std::int64_t t0 = cpu_ns();
  std::int64_t units = 0;
  do {
    for (int k = 0; k < kUnitsPerCheck; ++k) kernel.unit();
    units += kUnitsPerCheck;
  } while (cpu_seconds_since(t0) < kSliceS);
  const double speed =
      static_cast<double>(units) / cpu_seconds_since(t0) / kNominalUnitsPerS;
  host_speed_sink = kernel.sink + static_cast<double>(kernel.at ^ kernel.h);
  samples_.push_back(speed);
  return speed;
}

}  // namespace perfbench
