"""The benchmark's own tests.

Run from the repository root (the first run builds e2ebench):

    python3 -m unittest discover -s perfbench/tests -v

They check BENCHMARK.json's metric declarations, that every workload emits
every declared metric (and a non-zero value for each metric that applies
to it), that the traced replay reproduces the untraced replays bitwise on
a short horizon, that a fixed seed repeats its simulated outcomes, that
the host-speed scaling stays within the sampled speeds, and that the
benchmark refuses to run without the repository's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("paper-chaos", "fleet-sharded", "solve-sweep", "paper-jsqd")
REPLAYS = ("paper-chaos", "fleet-sharded", "paper-jsqd")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Short runs: the replay horizons shrink by this factor in the tests.
SHORT = ["--seconds", "1", "--horizon-scale", "0.05"]

# Per-layer metrics that must be non-zero on each workload (the layer runs
# there); the rest may legitimately read 0 (e.g. policy.* without a policy).
APPLIES = {
    "paper-chaos": ["sim.events", "sim.self_s", "runtime.ingest.calls", "runtime.resolve.count",
                    "runtime.health.ns_per_call", "runtime.route.ns_per_call",
                    "runtime.chaos.self_s", "core.solves", "core.marginal_evals_per_solve"],
    "fleet-sharded": ["sim.events", "sim.self_s", "runtime.ingest.calls",
                      "runtime.resolve.count", "runtime.resolve.timer_s",
                      "runtime.route.ns_per_call", "core.solves",
                      "core.marginal_evals_per_solve"],
    "solve-sweep": ["core.solves", "core.solve.p50_us", "core.outer_iters_per_solve",
                    "core.marginal_evals_per_solve", "core.ns_per_marginal_eval",
                    "core.find_rate.ns_per_call"],
    "paper-jsqd": ["sim.events", "sim.self_s", "policy.route.ns_per_call",
                   "policy.probes_per_route", "core.solves"],
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, trace, seed=1, extra=SHORT, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--trace", str(trace)] + extra,
                          cwd=cwd, capture_output=True, text=True, timeout=900, check=False)
    return proc


def result(workload, trace, seed=1):
    proc = run(workload, trace, seed)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} seed={seed} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Declarations(unittest.TestCase):
    def test_metric_names_and_units(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "metric names must be unique")
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m.get("unit", ""), UNIT_RE, f"{m['name']} needs a unit")
            self.assertIn(m["better"], ("lower", "higher"))
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn("setup_s", [m["name"] for m in s["end_to_end"]])
        self.assertEqual([w["name"] for w in s["workloads"]], list(WORKLOADS))


class Emission(unittest.TestCase):
    def check_emits(self, workload, trace):
        s = spec()
        wanted = s["per_layer"] if trace else s["end_to_end"]
        out = result(workload, trace)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(sorted(out["metrics"]), sorted(m["name"] for m in wanted))
        for m in wanted:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, f"{workload}: {m['name']} must not be 0")
        if trace:
            for name in APPLIES[workload]:
                self.assertGreater(out["metrics"][name]["value"], 0, f"{workload}: {name}")
        return out

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_emits(workload, trace)


class Fidelity(unittest.TestCase):
    def test_traced_replay_reproduces_untraced_replays(self):
        for workload in REPLAYS:
            with self.subTest(workload=workload):
                out = result(workload, 1)
                self.assertEqual(out["metrics"]["trace.fidelity_ok"]["value"], 1)


class Seeds(unittest.TestCase):
    SIMULATED = ("tprime_generic", "tprime_special", "served_fraction")

    def test_fixed_seed_repeats_and_held_out_seed_runs_clean(self):
        a = result("paper-chaos", 0, seed=5)
        b = result("paper-chaos", 0, seed=5)
        c = result("paper-chaos", 0, seed=9001)
        for name in self.SIMULATED:
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)
        self.assertTrue(c["correct"])
        self.assertNotEqual(a["metrics"]["tprime_generic"]["value"],
                            c["metrics"]["tprime_generic"]["value"])


class HostSpeedScaling(unittest.TestCase):
    def test_scaled_times_are_the_cpu_times_times_the_sampled_speed(self):
        proc = run("paper-jsqd", 0)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        info = json.loads(re.search(r"info (\{.*\})", proc.stderr).group(1))
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertGreater(int(info["host_speed_samples"]), 2)
        lo, hi = float(info["host_speed_q1"]), float(info["host_speed_q3"])
        self.assertGreater(lo, 0)
        # A rate over scaled time is the rate over CPU time divided by the
        # speeds around each unit; those lie in the samples' range.
        for scaled, raw in (("events_per_s", "cpu_events_per_s"),
                            ("solves_per_s", "cpu_solves_per_s")):
            speed = float(info[raw]) / out["metrics"][scaled]["value"]
            self.assertGreater(speed, 0.8 * lo, scaled)
            self.assertLess(speed, 1.25 * hi, scaled)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_repository_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("solve-sweep", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
