#!/usr/bin/env python3
"""Self-tests of the benchmark harness. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Covers the statistics helpers, BENCHMARK.json against the benchmark
contract, the output schema (the metrics run.py prints are exactly the ones
BENCHMARK.json declares, with the declared units), the layer map, the
cross-process determinism check, and, with the harness built, that the same
seed gives the same inputs and another seed different ones.
"""
import json
import math
import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import steady  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def fake_proc(phase, scale=1.0):
    """One phase process's result, shaped like lucid_perfbench's output."""
    return {
        "phase": phase, "compiler": "GNU 12", "build_type": "Release",
        "threads": 4 if phase == "parallel" else 1,
        "setup_s": 3.0 * scale, "lifecycle_s": 2.9 * scale,
        "peak_rss_kb": 40000,
        "apps": [{"app": a, "compile_ms": 250.0, "build_ms": 252.0}
                 for a in run.APPS],
        # Steady walls equal the span sums fake_trace records.
        "packet": {"work": 1000000, "installs": 0, "wall_s": 0.3,
                   "apps": [{"app": a, "injected": 100000,
                             "executed": 100010, "recirculations": 7,
                             "delayed_enqueues": 3,
                             "fingerprint": "00ff"} for a in run.APPS]},
        "churn": {"work": 150000, "installs": 60000, "wall_s": 0.2933,
                  "passes": 150100, "apply_ns": list(range(1, 2001)),
                  "apply_points": 150200,
                  "max_queue_depth": 1, "modeled_busy_ns": 500000,
                  "fingerprint": "11aa"},
        "untraced_steady_s": 1.0, "traced_steady_s": 1.03,
        "attempted": 1000000, "failed": 0, "errors": [],
    }


def fake_trace(workload, phase):
    """Harness spans of one process: a lifecycle region holding every
    lifecycle layer per app, then the steady layers."""
    evs, t = [], 0.0

    def span(name, app, dur, n=0):
        nonlocal t
        evs.append({"name": name, "cat": workload, "ph": "X", "ts": t,
                    "dur": dur, "pid": 1, "tid": 1,
                    "args": {"n": n, "app": app}})
        t += dur

    start = t
    for a in run.APPS:
        for layer in ("frontend.parse", "sema", "ir.lower", "opt.layout"):
            span(layer, a, 100.0)
        span("native.build", a, 250000.0, 248000)
        span("native.first_packet", a, 50.0, 1)
    evs.insert(0, {"name": "lifecycle", "cat": workload, "ph": "X",
                   "ts": start, "dur": t - start, "pid": 1, "tid": 1,
                   "args": {"n": 10, "app": phase}})
    for a in run.APPS:
        span("native.emit", a, 200.0, 500)
        span("native.inject", a, 20000.0, 100000)
        span("native.run_until", a, 10000.0, 100010)
        span("native.kernel", a, 15000.0, 1 << 20)
    span("interp.schedule", "SFW", 3000.0, 60000)
    span("sim.run_until", "SFW", 290000.0, 150000)
    span("ctrl.submit", "SFW", 300.0, 61000)
    evs.append({"name": "pkt_in", "cat": "interp", "ph": "X", "ts": 5.0,
                "dur": 1.0, "pid": 1, "tid": 1})
    return evs


def fake_run(workload="burst"):
    res = {p: [fake_proc(p, 1.0 + 0.01 * r) for r in range(3)]
           for p in run.PHASES}
    traces = {p: [fake_trace(workload, p) for _ in range(3)]
              for p in run.PHASES}
    return res, traces


class Statistics(unittest.TestCase):
    def test_spread_uses_exclusive_quartiles(self):
        med, q1, q3, sp = steady.spread([1, 2, 3, 4, 5])
        self.assertEqual((med, q1, q3), (3, 1.5, 4.5))
        self.assertAlmostEqual(sp, 1.0)

    def test_spread_of_constant_sample_is_zero(self):
        self.assertEqual(steady.spread([2.0] * 10)[3], 0.0)

    def test_union_merges_overlaps(self):
        self.assertEqual(run.union_us([(5, 6), (0, 2), (1, 3), (2.5, 2.8)]),
                         4)
        self.assertEqual(run.union_us([]), 0)

    def test_by_app_sums_durations_and_counts(self):
        evs = [{"dur": 2.0, "args": {"app": "A", "n": 3}},
               {"dur": 1.0, "args": {"app": "A", "n": 1}},
               {"dur": 4.0, "args": {"app": "B", "n": 0}}]
        self.assertEqual(run.by_app(evs), {"A": [3.0, 4], "B": [4.0, 0]})

    def test_interpolated_percentile(self):
        self.assertEqual(run.percentile(range(1, 102), 50), 51)
        self.assertEqual(run.percentile(range(1, 102), 99), 100)
        self.assertEqual(run.percentile([0, 10], 50), 5)

    def test_rate_is_median_over_processes(self):
        procs = [{"s": {"work": w, "wall_s": 1.0}} for w in (1, 9, 3)]
        self.assertEqual(run.rate(procs, "s", "work"), 3)


class Contract(unittest.TestCase):
    """BENCHMARK.json against the limits the benchmark contract sets."""

    def setUp(self):
        self.bench = load_bench()

    def test_keys_and_command(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(p))
        inside = [a for a in b["command"] if os.path.exists(a)]
        for a in inside:
            self.assertTrue(any(a == p or a.startswith(p + "/")
                                for p in b["paths"]), a)
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        b = self.bench
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))
        self.assertLessEqual(os.path.getsize("BENCHMARK.json"), 64 * 1024)

    def test_workloads_match_run_py(self):
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]),
                         run.WORKLOADS)


class Schema(unittest.TestCase):
    """The metrics run.py prints are exactly the declared ones."""

    def setUp(self):
        self.bench = load_bench()

    def check(self, metrics, declared):
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            value, unit = metrics[m["name"]]
            self.assertEqual(unit, m["unit"], m["name"])
            self.assertIsInstance(value, (int, float))
            self.assertTrue(math.isfinite(value), m["name"])

    def test_end_to_end_metrics(self):
        res, _ = fake_run()
        metrics = run.end_to_end(res)
        self.check(metrics, self.bench["end_to_end"])
        for name, (value, _) in metrics.items():
            self.assertGreater(value, 0, name)

    def test_per_layer_metrics(self):
        res, traces = fake_run("trickle")
        metrics = run.per_layer(res, traces, "trickle", 9)
        self.check(metrics, self.bench["per_layer"])
        self.assertAlmostEqual(metrics["native.jit.compile_ms.SFW"][0], 248)
        self.assertAlmostEqual(metrics["native.jit.wait_ms"][0], 20.0)
        self.assertAlmostEqual(metrics["native.inject_ns_per_pkt"][0], 200)
        self.assertAlmostEqual(metrics["trace.coverage"][0], 1.0)

    def test_result_line_is_json_with_exact_keys(self):
        res, _ = fake_run()
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {k: {"value": v, "unit": u} for k, (
                               v, u) in run.end_to_end(res).items()}})
        parsed = json.loads(line)
        self.assertEqual(set(parsed),
                         {"correct", "attempted", "failed", "metrics"})

    def test_merged_trace_is_chrome_trace_json(self):
        _, traces = fake_run()
        os.makedirs(".bench_out", exist_ok=True)
        path = os.path.join(".bench_out", "selftest-trace.json")
        run.merge_traces(traces, path)
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        os.remove(path)
        self.assertEqual(len({e["pid"] for e in events}), 9)
        for e in events:
            self.assertTrue({"name", "ph", "ts", "pid", "tid"} <= set(e))

    def test_layer_map_covers_every_layer(self):
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)["layers"]
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        workloads = {w["name"] for w in self.bench["workloads"]}
        aggregates = {m["name"] for m in self.bench["per_layer"]
                      if m["name"].rsplit(".", 1)[-1] not in run.APPS}
        self.assertEqual(set(layers), aggregates)
        for name, entry in layers.items():
            self.assertTrue(set(entry["moves"]) <= e2e, name)
            self.assertTrue(set(entry["workloads"]) <= workloads, name)


class Determinism(unittest.TestCase):
    def test_identical_processes_pass(self):
        procs = [fake_proc(p) for p in run.PHASES]
        self.assertEqual(run.determinism_errors(procs), [])

    def test_a_differing_count_is_reported(self):
        procs = [fake_proc(p) for p in run.PHASES]
        procs[2]["packet"]["apps"][4]["executed"] += 1
        self.assertEqual(len(run.determinism_errors(procs)), 1)


class Inputs(unittest.TestCase):
    """Needs the harness binary; builds it like run.py does."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def inputs(self, workload, seed, stream=0):
        out = subprocess.run(
            [self.binary, "--inputs", "--workload", workload, "--seed",
             str(seed), "--stream", str(stream), "--seconds", "0.2"],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    def test_same_seed_same_inputs(self):
        for w in run.WORKLOADS:
            self.assertEqual(self.inputs(w, 7), self.inputs(w, 7))

    def test_other_seed_other_inputs(self):
        for w in run.WORKLOADS:
            a, b = self.inputs(w, 7), self.inputs(w, 8)
            self.assertNotEqual(a["churn"], b["churn"])
            for app in run.APPS:
                self.assertNotEqual(a["packet"][app], b["packet"][app], app)

    def test_stream_changes_only_churn_inputs(self):
        a, b = self.inputs("burst", 7, 0), self.inputs("burst", 7, 1)
        self.assertEqual(a["packet"], b["packet"])
        self.assertNotEqual(a["churn"], b["churn"])

    def test_workloads_differ(self):
        a, b = self.inputs("burst", 7), self.inputs("trickle", 7)
        for app in run.APPS:
            self.assertNotEqual(a["packet"][app], b["packet"][app], app)


if __name__ == "__main__":
    unittest.main()
