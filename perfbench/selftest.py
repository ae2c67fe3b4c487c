"""Self-tests of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

They check that every metric name in ``BENCHMARK.json`` is legal and has a
unit, that a run refuses to measure when ``backend="auto"`` resolves to
another backend than recorded, that two tiny runs with the same seed report
identical counts, that each correctness gate fires on an injected wrong
reference value, and that span self times subtract each child or linked
span once.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = ("opt-loop", "serve-coalesce")
#: Per-layer metrics that are counts or ratios of counts.
COUNT_LIKE = ("serve.batch_rows_mean", "serve.coalesced_frac")


def tiny_args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "7", "--seconds", "2",
            "--trace", str(trace), "--size", "tiny"]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def setUpModule():
    run.prepare_environment()


class SpecTest(unittest.TestCase):
    def test_metric_names_are_legal_and_have_units(self):
        spec = run.load_spec()
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in metrics:
            self.assertTrue(NAME.fullmatch(metric["name"]), metric["name"])
            self.assertTrue(UNIT.fullmatch(metric["unit"]), metric)
            self.assertIn(metric["better"], ("higher", "lower"))
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower", "bound": max(
                                      m["bound"] for m in spec["end_to_end"])}])

    def test_every_workload_records_its_backend(self):
        spec = run.load_spec()
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), WORKLOADS)
        for workload in WORKLOADS:
            self.assertEqual(len(run.expected_backend(spec, workload)), 2)

    def test_run_fails_when_auto_resolves_elsewhere(self):
        # Forcing the jit ladder down to numpy makes ``auto`` resolve to ``c``.
        env = dict(os.environ, REPRO_JIT_PATH="numpy")
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), *tiny_args("opt-loop", 0)],
            cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=300)
        self.assertEqual(out.returncode, 2)
        self.assertIn("resolved to c", out.stderr)
        self.assertNotIn('"correct"', out.stdout)


class CountsRepeatTest(unittest.TestCase):
    def test_same_seed_gives_identical_counts(self):
        spec = run.load_spec()
        counts = [m["name"] for m in spec["per_layer"]
                  if m["unit"] == "count" or m["name"] in COUNT_LIKE]
        for workload in WORKLOADS:
            runs = []
            for _ in range(2):
                out = subprocess.run(
                    [sys.executable, str(HERE / "run.py"),
                     *tiny_args(workload, 1)],
                    cwd=run.ROOT, capture_output=True, text=True, timeout=300)
                self.assertEqual(out.returncode, 0, out.stderr)
                metrics = last_json(out.stdout)["metrics"]
                runs.append({name: metrics[name]["value"] for name in counts})
            with self.subTest(workload=workload):
                self.assertEqual(runs[0], runs[1])


class SelfTimeTest(unittest.TestCase):
    def test_children_and_links_are_subtracted_once(self):
        from spans import Span, Tracer

        tracer = Tracer()
        tracer.spans = [
            Span(1, None, "outer", 0.0, 10.0),
            Span(2, 1, "inner", 1.0, 4.0),
            Span(3, 1, "inner", 3.0, 5.0),
            Span(4, None, "request", 0.0, 6.0),
            Span(5, None, "engine", 2.0, 8.0, links=(4, 4)),
        ]
        self.assertEqual(tracer.self_times(), {
            "outer": 6.0, "inner": 5.0, "request": 2.0, "engine": 6.0})


class GateTest(unittest.TestCase):
    def test_gates_fire_on_a_wrong_reference(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = run.main(tiny_args(workload, 0),
                                    reference_scale=1 + 1e-6)
                self.assertEqual(code, 1)
                self.assertFalse(last_json(stdout.getvalue())["correct"])
                self.assertIn("GATE FAILED", stdout.getvalue())

    def test_budget_and_admission_gates_fire(self):
        from workloads import check_opt_loop, check_serve

        record = {"evaluations": 10, "best": 1.0, "first": 2.0, "theta": None}
        self.assertEqual(check_opt_loop([record], 10, lambda theta: 1.0), [])
        self.assertEqual(len(check_opt_loop([dict(record, evaluations=9)], 10,
                                            lambda theta: 1.0)), 1)
        self.assertEqual(len(check_opt_loop([dict(record, best=3.0)], 10,
                                            lambda theta: 3.0)), 1)
        served = [(("p", "s"), 1.0)]
        quiet = {"shed": 0, "rejected": 0, "failed": 0}
        self.assertEqual(check_serve(served, {("p", "s"): 1.0}, quiet), [])
        for name in quiet:
            self.assertEqual(len(check_serve(served, {("p", "s"): 1.0},
                                             dict(quiet, **{name: 1}))), 1)


if __name__ == "__main__":
    unittest.main()
