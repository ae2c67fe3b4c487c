"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload opt-loop --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the workload untraced and prints every end-to-end
metric of ``BENCHMARK.json``.  ``--trace 1`` runs the workload twice with
half the work each, untraced and then traced, and prints every per-layer
metric: counters read from the library's stats objects, span self times
(``trace.self_s.*``) and the tracing overhead on each end-to-end metric
(``trace.overhead.*``, traced minus untraced, signed so that positive is
worse).  The spans are written to ``.bench_build/trace/``.

Before anything is timed the run probes copy bandwidth, warms the jit
kernel cache (``fur.jit.build_s``) and checks that ``backend="auto"``
resolves to the backend and rung the workload's entry in
``BENCHMARK.json`` records (``auto->backend/rung`` in its ``why``).  After
the timed region it checks the workload's outputs; the last line of
standard output is one JSON object, and the exit code is 0 only if every
correctness gate passed.  Everything the run writes (jit cache, temporary
files, traces) stays under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXPECTED_BACKEND = re.compile(r"auto->([a-z0-9_]+)/([a-z0-9_]+)")

# BLAS runs on one thread; this must happen before numpy is first imported.
# A threaded ``np.dot`` over one state (the expectation of every
# ``opt-loop`` call) leaves its workers spinning after it returns, and on
# two cores they compete with the simulator's own thread, which makes
# per-call times bimodal.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, wrong backend, ...)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path.name}: {exc}") from None


def prepare_environment() -> None:
    """Make ``src`` importable and keep every file the run writes in BUILD."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {src}")
    for sub in ("cache", "tmp", "trace"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    tempfile.tempdir = None
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchmarkError(f"imported repro from {repro.__file__}, "
                             f"not from {src}")


def expected_backend(spec: dict, workload: str) -> tuple[str, str]:
    for entry in spec["workloads"]:
        if entry["name"] == workload:
            match = EXPECTED_BACKEND.search(entry["why"])
            if match is None:
                raise BenchmarkError(f"BENCHMARK.json records no "
                                     f"auto->backend/rung for {workload}")
            return match.group(1), match.group(2)
    raise BenchmarkError(f"BENCHMARK.json has no workload {workload!r}")


def warm_and_resolve() -> dict:
    """Build or load the jit kernels and resolve ``backend="auto"``."""
    import repro
    from repro.fur.jit import kernels

    start = time.perf_counter()
    rung = kernels.active_path()
    build_s = time.perf_counter() - start
    backend = repro.fur.get_backend("auto", mixer="x", precision="double").name
    return {"auto_backend": backend, "jit_active_path": rung,
            "jit_build_s": build_s}


def run_workload(workload: str, size_name: str, seed: int, seconds: float,
                 trace: bool, reference_scale: float = 1.0) -> list:
    """The untraced phase and, with ``trace``, the traced phase after it."""
    from spans import Tracer
    from workloads import RUNNERS, SIZES, work_units

    size = SIZES[size_name][workload]
    runner = RUNNERS[workload]
    if not trace:
        return [runner(size, seed, work_units(workload, size, seconds),
                       reference_scale=reference_scale)]
    units = work_units(workload, size, seconds / 2)
    return [runner(size, seed, units, reference_scale=reference_scale),
            runner(size, seed, units, tracer=Tracer(),
                   reference_scale=reference_scale)]


def check_phases(phases: list, backend: str) -> None:
    """Run every phase's correctness gate, after all phases were measured."""
    for phase in phases:
        phase.gate_failures = phase.gate()
        if phase.backend != backend:
            phase.gate_failures.append(
                f"the workload ran on {phase.backend}, not {backend}")


def per_layer_metrics(spec: dict, phases: list, resolved: dict,
                      probes: list[dict]) -> dict[str, float]:
    untraced, traced = phases
    values = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
    values.update(traced.layers)
    values["fur.jit.build_s"] = resolved["jit_build_s"]
    for key in ("l3_copy_gbps", "dram_copy_gbps"):
        values[f"host.{key}"] = sum(p[key] for p in probes) / len(probes)
    values["fur.kernel.roofline_frac"] = (values["fur.kernel.compulsory_gbps"]
                                          / values["host.dram_copy_gbps"])
    for layer, self_s in traced.tracer.self_times().items():
        values[f"trace.self_s.{layer}"] = self_s
    for metric in spec["end_to_end"]:
        name = metric["name"]
        delta = traced.e2e[name] - untraced.e2e[name]
        values[f"trace.overhead.{name}"] = (
            delta if metric["better"] == "lower" else -delta)
    unknown = set(values) - {m["name"] for m in spec["per_layer"]}
    if unknown:
        raise BenchmarkError(f"per-layer values not in BENCHMARK.json: "
                             f"{sorted(unknown)}")
    return values


def report(workload: str, phases: list, spec: dict) -> None:
    """Human-readable lines: every end-to-end metric with its sample count."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for label, phase in zip(("untraced", "traced"), phases):
        print(f"[{workload}] {label} phase, backend {phase.backend}")
        for name, value in phase.e2e.items():
            print(f"  {name:<18} {value:>12.4f} {units[name]:<6} "
                  f"(n={phase.samples[name]})")
        for failure in phase.gate_failures:
            print(f"  GATE FAILED: {failure}")
        if not phase.gate_failures:
            print("  correctness gates: pass")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("opt-loop", "serve-coalesce"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-tests")
    return parser.parse_args(argv)


def main(argv=None, reference_scale: float = 1.0) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        prepare_environment()
        expected = expected_backend(spec, args.workload)
        import host

        probes = [host.probe_in_child(str(ROOT))]
        resolved = warm_and_resolve()
        record = {**host.host_record(), **resolved, "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "size": args.size}
        print(f"host: {json.dumps(record)}")
        print(f"probe at start: {json.dumps(probes[0])}")
        got = (resolved["auto_backend"], resolved["jit_active_path"])
        if got != expected:
            raise BenchmarkError(
                f"backend='auto' resolved to {got[0]} on jit rung {got[1]}, "
                f"but BENCHMARK.json records {expected[0]}/{expected[1]} for "
                f"{args.workload}; the numbers would not be comparable")
        phases = run_workload(args.workload, args.size, args.seed,
                              args.seconds, bool(args.trace), reference_scale)
        check_phases(phases, expected[0])
        probes.append(host.probe_in_child(str(ROOT)))
        print(f"probe at end: {json.dumps(probes[1])}")
        report(args.workload, phases, spec)
        if args.trace:
            per_layer = per_layer_metrics(spec, phases, resolved, probes)
            metrics = {m["name"]: {"value": per_layer[m["name"]],
                                   "unit": m["unit"]}
                       for m in spec["per_layer"]}
            path = BUILD / "trace" / f"{args.workload}-seed{args.seed}.json"
            phases[1].tracer.dump(path, {"host": record, "probes": probes,
                                         "per_layer": per_layer})
            print(f"spans written to {path.relative_to(ROOT)}")
        else:
            metrics = {m["name"]: {"value": phases[0].e2e[m["name"]],
                                   "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = not any(phase.gate_failures for phase in phases)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
