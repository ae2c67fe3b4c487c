"""The benchmark's workloads, their seeded inputs and correctness gates.

Every workload is a closed loop driven from one thread: each caller waits
for its reply before sending the next request.  The work a run does is
fixed by ``--seed`` and ``--seconds`` alone (the seconds are turned into a
count of work units with the nominal unit costs below), so every counter a
run reports repeats exactly across runs with the same arguments.

* ``opt-loop`` -- COBYLA through ``minimize_qaoa`` on LABS n=18, p=16,
  ``backend="auto"``; one client, one schedule per call.  The per-backend
  single-schedule path (``simulate_qaoa`` + ``get_expectation``), which
  bypasses the execution engine.
* ``serve-coalesce`` -- four MaxCut n=16, p=4 problems on a default
  ``QAOAService``; 32 coroutine clients, eight per problem, in pairs that
  submit the same schedule stream, so every flush holds 8 requests and 4
  unique rows.
"""

from __future__ import annotations

import asyncio
import dataclasses
import resource
import statistics
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.fur import diagonal_cache
from repro.fur.cache import problem_fingerprint
from repro.problems import labs, maxcut
from repro.qaoa import (QAOAObjective, get_qaoa_objective, minimize_qaoa,
                        tqa_initialization)
from repro.serve import QAOAService

from spans import Tracer

#: Relative agreement required between the benchmarked backend and the
#: ``python`` reference backend.
REFERENCE_RTOL = 1e-9
#: Relative agreement required between a served value and a direct
#: ``get_expectation_batch`` call for the same schedule.
SERVE_RTOL = 1e-12
#: COBYLA tolerance: tiny, so the optimizer always spends its whole budget.
COBYLA_TOL = 1e-12
#: Bytes per amplitude of a double-precision state.
AMPLITUDE_BYTES = 16


# ---------------------------------------------------------------------------
# Sizes and work plans.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptLoopSize:
    n: int
    p: int
    budget: int          # objective evaluations per minimize_qaoa call
    setup_reps: int
    eval_s: float        # nominal seconds per evaluation (reference host)


@dataclass(frozen=True)
class ServeSize:
    n: int
    p: int
    problems: int
    clients_per_problem: int
    stream_len: int      # distinct schedules in one pair's stream
    setup_reps: int
    requests_per_s: float  # nominal served requests per second


#: Full sizes (the benchmark) and tiny sizes (the self-tests).  Nominal unit
#: costs were measured on the reference host: a 2-core Xeon with a 105 MiB
#: L3, the jit backend on its compiled-C rung.
SIZES = {
    "full": {
        "opt-loop": OptLoopSize(n=18, p=16, budget=60, setup_reps=5,
                                eval_s=0.25),
        "serve-coalesce": ServeSize(n=16, p=4, problems=4,
                                    clients_per_problem=8, stream_len=24,
                                    setup_reps=15, requests_per_s=620.0),
    },
    "tiny": {
        "opt-loop": OptLoopSize(n=8, p=3, budget=12, setup_reps=2,
                                eval_s=0.26),
        "serve-coalesce": ServeSize(n=8, p=2, problems=4,
                                    clients_per_problem=8, stream_len=3,
                                    setup_reps=2, requests_per_s=620.0),
    },
}


def setup_split(reps: int) -> tuple[int, int]:
    """Set-ups to run before and after the measured region.

    The host's speed drifts over tens of seconds, so set-ups run back to
    back would all sample one moment of it; the median of set-ups on both
    sides of the measured region samples two.
    """
    return reps - reps // 2, reps // 2


def work_units(workload: str, size, seconds: float) -> int:
    """Work units that take about ``seconds`` on the reference host.

    A unit is one ``minimize_qaoa`` call (``opt-loop``) or one request per
    client (``serve-coalesce``).
    """
    if workload == "opt-loop":
        return max(1, round(seconds / (size.budget * size.eval_s)))
    clients = size.problems * size.clients_per_problem
    return max(size.stream_len, round(seconds * size.requests_per_s / clients))


# ---------------------------------------------------------------------------
# Seeded inputs.  The library receives only what these functions generate.
# ---------------------------------------------------------------------------

def opt_loop_inputs(size: OptLoopSize, seed: int, restarts: int) -> dict:
    """LABS terms and one TQA start per restart (seeded annealing step)."""
    rng = np.random.default_rng([seed, 1])
    starts = [tqa_initialization(size.p, total_time=size.p * dt)
              for dt in rng.uniform(0.6, 0.9, restarts)]
    return {"terms": labs.get_terms(size.n), "starts": starts}


def serve_inputs(size: ServeSize, seed: int) -> dict:
    """Seeded graphs and one schedule stream per client pair.

    A pair's stream is an optimizer trajectory that restarts from a shared
    start: ``stream_len`` schedules of a random walk, replayed in a cycle.
    """
    rng = np.random.default_rng([seed, 3])
    problems = [maxcut.get_maxcut_terms(
        maxcut.random_regular_graph(3, size.n, seed=int(rng.integers(2**31))))
        for _ in range(size.problems)]
    streams = {}
    for pi in range(size.problems):
        for pair in range(size.clients_per_problem // 2):
            point = rng.uniform(0.1, 0.6, 2 * size.p)
            stream = []
            for _ in range(size.stream_len):
                stream.append((tuple(map(float, point[:size.p])),
                               tuple(map(float, point[size.p:]))))
                point = point + 0.02 * rng.standard_normal(2 * size.p)
            streams[pi, pair] = stream
    return {"problems": problems, "streams": streams}


# ---------------------------------------------------------------------------
# Phase results.
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    """What one pass over a workload measured.

    ``e2e`` maps each end-to-end metric to its value, ``samples`` to its
    sample count; ``layers`` holds per-layer values (filled only when the
    phase was traced).  ``gate`` computes the references and returns the
    correctness failures; it runs after every phase has been measured, so
    that its reference simulators never count towards a later phase's peak
    resident set size.
    """

    e2e: dict[str, float]
    samples: dict[str, int]
    attempted: int
    failed: int
    gate: Callable[[], list[str]]
    gate_failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    backend: str = ""
    tracer: Tracer | None = None


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _span(tracer: Tracer | None, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


def _rel_close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * abs(reference)


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _latency_ms(latency_s: list[float]) -> dict[str, float]:
    """Median and 90th percentile of per-call latencies, in milliseconds."""
    return {"latency_p50_ms": statistics.median(latency_s) * 1e3,
            "latency_p90_ms": statistics.quantiles(latency_s, n=10)[-1] * 1e3}


#: Per-layer metric -> the EngineStats counter it sums over simulators.
ENGINE_COUNTERS = {
    "fur.engine.compile_s": "compile_time_s",
    "fur.engine.plan_compiles": "plan_compiles",
    "fur.engine.plan_cache_hits": "plan_cache_hits",
    "fur.engine.rows_executed": "rows_executed",
    "fur.engine.blocks_executed": "blocks_executed",
    "fur.engine.fused_ops_executed": "fused_ops_executed",
    "fur.engine.ops_eliminated": "ops_eliminated",
    "fur.engine.looped_evaluations": "looped_evaluations",
}


def _engine_layers(stats: list) -> dict[str, float]:
    return {name: sum(getattr(s, attr) for s in stats)
            for name, attr in ENGINE_COUNTERS.items()}


def _kernel_layers(row_layer_s: list[float], n: int) -> dict[str, float]:
    """Per row-layer time and the bandwidth of its compulsory traffic.

    One layer must read and write the whole state once, so its computed
    compulsory traffic is ``2 * 16 * 2^n`` bytes.
    """
    if not row_layer_s:
        return {"fur.kernel.row_layer_ms": 0.0, "fur.kernel.compulsory_gbps": 0.0}
    t = statistics.median(row_layer_s)
    return {"fur.kernel.row_layer_ms": t * 1e3,
            "fur.kernel.compulsory_gbps":
                2 * AMPLITUDE_BYTES * 2**n / t / 1e9}


def _setup_layers(construct_s: list[float], first_s: list[float],
                  n: int) -> dict[str, float]:
    construct = _p50(construct_s)
    return {
        "fur.construct_s": construct,
        "fur.diagonal.mstates_per_s": 2**n / construct / 1e6 if construct else 0.0,
        "fur.engine.first_call_s": _p50(first_s),
        "fur.cache.hits": diagonal_cache.stats.hits,
        "fur.cache.misses": diagonal_cache.stats.misses,
    }


# ---------------------------------------------------------------------------
# Correctness gates: each returns the list of failures (empty when correct).
# ---------------------------------------------------------------------------

def check_opt_loop(records: list[dict], budget: int, reference) -> list[str]:
    """Every ``minimize_qaoa`` call spent its budget, and its best value
    matches ``reference(theta)`` and is no worse than its first value."""
    failures = []
    for k, rec in enumerate(records):
        if rec["evaluations"] != budget:
            failures.append(f"opt-loop restart {k}: {rec['evaluations']} "
                            f"evaluations, budget {budget}")
        ref = reference(rec["theta"])
        if not _rel_close(rec["best"], ref, REFERENCE_RTOL):
            failures.append(f"opt-loop restart {k}: best {rec['best']!r} != "
                            f"python reference {ref!r}")
        if rec["best"] > rec["first"]:
            failures.append(f"opt-loop restart {k}: best {rec['best']!r} > "
                            f"first value {rec['first']!r}")
    return failures


def check_serve(served: list[tuple], direct: dict, counters: dict) -> list[str]:
    """Every served value equals the direct value for its schedule, and no
    request was shed, rejected or failed."""
    failures = [f"serve-coalesce: {name} = {counters[name]}"
                for name in ("shed", "rejected", "failed") if counters[name]]
    wrong = [(key, value) for key, value in served
             if not _rel_close(value, direct[key], SERVE_RTOL)]
    if wrong:
        key, value = wrong[0]
        failures.append(f"serve-coalesce: {len(wrong)} served values differ "
                        f"from direct get_expectation_batch, e.g. {value!r} "
                        f"vs {direct[key]!r}")
    return failures


# ---------------------------------------------------------------------------
# opt-loop
# ---------------------------------------------------------------------------

@dataclass
class TimedObjective(QAOAObjective):
    """A ``QAOAObjective`` that times every call, and traces it if asked."""

    call_s: list = field(default_factory=list)
    tracer: Tracer | None = None

    def __call__(self, theta):
        start = time.perf_counter()
        with _span(self.tracer, "QAOAObjective.__call__"):
            value = super().__call__(theta)
        self.call_s.append(time.perf_counter() - start)
        return value


def _timed(objective: QAOAObjective, tracer: Tracer | None) -> TimedObjective:
    fields = {f.name: getattr(objective, f.name)
              for f in dataclasses.fields(QAOAObjective)}
    timed = TimedObjective(**fields, tracer=tracer)
    if tracer is not None:
        sim = timed.simulator
        sim.simulate_qaoa = tracer.wrap("simulate_qaoa", sim.simulate_qaoa)
        sim.get_expectation = tracer.wrap("get_expectation", sim.get_expectation)
    return timed


def run_opt_loop(size: OptLoopSize, seed: int, restarts: int,
                 tracer: Tracer | None = None,
                 reference_scale: float = 1.0) -> Phase:
    inputs = opt_loop_inputs(size, seed, restarts)
    terms, starts = inputs["terms"], inputs["starts"]
    theta0 = np.concatenate(starts[0])
    setup_s, construct_s, first_s = [], [], []

    def set_up() -> TimedObjective:
        diagonal_cache.clear()
        with _span(tracer, "setup"):
            t0 = time.perf_counter()
            with _span(tracer, "get_qaoa_objective"):
                objective = get_qaoa_objective(size.n, size.p, terms,
                                               backend="auto")
            t1 = time.perf_counter()
            objective = _timed(objective, tracer)
            objective(theta0)
            t2 = time.perf_counter()
        setup_s.append(t2 - t0)
        construct_s.append(t1 - t0)
        first_s.append(t2 - t1)
        return objective

    before, after = setup_split(size.setup_reps)
    for _ in range(before):
        objective = set_up()
    objective.call_s.clear()

    records, walls = [], []
    with _span(tracer, "measure"):
        for g0, b0 in starts[:restarts]:
            start = time.perf_counter()
            with _span(tracer, "minimize_qaoa"):
                result = minimize_qaoa(objective, g0, b0, method="COBYLA",
                                       maxiter=size.budget, tol=COBYLA_TOL)
            walls.append(time.perf_counter() - start)
            records.append({"evaluations": result.n_evaluations,
                            "best": result.value, "first": result.history[0],
                            "theta": np.concatenate([result.gammas,
                                                     result.betas])})
    peak = peak_rss_mib()
    for _ in range(after):
        set_up()
    evaluations = sum(r["evaluations"] for r in records)

    def gate():
        reference = get_qaoa_objective(size.n, size.p, terms, backend="python")
        return check_opt_loop(records, size.budget,
                              lambda theta: reference(theta) * reference_scale)

    phase = Phase(
        e2e={"setup_s": statistics.median(setup_s),
             "schedules_per_s": evaluations / sum(walls),
             **_latency_ms(objective.call_s),
             "peak_rss_mib": peak},
        samples={"setup_s": len(setup_s), "schedules_per_s": evaluations,
                 "latency_p50_ms": len(objective.call_s),
                 "latency_p90_ms": len(objective.call_s), "peak_rss_mib": 1},
        attempted=evaluations, failed=0, gate=gate,
        backend=objective.simulator.backend_name, tracer=tracer)
    if tracer is not None:
        phase.layers.update(_setup_layers(construct_s, first_s, size.n))
        phase.layers.update(_engine_layers([objective.simulator.engine.stats]))
        simulate = tracer.durations("simulate_qaoa")
        phase.layers.update(_kernel_layers([t / size.p for t in simulate], size.n))
        self_s = tracer.self_times()
        phase.layers.update({
            "fur.simulate_qaoa_p50_ms": _p50(simulate) * 1e3,
            "fur.get_expectation_p50_ms":
                _p50(tracer.durations("get_expectation")) * 1e3,
            "qaoa.evaluations": evaluations,
            "qaoa.optimizer_self_frac":
                self_s["minimize_qaoa"] / sum(tracer.durations("minimize_qaoa")),
        })
    return phase


# ---------------------------------------------------------------------------
# serve-coalesce
# ---------------------------------------------------------------------------

def run_serve(size: ServeSize, seed: int, steps: int,
              tracer: Tracer | None = None,
              reference_scale: float = 1.0) -> Phase:
    inputs = serve_inputs(size, seed)
    problems, streams = inputs["problems"], inputs["streams"]
    pairs = size.clients_per_problem // 2
    fingerprints = {problem_fingerprint(terms, size.n): pi
                    for pi, terms in enumerate(problems)}
    #: (problem, schedule) -> ids of the submit spans waiting on it
    inflight: dict[tuple, list[int]] = defaultdict(list)
    served: list[tuple] = []
    latency_s: list[float] = []

    async def request(svc, pi, schedule):
        gammas, betas = schedule
        if tracer is None:
            return await svc.submit(size.n, problems[pi], gammas, betas)
        rid = tracer.new_id()
        waiting = inflight[pi, schedule]
        waiting.append(rid)
        try:
            with tracer.span("QAOAService.submit", span_id=rid):
                return await svc.submit(size.n, problems[pi], gammas, betas)
        finally:
            waiting.remove(rid)

    async def client(svc, pi, pair):
        stream = streams[pi, pair]
        for k in range(steps):
            schedule = stream[k % len(stream)]
            start = time.perf_counter()
            value = await request(svc, pi, schedule)
            latency_s.append(time.perf_counter() - start)
            served.append(((pi, schedule), value))

    def traced_engine(pi, method):
        def get_expectation_batch(gammas, betas, *args, **kwargs):
            links = []
            for g, b in zip(gammas, betas):
                links.extend(inflight.get(
                    (pi, (tuple(map(float, g)), tuple(map(float, b)))), ()))
            with tracer.span("get_expectation_batch", links=tuple(links),
                             rows=len(gammas)):
                return method(gammas, betas, *args, **kwargs)
        return get_expectation_batch

    async def set_up(setup_s: list) -> QAOAService:
        diagonal_cache.clear()
        with _span(tracer, "setup"):
            start = time.perf_counter()
            svc = QAOAService()
            await asyncio.gather(*[request(svc, pi, streams[pi, 0][0])
                                   for pi in range(size.problems)])
            setup_s.append(time.perf_counter() - start)
        return svc

    async def main():
        setup_s, svc = [], None
        before, after = setup_split(size.setup_reps)
        for _ in range(before):
            if svc is not None:
                await svc.aclose()
            svc = await set_up(setup_s)
        sims = svc.live_simulators()
        if tracer is not None:
            for key, sim in sims.items():
                sim.get_expectation_batch = traced_engine(
                    fingerprints[key.fingerprint], sim.get_expectation_batch)
        served.clear()
        latency_s.clear()
        with _span(tracer, "measure"):
            start = time.perf_counter()
            await asyncio.gather(*[client(svc, pi, c // 2)
                                   for pi in range(size.problems)
                                   for c in range(size.clients_per_problem)])
            elapsed = time.perf_counter() - start
        peak = peak_rss_mib()
        stats = svc.stats.as_dict()
        engine = [sim.engine.stats for sim in sims.values()]
        await svc.aclose()
        for _ in range(after):
            await (await set_up(setup_s)).aclose()
        return setup_s, elapsed, stats, engine, sims, peak

    setup_s, elapsed, stats, engine, sims, peak = asyncio.run(main())
    requests = len(served)

    def gate():
        direct = {}
        for pi, terms in enumerate(problems):
            schedules = sorted({streams[pi, pair][k % size.stream_len]
                                for pair in range(pairs)
                                for k in range(min(steps, size.stream_len))})
            sim = repro.simulator(size.n, terms=terms, backend="auto")
            values = sim.get_expectation_batch(
                np.array([g for g, _ in schedules]),
                np.array([b for _, b in schedules]))
            direct.update({(pi, s): float(v) * reference_scale
                           for s, v in zip(schedules, values)})
        return check_serve(served, direct, stats)

    phase = Phase(
        e2e={"setup_s": statistics.median(setup_s),
             "schedules_per_s": requests / elapsed,
             **_latency_ms(latency_s),
             "peak_rss_mib": peak},
        samples={"setup_s": len(setup_s), "schedules_per_s": requests,
                 "latency_p50_ms": requests, "latency_p90_ms": requests,
                 "peak_rss_mib": 1},
        attempted=requests,
        failed=stats["failed"] + stats["shed"] + stats["rejected"],
        gate=gate,
        backend=next(iter(sims.values())).backend_name, tracer=tracer)
    if tracer is not None:
        phase.layers.update(_setup_layers([], setup_s, size.n))
        phase.layers.update(_engine_layers(engine))
        spans = [s for s in tracer.spans if s.name == "get_expectation_batch"]
        phase.layers["fur.engine.call_p50_ms"] = _p50(
            [s.duration for s in spans]) * 1e3
        phase.layers.update(_kernel_layers(
            [s.duration / (s.attrs["rows"] * size.p) for s in spans], size.n))
        completed = stats["completed"]
        phase.layers.update({
            "serve.queue_wait_p50_ms": stats["queue_wait"]["p50_s"] * 1e3,
            "serve.execution_p50_ms": stats["execution"]["p50_s"] * 1e3,
            "serve.batches": stats["batches"],
            "serve.batch_rows_mean": stats["evaluated_rows"] / stats["batches"],
            "serve.coalesced_frac": stats["coalesced_hits"] / completed,
            "serve.shed": stats["shed"],
            "serve.rejected": stats["rejected"],
            "serve.failed": stats["failed"],
            "serve.simulators_constructed": stats["simulators_constructed"],
            "serve.simulators_evicted": stats["simulators_evicted"],
        })
    return phase


#: Workload name -> runner ``(size, seed, units, tracer, reference_scale)``.
#: ``reference_scale`` multiplies the reference values the gates compare
#: against; the self-tests set it to inject a wrong reference.
RUNNERS = {
    "opt-loop": run_opt_loop,
    "serve-coalesce": run_serve,
}
