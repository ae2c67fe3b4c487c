"""Coalescing semantics: N identical concurrent requests cost one evaluation.

These tests pin the headline serving property end to end, using the engine's
own counters (``EngineStats``) and the process-wide diagonal cache counters
as ground truth — not just the service's bookkeeping about itself.
"""

import asyncio
import dataclasses

import numpy as np
import pytest

import repro
from repro.fur.cache import diagonal_cache
from repro.serve import QAOAService

N = 8
TERMS = [(0.5, (i, (i + 1) % N)) for i in range(N)]
GAMMAS = (0.12, 0.34)
BETAS = (0.56, 0.07)


def reference_value():
    sim = repro.simulator(N, terms=TERMS, backend="python")
    return float(sim.get_expectation_batch(np.array([GAMMAS]),
                                           np.array([BETAS]))[0])


class TestExactDuplicateCoalescing:
    def test_identical_requests_share_one_engine_evaluation(self):
        """16 identical concurrent submissions -> one engine batch with one
        row, one diagonal-cache resolution, and 15 coalesced hits."""
        diagonal_cache.clear()
        misses_before = diagonal_cache.stats.misses

        async def run():
            async with QAOAService(backend="python", window_ms=100.0,
                                   max_batch=16) as svc:
                values = await asyncio.gather(*[
                    svc.submit(N, TERMS, GAMMAS, BETAS) for _ in range(16)
                ])
                return values, svc.stats, svc.live_simulators()

        values, stats, live = asyncio.run(run())

        expected = reference_value()
        assert all(v == pytest.approx(expected, rel=1e-12) for v in values)

        # service accounting: one batch of 16, one evaluated row
        assert stats.requests == 16
        assert stats.completed == 16
        assert stats.batches == 1
        assert stats.coalesced_hits == 15
        assert stats.evaluated_rows == 1
        assert stats.batch_size_histogram() == {16: 1}

        # engine ground truth: the flush became exactly one (1, 2^n) batch
        (sim,) = live.values()
        engine = sim.engine.stats
        assert engine.rows_executed == 1
        assert engine.blocks_executed == 1

        # the problem's diagonal was resolved exactly once process-wide
        # (the service's construction plus the reference simulator share it)
        assert diagonal_cache.stats.misses == misses_before + 1

    def test_mixed_duplicates_group_per_schedule(self):
        """8 requests over 3 distinct schedules -> one batch, 3 rows."""
        rows = [GAMMAS, (0.9, 0.8), (0.7, 0.6)]
        plan = [rows[i] for i in (0, 0, 1, 0, 2, 1, 0, 2)]  # 4x, 2x, 2x

        async def run():
            async with QAOAService(backend="python", window_ms=100.0,
                                   max_batch=8) as svc:
                values = await asyncio.gather(*[
                    svc.submit(N, TERMS, g, BETAS) for g in plan
                ])
                return values, svc.stats, svc.live_simulators()

        values, stats, live = asyncio.run(run())

        sim = repro.simulator(N, terms=TERMS, backend="python")
        expected = sim.get_expectation_batch(
            np.array(rows), np.array([BETAS] * 3))
        lookup = {rows[i]: expected[i] for i in range(3)}
        for g, v in zip(plan, values):
            assert v == pytest.approx(lookup[g], rel=1e-12)

        assert stats.batches == 1
        assert stats.evaluated_rows == 3
        assert stats.coalesced_hits == 5
        (served_sim,) = live.values()
        assert served_sim.engine.stats.rows_executed == 3

    def test_sequential_duplicates_still_hit_caches(self):
        """Duplicates arriving in separate batches are separate evaluations
        (no cross-batch memoization of values) but reuse the compiled plan."""
        with repro.serve(backend="python") as svc:
            v1 = svc.submit_sync(N, TERMS, GAMMAS, BETAS)
            v2 = svc.submit_sync(N, TERMS, GAMMAS, BETAS)
            stats = svc.stats
            (sim,) = svc.live_simulators().values()
            plan_hits = sim.engine.stats.plan_cache_hits
        assert v1 == v2
        assert stats.batches == 2
        assert stats.coalesced_hits == 0
        assert plan_hits >= 1


class TestFailureFanOut:
    def test_engine_failure_fans_out_to_all_waiters(self):
        """A failing flush rejects every waiting future (duplicates included)
        and the service keeps serving afterwards."""

        async def run():
            async with QAOAService(backend="python", window_ms=100.0,
                                   max_batch=4) as svc:
                boom = RuntimeError("kernel exploded")

                def failing_evaluate(key, gammas, betas):
                    raise boom

                svc._evaluate = failing_evaluate
                results = await asyncio.gather(*[
                    svc.submit(N, TERMS, GAMMAS, BETAS) for _ in range(4)
                ], return_exceptions=True)

                # restore and verify the service still serves
                del svc._evaluate
                recovered = await svc.submit(N, TERMS, GAMMAS, BETAS)
                return results, recovered, svc.stats

        results, recovered, stats = asyncio.run(run())
        assert len(results) == 4
        assert all(isinstance(r, RuntimeError) for r in results)
        assert stats.failed == 4
        assert stats.completed == 1
        assert recovered == pytest.approx(reference_value(), rel=1e-12)


class TestRouteKeyHygiene:
    def test_route_key_is_hashable_and_frozen(self):
        key = repro.serve.RouteKey(fingerprint="abc", n_qubits=4,
                                   backend="python", mixer="x",
                                   precision="double", p=2)
        assert key in {key}
        with pytest.raises(dataclasses.FrozenInstanceError):
            key.p = 3
