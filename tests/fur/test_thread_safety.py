"""Thread-safety of the caches and evaluation underneath the serving layer.

The serving layer executes engine batches on a thread pool, so the
process-wide diagonal cache, the per-simulator plan cache and the lazily
built derived tables must tolerate concurrent access.  The diagonal cache is
additionally *single-flight*: concurrent misses for the same problem must
cost exactly one precomputation.  Concurrent evaluations on one simulator
must return the sequential values on every full-tier backend.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.fur import available_backends
from repro.fur.cache import DiagonalCache
from repro.problems import labs
from repro.problems.terms import validate_terms

N = 8
TERMS = validate_terms([(0.5, (i, (i + 1) % N)) for i in range(N)], N)
N_THREADS = 8


def run_in_threads(fn, n_threads=N_THREADS):
    """Run ``fn(worker_index)`` in n threads after a common barrier."""
    barrier = threading.Barrier(n_threads)

    def task(i):
        barrier.wait()
        return fn(i)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return [f.result(30) for f in [pool.submit(task, i)
                                       for i in range(n_threads)]]


class TestDiagonalCacheSingleFlight:
    def test_concurrent_misses_cost_one_precomputation(self):
        cache = DiagonalCache()
        results = run_in_threads(lambda i: cache.get(TERMS, N))
        # one miss (the single precomputation), everyone else waited and hit
        assert cache.stats.misses == 1
        assert cache.stats.hits == N_THREADS - 1
        # every thread got the same shared read-only array
        first = results[0]
        assert all(r is first for r in results)
        assert not first.flags.writeable

    def test_unrelated_problems_precompute_concurrently(self):
        cache = DiagonalCache()
        problems = [validate_terms([(0.5, (i, (i + 1) % N))
                                    for i in range(N - k)], N)
                    for k in range(N_THREADS)]
        run_in_threads(lambda i: cache.get(problems[i], N))
        assert cache.stats.misses == N_THREADS
        assert cache.stats.hits == 0
        assert len(cache) == N_THREADS

    def test_oversize_diagonal_not_cached_but_all_threads_served(self):
        # budget below one n=8 diagonal (2^8 * 8 bytes): never stored
        cache = DiagonalCache(max_bytes=64)
        results = run_in_threads(lambda i: cache.get(TERMS, N))
        assert len(cache) == 0
        assert cache.stats.misses == N_THREADS  # each waiter recomputes
        reference = np.asarray(results[0])
        for r in results:
            np.testing.assert_array_equal(r, reference)

    def test_single_flight_leaves_no_pending_entries(self):
        cache = DiagonalCache()
        run_in_threads(lambda i: cache.get(TERMS, N))
        assert cache._pending == {}


class TestEnginePlanCache:
    def test_concurrent_plan_requests_compile_once(self):
        sim = repro.simulator(N, terms=TERMS, backend="python")
        plans = run_in_threads(lambda i: sim.engine.plan(4))
        assert sim.engine.stats.plan_compiles == 1
        assert sim.engine.stats.plan_cache_hits == N_THREADS - 1
        first = plans[0]
        assert all(p is first for p in plans)
        assert sim.engine.plan_cache_size() == 1

    @pytest.mark.parametrize("backend",
                             available_backends(capability="statevector"))
    def test_concurrent_batched_evaluation_is_consistent(self, backend):
        """Concurrent calls with *distinct* schedules return sequential values.

        Providers keep per-simulator scratch (workspaces, gather and swap
        buffers, shard layouts); identical schedules in every thread would
        hide a shared-scratch race, so each thread evaluates its own.
        """
        n, p = 9, 3
        sim = repro.simulator(n, terms=labs.get_terms(n), backend=backend)
        rng = np.random.default_rng(11)
        gammas = rng.uniform(0, 1, size=(N_THREADS, 2, p))
        betas = rng.uniform(0, 1, size=(N_THREADS, 2, p))
        expected_batch = [sim.get_expectation_batch(g, b)
                          for g, b in zip(gammas, betas)]
        expected_single = [sim.get_expectation(sim.simulate_qaoa(g[0], b[0]))
                           for g, b in zip(gammas, betas)]

        def work(i):
            out = []
            for _ in range(2):
                out.append(sim.get_expectation_batch(gammas[i], betas[i]))
                out.append(sim.get_expectation(
                    sim.simulate_qaoa(gammas[i][0], betas[i][0])))
            return out

        for i, values in enumerate(run_in_threads(work)):
            for batch, single in zip(values[::2], values[1::2]):
                np.testing.assert_allclose(batch, expected_batch[i],
                                           rtol=1e-10, atol=1e-10)
                assert single == pytest.approx(expected_single[i],
                                               rel=1e-10, abs=1e-10)
        # every evaluation after the first compile hit the cached plans
        assert sim.engine.stats.plan_compiles == 2  # reduce and state plans


class TestLazyDerivedCaches:
    def test_concurrent_lazy_initialization_builds_once(self):
        sim = repro.simulator(N, terms=TERMS, backend="python")
        costs = run_in_threads(lambda i: sim._default_costs())
        first = costs[0]
        assert all(c is first for c in costs)

    def test_concurrent_phase_table_resolution_is_shared(self):
        sim = repro.simulator(N, terms=TERMS, backend="python")
        tables = run_in_threads(lambda i: sim._diagonal_phase_table())
        first = tables[0]
        assert all(t is first for t in tables)

    def test_engine_property_returns_one_instance(self):
        sim = repro.simulator(N, terms=TERMS, backend="python")
        engines = run_in_threads(lambda i: sim.engine)
        first = engines[0]
        assert all(e is first for e in engines)
