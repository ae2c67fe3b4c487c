"""Tests for the shared layered execution-plan engine (repro.fur.engine).

Covers

* plan-cache hit/invalidate semantics: repeated evaluation at the same
  ``(p, n_trotters, budget)`` reuses the compiled plan, any change (including
  the simulator precision) recompiles,
* engine parity against the independent per-vector reference of
  :mod:`repro.testing` across backends x mixers x precisions,
* the distributed fused path (``gpumpi``/``cusvmpi`` kernel providers over
  per-rank slice blocks, and the 2-rank SPMD batched program),
* engine statistics, the one-row ``simulate_qaoa`` call and kwarg
  validation,
* the read-only guarantees of ``get_cost_diagonal()`` and the plan/phase
  caches (the PR 1 shared-diagonal mutation hazard).
"""

import numpy as np
import pytest

import repro
from repro.fur import available_backends, compress_diagonal, get_backend
from repro.fur.mpi.spmd import run_distributed_qaoa_batch
from repro.problems import labs
from repro.testing import reference_expectation, reference_state

BACKENDS = ["python", "c", "gpu"]
MIXERS = ["x", "xyring", "xycomplete"]
PRECISIONS = ["double", "single"]
N = 6


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


class TestPlanCompilation:
    def test_plan_records_its_shape(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        plan = sim.engine.plan(3, reduce=True)
        assert plan.p == 3 and plan.reduce and plan.n_trotters == 1
        assert plan.mixer == "x" and plan.precision == "double"
        assert plan.memory_budget is None
        assert plan.compile_time_s >= 0.0
        assert plan.key == (3, 1, None, True, "double")

    def test_simulate_plan_has_no_reduction(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        plan = sim.engine.plan(2, reduce=False)
        assert not plan.reduce
        assert plan is not sim.engine.plan(2, reduce=True)

    def test_plan_carries_phase_table(self):
        # LABS diagonals are highly repetitive -> the table must resolve.
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        plan = sim.engine.plan(2)
        assert plan.phase_tables is not None
        assert plan.phase_tables is sim._diagonal_phase_table()

    def test_invalid_plan_arguments(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        with pytest.raises(ValueError, match="p must be positive"):
            sim.engine.plan(0)
        with pytest.raises(ValueError, match="n_trotters"):
            sim.engine.plan(2, n_trotters=0)


class TestPlanCacheSemantics:
    def test_same_shape_hits_cache(self, rng):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="c")
        gb = rng.uniform(0, 1, (4, 3))
        bb = rng.uniform(0, 1, (4, 3))
        sim.get_expectation_batch(gb, bb)
        compiles = sim.engine.stats.plan_compiles
        sim.get_expectation_batch(gb, bb)
        sim.get_expectation_batch(gb, bb)
        assert sim.engine.stats.plan_compiles == compiles
        assert sim.engine.stats.plan_cache_hits >= 2
        # identical key -> the very same plan object
        assert sim.engine.plan(3) is sim.engine.plan(3)

    def test_p_change_recompiles(self, rng):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        sim.get_expectation_batch(rng.uniform(0, 1, (2, 2)), rng.uniform(0, 1, (2, 2)))
        before = sim.engine.stats.plan_compiles
        sim.get_expectation_batch(rng.uniform(0, 1, (2, 4)), rng.uniform(0, 1, (2, 4)))
        assert sim.engine.stats.plan_compiles == before + 1

    def test_n_trotters_change_recompiles(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python",
                              mixer="xyring")
        p1 = sim.engine.plan(2, n_trotters=1)
        p2 = sim.engine.plan(2, n_trotters=3)
        assert p1 is not p2
        assert p2.n_trotters == 3

    def test_memory_budget_change_recompiles(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        assert sim.engine.plan(2) is not sim.engine.plan(2, memory_budget=2.0 ** 20)

    def test_precision_is_part_of_the_key(self):
        terms = labs.get_terms(N)
        double = repro.simulator(N, terms=terms, backend="c")
        single = repro.simulator(N, terms=terms, backend="c", precision="single")
        kd = double.engine.plan(2).key
        ks = single.engine.plan(2).key
        assert kd != ks
        # only the precision component (the last one) differs
        assert kd[:-1] == ks[:-1]

    def test_clear_plans_forces_recompile(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        first = sim.engine.plan(2)
        assert sim.engine.plan_cache_size() == 1
        sim.engine.clear_plans()
        assert sim.engine.plan_cache_size() == 0
        assert sim.engine.plan(2) is not first


class TestEngineParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mixer", MIXERS)
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_matches_reference(self, backend, mixer, precision, rng):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend=backend,
                              mixer=mixer, precision=precision)
        gb = rng.uniform(-1, 1, (4, 2))
        bb = rng.uniform(-1, 1, (4, 2))
        fused = sim.get_expectation_batch(gb, bb)
        costs = sim.get_cost_diagonal()
        want = [reference_expectation(costs, g, b, mixer=mixer)
                for g, b in zip(gb, bb)]
        tol = 1e-12 if precision == "double" else 1e-5
        np.testing.assert_allclose(fused, want, rtol=tol, atol=tol)
        assert fused.dtype == np.float64  # float64 accumulation policy

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compressed_diagonal_construction(self, backend, rng):
        terms = labs.get_terms(N)
        reference = repro.simulator(N, terms=terms, backend="python")
        costs = reference.get_cost_diagonal().copy()
        sim = repro.simulator(N, costs=compress_diagonal(costs), backend=backend)
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        np.testing.assert_allclose(sim.get_expectation_batch(gb, bb),
                                   reference.get_expectation_batch(gb, bb),
                                   atol=1e-12)


FULL_TIER_CELLS = [
    (backend, mixer, precision)
    for backend in available_backends(capability="statevector")
    for mixer in get_backend(backend).mixers
    for precision in PRECISIONS
    if get_backend(backend).supports_precision(precision)
]


class TestOneEvaluationPath:
    """``simulate_qaoa`` is the engine's one-row call on every full-tier cell."""

    @pytest.mark.parametrize("backend,mixer,precision", FULL_TIER_CELLS)
    def test_matches_reference(self, backend, mixer, precision, rng):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend=backend,
                              mixer=mixer, precision=precision)
        gb = rng.uniform(-1, 1, (3, 2))
        bb = rng.uniform(-1, 1, (3, 2))
        costs = sim.get_cost_diagonal()
        tol = 1e-12 if precision == "double" else 1e-5
        want = [reference_state(costs, g, b, mixer=mixer, n_trotters=2)
                for g, b in zip(gb, bb)]
        for g, b, state in zip(gb, bb, want):
            got = sim.get_statevector(sim.simulate_qaoa(g, b, n_trotters=2))
            np.testing.assert_allclose(got, state, atol=tol)
        values = sim.get_expectation_batch(gb, bb, n_trotters=2)
        np.testing.assert_allclose(
            values, [float(np.abs(s) ** 2 @ costs) for s in want],
            rtol=tol, atol=tol)


class TestDistributedFused:
    @pytest.mark.parametrize("backend", ["gpumpi", "cusvmpi"])
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_matches_reference_and_single_node(self, backend, n_ranks, rng):
        terms = labs.get_terms(8)
        sim = repro.simulator(8, terms=terms, backend=backend, n_ranks=n_ranks)
        single_node = repro.simulator(8, terms=terms, backend="python")
        gb = rng.uniform(0, 1, (5, 3))
        bb = rng.uniform(0, 1, (5, 3))
        fused = sim.get_expectation_batch(gb, bb)
        costs = sim.get_cost_diagonal()
        np.testing.assert_allclose(
            fused, [reference_expectation(costs, g, b) for g, b in zip(gb, bb)],
            atol=1e-12)
        np.testing.assert_allclose(fused, single_node.get_expectation_batch(gb, bb),
                                   atol=1e-10)

    @pytest.mark.parametrize("backend", ["gpumpi", "cusvmpi"])
    def test_fused_batch_results_match_per_schedule(self, backend, rng):
        terms = labs.get_terms(6)
        sim = repro.simulator(6, terms=terms, backend=backend, n_ranks=2)
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        results = sim.simulate_qaoa_batch(gb, bb)
        assert len(results) == 3
        costs = sim.get_cost_diagonal()
        for res, (g, b) in zip(results, zip(gb, bb)):
            assert res.n_ranks == 2
            np.testing.assert_allclose(res.gather(),
                                       reference_state(costs, g, b),
                                       atol=1e-12)

    def test_fused_distributed_single_precision(self, rng):
        terms = labs.get_terms(8)
        sim = repro.simulator(8, terms=terms, backend="gpumpi", n_ranks=2,
                              precision="single")
        reference = repro.simulator(8, terms=terms, backend="python")
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        fused = sim.get_expectation_batch(gb, bb)
        ref = reference.get_expectation_batch(gb, bb)
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(fused - ref) / scale) <= 1e-5

    def test_cusvmpi_batched_exchange_message_count_is_rows_independent(self, rng):
        # The batched index-bit swap exchanges whole (rows, half) blocks, so
        # one B=4 call sends as many messages as one single-schedule call,
        # while four single-schedule calls pay one exchange set each.
        terms = labs.get_terms(6)
        gb = rng.uniform(0, 1, (4, 1))
        bb = rng.uniform(0, 1, (4, 1))
        fused_sim = repro.simulator(6, terms=terms, backend="cusvmpi", n_ranks=2)
        fused_sim.get_expectation_batch(gb, bb)
        fused_msgs = sum(t.num_messages for t in fused_sim.traffic_log)
        single_sim = repro.simulator(6, terms=terms, backend="cusvmpi", n_ranks=2)
        for g, b in zip(gb, bb):
            single_sim.simulate_qaoa(g, b)
        single_msgs = sum(t.num_messages for t in single_sim.traffic_log)
        assert fused_msgs < single_msgs
        assert single_msgs == 4 * fused_msgs  # one exchange set per schedule

    def test_memory_budget_splits_distributed_batches(self, rng):
        terms = labs.get_terms(6)
        sim = repro.simulator(6, terms=terms, backend="gpumpi", n_ranks=2)
        gb = rng.uniform(0, 1, (5, 2))
        bb = rng.uniform(0, 1, (5, 2))
        whole = sim.get_expectation_batch(gb, bb)
        blocks_before = sim.engine.stats.blocks_executed
        split = sim.get_expectation_batch(gb, bb, memory_budget=16 * (1 << 6))
        np.testing.assert_allclose(split, whole, atol=1e-12)
        assert sim.engine.stats.blocks_executed - blocks_before == 5

    def test_spmd_batched_program_two_ranks(self, rng):
        terms = labs.get_terms(6)
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        out = run_distributed_qaoa_batch(6, terms, gb, bb, n_ranks=2)
        costs = repro.simulator(6, terms=terms,
                                backend="python").get_cost_diagonal()
        np.testing.assert_allclose(
            out["expectations"],
            [reference_expectation(costs, g, b) for g, b in zip(gb, bb)],
            atol=1e-10)
        states = [reference_state(costs, g, b) for g, b in zip(gb, bb)]
        np.testing.assert_allclose(out["statevectors"], np.stack(states),
                                   atol=1e-12)
        # coalesced exchange (the default): 2 alltoalls per layer, B-independent
        assert out["ranks"][0]["n_alltoall"] == 2 * 2

    def test_spmd_per_schedule_exchange_matches_coalesced(self, rng):
        terms = labs.get_terms(6)
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        coalesced = run_distributed_qaoa_batch(6, terms, gb, bb, n_ranks=2)
        per_row = run_distributed_qaoa_batch(6, terms, gb, bb, n_ranks=2,
                                             coalesce=False)
        # the historical per-schedule path: 2 alltoalls per layer per schedule
        assert per_row["ranks"][0]["n_alltoall"] == 2 * 3 * 2
        np.testing.assert_array_equal(coalesced["statevectors"],
                                      per_row["statevectors"])
        np.testing.assert_array_equal(coalesced["expectations"],
                                      per_row["expectations"])


class TestEngineStatsAndModes:
    def test_blocks_and_rows_counted(self, rng):
        sim = repro.simulator(5, terms=labs.get_terms(5), backend="python")
        gb = rng.uniform(0, 1, (7, 2))
        bb = rng.uniform(0, 1, (7, 2))
        # a budget of one state vector (x2 blocks for the X-mixer scratch)
        sim.get_expectation_batch(gb, bb, memory_budget=2 * 16 * (1 << 5))
        assert sim.engine.stats.blocks_executed == 7
        assert sim.engine.stats.rows_executed == 7

    def test_simulate_qaoa_is_a_one_row_engine_call(self, rng):
        sim = repro.simulator(5, terms=labs.get_terms(5), backend="python")
        g, b = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
        state = sim.simulate_qaoa(g, b)
        stats = sim.engine.stats
        assert (stats.blocks_executed, stats.rows_executed) == (1, 1)
        assert stats.looped_evaluations == 0
        np.testing.assert_array_equal(state,
                                      sim.simulate_qaoa_batch([g], [b])[0])

    def test_fused_rejects_unknown_kwargs(self, rng):
        sim = repro.simulator(5, terms=labs.get_terms(5), backend="python")
        with pytest.raises(TypeError, match="unexpected keyword"):
            sim.get_expectation_batch([[0.1]], [[0.2]], bogus=1)
        with pytest.raises(TypeError, match="unexpected keyword"):
            sim.get_expectation_batch([[0.1]], [[0.2]], mode="fused")


class TestReadOnlyDiagonals:
    """Regression: the PR 1 shared-diagonal mutation hazard."""

    @pytest.mark.parametrize("construction", ["terms", "costs", "compressed"])
    def test_get_cost_diagonal_is_read_only(self, construction):
        terms = labs.get_terms(N)
        if construction == "terms":
            sim = repro.simulator(N, terms=terms, backend="python")
        else:
            costs = repro.simulator(N, terms=terms,
                                    backend="python").get_cost_diagonal().copy()
            if construction == "compressed":
                costs = compress_diagonal(costs)
            sim = repro.simulator(N, costs=costs, backend="python")
        diag = sim.get_cost_diagonal()
        with pytest.raises(ValueError, match="read-only"):
            diag[0] = 123.0

    def test_mutation_cannot_corrupt_the_shared_cache(self, rng):
        terms = labs.get_terms(7)
        first = repro.simulator(7, terms=terms, backend="python")
        value = first.get_expectation_batch([[0.4]], [[0.3]])[0]
        with pytest.raises(ValueError):
            first.get_cost_diagonal()[:] = 0.0
        # A second simulator of the same problem shares the cached diagonal
        # and must still see unmutated values.
        second = repro.simulator(7, terms=terms, backend="c")
        assert second.get_expectation_batch([[0.4]], [[0.3]])[0] == pytest.approx(value)

    def test_plan_phase_tables_are_read_only(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        plan = sim.engine.plan(2)
        table = plan.phase_tables
        assert table is not None
        with pytest.raises(ValueError):
            table.inverse[0] = 1
        with pytest.raises(ValueError):
            table.unique_values[0] = -1.0

    def test_copy_remains_writable(self):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend="python")
        copy = sim.get_cost_diagonal().copy()
        copy[0] = 5.0  # the documented escape hatch
        assert copy[0] == 5.0
