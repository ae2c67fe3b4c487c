"""The engine's one fixed layer walk, pinned on every registered backend.

Covers

* parity of every registered backend x mixer against the independent
  per-vector reference of :mod:`repro.testing` at 1e-12 (double): depths
  p in {1, 3}, reduce on (objective values) and off (evolved states), with
  a shared and a per-row initial state;
* the randomized cross-backend parity harness: random terms, angles
  (including all-zero columns), mixers, precisions and batch shapes, seeded
  via the session ``seeded_rng`` fixture (reproducible from the seed in the
  pytest header), within the 1e-5 single / 1e-12 double envelopes;
* fused-layer accounting: ``fused_ops_executed`` counts ``p`` per row-block
  on providers with a fused layer kernel and 0 on the composed default;
* the exchange shape as each distributed provider's own choice: ``gpumpi``
  direct coalesces the whole block (batch-independent message count,
  bitwise equal to the per-row path), ring/bruck/pairwise keep one
  exchange per schedule row;
* validation of ``n_trotters`` and ``memory_budget`` at the engine entry,
  on all nine backends.
"""

import math

import numpy as np
import pytest

import repro
from repro.fur import available_backends, get_backend, registry
from repro.problems import labs
from repro.testing import random_terms, reference_expectation, reference_state

#: Every registered backend participates (all are importable here).
BACKENDS = registry.names()
N = 6

#: Established parity envelopes (relative, applied against the reference).
ENVELOPE = {"double": 1e-12, "single": 1e-5}


def _simulator(backend: str, mixer: str = "x", n: int = N, terms=None,
               **kwargs):
    if get_backend(backend).distributed:
        kwargs.setdefault("n_ranks", 2)
    terms = labs.get_terms(n) if terms is None else terms
    return repro.simulator(n, terms=terms, backend=backend, mixer=mixer,
                           **kwargs)


def _cells():
    return [(backend, mixer) for backend in BACKENDS
            for mixer in get_backend(backend).mixers]


def _random_states(rng, rows: int, n: int) -> np.ndarray:
    states = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


class TestReferenceParity:
    """The walk reproduces ``Π_l exp(-i β_l M) exp(-i γ_l C) |sv0>``."""

    @pytest.mark.parametrize("backend,mixer", _cells())
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("sv0_kind", ["plus", "shared", "per-row"])
    def test_expectations(self, backend, mixer, p, sv0_kind, seeded_rng):
        spec = get_backend(backend)
        if sv0_kind != "plus" and backend == "tensornet":
            pytest.skip("tensornet folds |+> into its input tensors")
        sim = _simulator(backend, mixer)
        rows = 3 if spec.capabilities == "full" else 2
        gb = seeded_rng.uniform(-1.0, 1.0, (rows, p))
        bb = seeded_rng.uniform(-1.0, 1.0, (rows, p))
        if sv0_kind == "plus":
            sv0, row_states = None, [None] * rows
        elif sv0_kind == "shared":
            sv0 = _random_states(seeded_rng, 1, N)[0]
            row_states = [sv0] * rows
        else:
            sv0 = _random_states(seeded_rng, rows, N)
            row_states = list(sv0)
        costs = sim.get_cost_diagonal()
        want = np.array([
            reference_expectation(costs, g, b, mixer=mixer, sv0=s, n_trotters=2)
            for g, b, s in zip(gb, bb, row_states)])
        got = sim.get_expectation_batch(gb, bb, sv0=sv0, n_trotters=2)
        tol = ENVELOPE["double"] * max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    @pytest.mark.parametrize("backend,mixer", _cells())
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("sv0_kind", ["plus", "shared", "per-row"])
    def test_states(self, backend, mixer, p, sv0_kind, seeded_rng):
        if not get_backend(backend).supports_capability("statevector"):
            pytest.skip(f"{backend} keeps no statevectors")
        sim = _simulator(backend, mixer)
        rows = 3
        gb = seeded_rng.uniform(-1.0, 1.0, (rows, p))
        bb = seeded_rng.uniform(-1.0, 1.0, (rows, p))
        if sv0_kind == "plus":
            sv0, row_states = None, [None] * rows
        elif sv0_kind == "shared":
            sv0 = _random_states(seeded_rng, 1, N)[0]
            row_states = [sv0] * rows
        else:
            sv0 = _random_states(seeded_rng, rows, N)
            row_states = list(sv0)
        costs = sim.get_cost_diagonal()
        results = sim.simulate_qaoa_batch(gb, bb, sv0=sv0, n_trotters=2)
        assert len(results) == rows
        for res, g, b, s in zip(results, gb, bb, row_states):
            want = reference_state(costs, g, b, mixer=mixer, sv0=s,
                                   n_trotters=2)
            np.testing.assert_allclose(np.asarray(sim.get_statevector(res)),
                                       want, rtol=0, atol=1e-12)

    def test_all_zero_schedule_reduces_to_initial_state(self):
        sim = _simulator("python")
        values = sim.get_expectation_batch(np.zeros((2, 3)), np.zeros((2, 3)))
        expected = float(sim.get_cost_diagonal().mean())  # |+> expectation
        np.testing.assert_allclose(values, [expected, expected], atol=1e-12)
        # every layer still runs: nothing is eliminated
        assert sim.engine.stats.ops_eliminated == 0
        assert sim.engine.stats.fused_ops_executed == 3


def _random_config(rng, spec):
    """One random problem/schedule configuration for a backend spec."""
    if spec.capabilities != "full":
        # expectation-only backends (tensornet) contract all 2^n output
        # amplitudes per schedule row — keep the randomized cell small.
        n = int(rng.integers(4, 6))
        p = int(rng.integers(1, 3))
        batch = int(rng.integers(1, 3))
    else:
        n = int(rng.integers(5, 9))
        p = int(rng.integers(1, 5))
        batch = int(rng.integers(1, 6))
    mixer = str(rng.choice(spec.mixers))
    terms = random_terms(rng, n, n_terms=int(rng.integers(3, 9)))
    gammas = rng.uniform(-2.0, 2.0, (p,))[None, :] * rng.uniform(0.5, 1.0, (batch, 1))
    betas = rng.uniform(-2.0, 2.0, (batch, p))
    gammas = np.ascontiguousarray(gammas)
    # Zero whole angle columns now and then: a zero-angle layer is an exact
    # identity, and the walk must reproduce it like any other angle.
    if rng.random() < 0.5:
        gammas[:, int(rng.integers(p))] = 0.0
    if rng.random() < 0.5:
        betas[:, int(rng.integers(p))] = 0.0
    kwargs = {}
    if spec.distributed:
        kwargs["n_ranks"] = int(rng.choice([2, 4]))
    return n, mixer, terms, gammas, betas, kwargs


class TestRandomizedParityHarness:
    """Every backend x precision against the reference, from one seed."""

    @pytest.mark.parametrize("backend", available_backends(importable_only=True))
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_matches_reference(self, backend, precision, seeded_rng):
        spec = get_backend(backend)
        if not spec.supports_precision(precision):
            pytest.skip(f"{backend} does not implement {precision}")
        for trial in range(3):
            n, mixer, terms, gb, bb, kwargs = _random_config(seeded_rng, spec)
            sim = repro.simulator(n, terms=terms, backend=backend,
                                  mixer=mixer, precision=precision, **kwargs)
            values = sim.get_expectation_batch(gb, bb)
            costs = sim.get_cost_diagonal()
            reference = np.array([reference_expectation(costs, g, b, mixer=mixer)
                                  for g, b in zip(gb, bb)])
            tol = ENVELOPE[precision] * max(1.0, float(np.max(np.abs(reference))))
            np.testing.assert_allclose(
                values, reference, atol=tol,
                err_msg=(f"backend={backend} precision={precision} "
                         f"trial={trial} n={n} mixer={mixer} "
                         f"shape={gb.shape} kwargs={kwargs} "
                         "(reproduce via the seed in the pytest header)"))


class TestFusedLayerAccounting:
    @pytest.mark.parametrize("reduce", [True, False])
    def test_jit_x_counts_p_per_row_block(self, reduce, seeded_rng):
        sim = _simulator("jit")
        p, rows = 4, 5
        gb = seeded_rng.uniform(0.3, 1.0, (rows, p))
        bb = seeded_rng.uniform(0.3, 1.0, (rows, p))
        # a budget of two rows per block: 3 row-blocks for 5 schedules
        budget = 2 * 16 * (1 << N)
        if reduce:
            sim.get_expectation_batch(gb, bb, memory_budget=budget)
        else:
            sim.simulate_qaoa_batch(gb, bb, memory_budget=budget)
        stats = sim.engine.stats
        assert stats.blocks_executed == 3
        assert stats.fused_ops_executed == p * stats.blocks_executed

    @pytest.mark.parametrize("backend,mixer,fused", [
        ("python", "x", True), ("c", "x", True), ("gpu", "x", True),
        ("sharded", "x", True), ("gpumpi", "x", True), ("cusvmpi", "x", True),
        ("jit", "xyring", True),
        ("python", "xyring", False), ("c", "xycomplete", False),
        ("gates", "x", False), ("tensornet", "x", False),
    ])
    def test_fused_only_where_a_provider_fuses(self, backend, mixer, fused,
                                               seeded_rng):
        sim = _simulator(backend, mixer)
        p = 2
        sim.get_expectation_batch(seeded_rng.uniform(0.3, 1.0, (2, p)),
                                  seeded_rng.uniform(0.3, 1.0, (2, p)))
        assert sim.engine.stats.fused_ops_executed == (p if fused else 0)
        assert sim.engine.stats.looped_evaluations == 0


class TestDistributedExchangeShape:
    """Coalescing is the provider's choice, not a plan property."""

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_direct_message_count_is_batch_size_independent(self, n_ranks,
                                                            seeded_rng):
        p = 2
        counts = {}
        for batch in (2, 5):
            sim = _simulator("gpumpi", n=8, n_ranks=n_ranks)
            sim.get_expectation_batch(seeded_rng.uniform(0.3, 1.0, (batch, p)),
                                      seeded_rng.uniform(0.3, 1.0, (batch, p)))
            counts[batch] = sum(t.num_messages for t in sim.traffic_log)
        # coalesced: 2 exchanges per layer x K(K-1) messages, regardless of B
        assert counts[2] == counts[5]
        assert counts[2] == p * 2 * n_ranks * (n_ranks - 1)

    @pytest.mark.parametrize("algorithm", ["ring", "bruck", "pairwise"])
    def test_other_algorithms_keep_the_per_row_path(self, algorithm,
                                                    seeded_rng):
        p = 2
        counts = {}
        for batch in (2, 4):
            sim = _simulator("gpumpi", alltoall_algorithm=algorithm)
            sim.get_expectation_batch(seeded_rng.uniform(0.3, 1.0, (batch, p)),
                                      seeded_rng.uniform(0.3, 1.0, (batch, p)))
            # one trace per schedule row per exchange, two exchanges a layer
            assert len(sim.traffic_log) == batch * p * 2
            counts[batch] = sum(t.num_messages for t in sim.traffic_log)
        assert counts[4] == 2 * counts[2]

    @pytest.mark.parametrize("n_ranks", [2, 4])
    @pytest.mark.parametrize("algorithm", ["ring", "bruck", "pairwise"])
    def test_coalesced_and_per_row_paths_agree_bitwise(self, n_ranks,
                                                       algorithm, seeded_rng):
        gb = seeded_rng.uniform(0.0, 1.0, (3, 2))
        bb = seeded_rng.uniform(0.0, 1.0, (3, 2))
        direct = _simulator("gpumpi", n=8, n_ranks=n_ranks)
        per_row = _simulator("gpumpi", n=8, n_ranks=n_ranks,
                             alltoall_algorithm=algorithm)
        for a, b in zip(direct.simulate_qaoa_batch(gb, bb),
                        per_row.simulate_qaoa_batch(gb, bb)):
            np.testing.assert_array_equal(a.gather(), b.gather())
        np.testing.assert_array_equal(direct.get_expectation_batch(gb, bb),
                                      per_row.get_expectation_batch(gb, bb))

    @pytest.mark.parametrize("algorithm", ["direct", "pairwise", "ring", "bruck"])
    def test_alltoall_algorithms_match_single_node(self, algorithm,
                                                   seeded_rng):
        gb = seeded_rng.uniform(0.0, 1.0, (3, 2))
        bb = seeded_rng.uniform(0.0, 1.0, (3, 2))
        sim = _simulator("gpumpi", alltoall_algorithm=algorithm)
        reference = _simulator("python")
        np.testing.assert_allclose(sim.get_expectation_batch(gb, bb),
                                   reference.get_expectation_batch(gb, bb),
                                   atol=1e-10)

    def test_sharded_exchanges_are_batch_size_independent(self, seeded_rng):
        counts = []
        for rows in (2, 8):
            sim = _simulator("sharded", mixer="xyring", n_shards=4, inner="c")
            sim.get_expectation_batch(seeded_rng.normal(size=(rows, 2)),
                                      seeded_rng.normal(size=(rows, 2)))
            counts.append(sim.engine.stats.shard_exchanges)
        assert counts[0] > 0 and counts[0] == counts[1]


def _validation_sim(backend: str):
    # An XY mixer where the family has one, so the Trotter count matters.
    mixers = get_backend(backend).mixers
    return _simulator(backend, "xyring" if "xyring" in mixers else "x")


class TestEntryValidation:
    """``n_trotters`` and ``memory_budget`` are checked before the plan lookup."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_trotters", [2.9, 2.0, 0, -1, "2"])
    def test_bad_n_trotters_raises(self, backend, n_trotters):
        sim = _validation_sim(backend)
        with pytest.raises(ValueError, match="n_trotters"):
            sim.get_expectation_batch([[0.1]], [[0.2]], n_trotters=n_trotters)
        if get_backend(backend).supports_capability("statevector"):
            with pytest.raises(ValueError, match="n_trotters"):
                sim.simulate_qaoa([0.1], [0.2], n_trotters=n_trotters)
        assert sim.engine.plan_cache_size() == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("budget", [math.nan, math.inf, 0, -5])
    def test_bad_memory_budget_raises_without_caching(self, backend, budget):
        sim = _validation_sim(backend)
        sim.get_expectation_batch([[0.1]], [[0.2]])
        cached = sim.engine.plan_cache_size()
        for _ in range(3):
            with pytest.raises(ValueError, match="memory_budget"):
                sim.get_expectation_batch([[0.1]], [[0.2]],
                                          memory_budget=budget)
        assert sim.engine.plan_cache_size() == cached

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_integral_n_trotters_accepted(self, backend):
        sim = _validation_sim(backend)
        values = sim.get_expectation_batch([[0.1]], [[0.2]],
                                           n_trotters=np.int64(2))
        assert np.all(np.isfinite(values))
        assert sim.engine.plan(1, n_trotters=2).n_trotters == 2
