"""Per-row initial-state blocks through the batched execution engine.

The circuit-cutting pipeline feeds every fragment variant a *different*
initial state via a ``(B, 2^n)`` ``sv0`` block.  These tests pin the
engine contract: every full-tier backend stages per-row blocks into one
fused block walk, and the values match the independent per-vector
reference of :mod:`repro.testing` row by row.
"""

import numpy as np
import pytest

import repro
from repro.testing import reference_expectation, reference_state

BATCHED_SV0_BACKENDS = ["python", "c", "jit", "gates", "sharded", "gpu",
                        "gpumpi", "cusvmpi"]
TOLERANCES = {"double": 1e-12, "single": 1e-5}


def _random_problem(rng, n=5, batch=4, p=2):
    terms = [(float(rng.normal()), (i, (i + 1) % n)) for i in range(n)]
    g = rng.normal(size=(batch, p))
    b = rng.normal(size=(batch, p))
    sv0 = rng.normal(size=(batch, 2 ** n)) + 1j * rng.normal(size=(batch, 2 ** n))
    sv0 /= np.linalg.norm(sv0, axis=1, keepdims=True)
    return terms, g, b, sv0


@pytest.mark.parametrize("backend", BATCHED_SV0_BACKENDS)
@pytest.mark.parametrize("precision", ["double", "single"])
def test_per_row_sv0_matches_reference(backend, precision, seeded_rng):
    n = 5
    terms, g, b, sv0 = _random_problem(seeded_rng, n=n)
    sim = repro.simulator(n, terms=terms, backend=backend, precision=precision)
    costs = sim.get_cost_diagonal()
    want = np.array([reference_expectation(costs, g[i], b[i], sv0=sv0[i])
                     for i in range(g.shape[0])])
    got = sim.get_expectation_batch(g, b, sv0=sv0)
    tol = TOLERANCES[precision] * max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(got, want, rtol=0, atol=tol)


@pytest.mark.parametrize("backend", BATCHED_SV0_BACKENDS)
def test_per_row_sv0_statevectors(backend, seeded_rng):
    n = 5
    terms, g, b, sv0 = _random_problem(seeded_rng, n=n, batch=3)
    sim = repro.simulator(n, terms=terms, backend=backend)
    results = sim.simulate_qaoa_batch(g, b, sv0=sv0)
    costs = sim.get_cost_diagonal()
    for i, res in enumerate(results):
        np.testing.assert_allclose(
            sim.get_statevector(res),
            reference_state(costs, g[i], b[i], sv0=sv0[i]), atol=1e-12)


@pytest.mark.parametrize("backend", ["gpu", "gpumpi", "cusvmpi"])
def test_device_and_distributed_fuse_a_per_row_block(backend, seeded_rng):
    """gpu/gpumpi/cusvmpi stage a per-row ``sv0`` block as one fused block."""
    n = 5
    terms, g, b, sv0 = _random_problem(seeded_rng, n=n, batch=3)
    sim = repro.simulator(n, terms=terms, backend=backend)
    stats = sim.engine.stats
    before = stats.blocks_executed
    got = sim.get_expectation_batch(g, b, sv0=sv0)
    assert stats.blocks_executed == before + 1
    assert stats.looped_evaluations == 0
    costs = sim.get_cost_diagonal()
    want = [reference_expectation(costs, g[i], b[i], sv0=sv0[i])
            for i in range(3)]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_shared_1d_sv0_still_broadcasts(seeded_rng):
    """The pre-existing contract: a 1-D sv0 is shared by every row."""
    n = 5
    terms, g, b, _ = _random_problem(seeded_rng, n=n, batch=3)
    shared = seeded_rng.normal(size=2 ** n) + 1j * seeded_rng.normal(size=2 ** n)
    shared /= np.linalg.norm(shared)
    sim = repro.simulator(n, terms=terms, backend="python")
    costs = sim.get_cost_diagonal()
    want = np.array([reference_expectation(costs, g[i], b[i], sv0=shared)
                     for i in range(3)])
    got = sim.engine.expectation_batch(g, b, sv0=shared)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_row_count_mismatch_raises(seeded_rng):
    n = 5
    terms, g, b, sv0 = _random_problem(seeded_rng, n=n, batch=4)
    sim = repro.simulator(n, terms=terms, backend="python")
    with pytest.raises(ValueError, match="rows for a batch of"):
        sim.engine.expectation_batch(g, b, sv0=sv0[:2])
    with pytest.raises(ValueError, match="rows for a batch of"):
        sim.engine.simulate_batch(g, b, sv0=sv0[:2])


def test_wrong_block_shape_raises(seeded_rng):
    n = 5
    terms, g, b, _ = _random_problem(seeded_rng, n=n, batch=4)
    sim = repro.simulator(n, terms=terms, backend="python")
    bad = np.ones((4, 2 ** n - 1), dtype=complex)
    with pytest.raises(ValueError, match="initial-state block has shape"):
        sim.engine.expectation_batch(g, b, sv0=bad)


def test_simulate_qaoa_rejects_a_2d_sv0(seeded_rng):
    """``simulate_qaoa`` keeps its 1-D ``sv0`` contract."""
    n = 5
    terms, g, b, sv0 = _random_problem(seeded_rng, n=n, batch=1)
    sim = repro.simulator(n, terms=terms, backend="python")
    with pytest.raises(ValueError, match="initial state has shape"):
        sim.simulate_qaoa(g[0], b[0], sv0=sv0)
