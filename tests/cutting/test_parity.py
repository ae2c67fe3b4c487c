"""Cut-vs-uncut parity: the pipeline must reproduce the monolithic value.

Random seeded problems are evaluated cut on every importable full-tier
backend, at both precisions, and uncut by the independent per-vector
reference of :mod:`repro.testing`, with tolerances matching the repo-wide
parity discipline (1e-12 double, 1e-5 single).
"""

import numpy as np
import pytest

from repro.cutting import CutUnsupportedError, cut_qaoa_expectation
from repro.fur import available_backends, precompute_cost_diagonal
from repro.fur.capabilities import UnsupportedCapabilityError
from repro.testing import random_terms, reference_expectation

FULL_TIER = [b for b in available_backends(mixer="x", capability="statevector",
                                           importable_only=True)
             if b not in ("gpumpi", "cusvmpi")]  # distributed: exercised in
# the cross-backend suites; the fragment pipeline adds nothing new there.

TOLERANCES = {"double": 1e-12, "single": 1e-5}


def _uncut(n, terms, gammas, betas):
    return reference_expectation(precompute_cost_diagonal(terms, n),
                                 gammas, betas)


@pytest.mark.parametrize("backend", FULL_TIER)
@pytest.mark.parametrize("precision", ["double", "single"])
def test_cut_matches_uncut_random_problems(backend, precision, seeded_rng):
    tol = TOLERANCES[precision]
    for trial in range(3):
        n = int(seeded_rng.integers(6, 9))
        terms = random_terms(seeded_rng, n, n_terms=2 * n, max_order=3)
        gamma = float(seeded_rng.uniform(-1, 1))
        beta = float(seeded_rng.uniform(-1, 1))
        want = _uncut(n, terms, [gamma], [beta])
        got = cut_qaoa_expectation(n, terms, [gamma], [beta],
                                   backend=backend, precision=precision)
        assert got == pytest.approx(want, abs=tol), (
            f"trial {trial}: backend={backend} precision={precision} n={n}")


@pytest.mark.parametrize("backend", FULL_TIER)
def test_cut_matches_uncut_structured_problems(backend, qaoa_angles):
    """Ring, bridge-block and star cost graphs, explicit and chosen cuts."""
    gammas, betas = [qaoa_angles[0][0]], [qaoa_angles[1][0]]
    ring = [(0.7, (i, (i + 1) % 8)) for i in range(8)]
    clique = lambda qs: [(0.5, (a, b)) for i, a in enumerate(qs)
                         for b in qs[i + 1:]]
    blocks = clique((0, 1, 2, 3)) + clique((4, 5, 6, 7)) + [(1.0, (1, 6))]
    star = [(0.4, (0, q)) for q in range(1, 7)] + [(0.3, (3,)), (0.2, ())]
    for terms, kwargs in [
        (ring, dict(partition=range(4))),
        (ring, {}),
        (blocks, {}),
        (star, dict(partition=[0, 1, 2], cut_qubits=[0])),
    ]:
        n = 8 if terms is not star else 7
        want = _uncut(n, terms, gammas, betas)
        got = cut_qaoa_expectation(n, terms, gammas, betas,
                                   backend=backend, **kwargs)
        assert got == pytest.approx(want, abs=1e-12)


def test_fragment_pipeline_matches_reference(seeded_rng):
    """The per-row-sv0 fragment evaluation matches the reference exactly."""
    n = 8
    terms = random_terms(seeded_rng, n, n_terms=12)
    want = _uncut(n, terms, [0.31], [0.57])
    got = cut_qaoa_expectation(n, terms, [0.31], [0.57], backend="python")
    assert got == pytest.approx(want, abs=1e-12)


def test_p2_raises_typed_error():
    terms = [(1.0, (0, 5))]
    with pytest.raises(CutUnsupportedError, match="p=2"):
        cut_qaoa_expectation(8, terms, [0.1, 0.2], [0.3, 0.4],
                             backend="python")


def test_xy_mixer_raises_typed_error():
    terms = [(1.0, (0, 5))]
    with pytest.raises(CutUnsupportedError, match="mixer"):
        cut_qaoa_expectation(8, terms, [0.1], [0.3], mixer="xyring",
                             backend="python")


def test_expectation_only_backend_rejected_up_front():
    terms = [(1.0, (0, 5))]
    with pytest.raises(UnsupportedCapabilityError, match="tensornet"):
        cut_qaoa_expectation(8, terms, [0.1], [0.3], backend="tensornet")


def test_typed_errors_are_capability_errors():
    """CutUnsupportedError follows the UnsupportedCapabilityError discipline."""
    assert issubclass(CutUnsupportedError, UnsupportedCapabilityError)
    assert issubclass(CutUnsupportedError, RuntimeError)
