"""Shared test/benchmark helpers (random problem instances, reference states).

Importable as ``repro.testing`` so the test-suite (and downstream users
writing their own tests against the simulators) can generate reproducible
random problems without reaching into pytest ``conftest`` modules — relative
imports of ``conftest`` are not importable under pytest's rootdir rules.

:func:`reference_state` / :func:`reference_expectation` are the independent
reference every backend is checked against: a plain per-vector loop of
Algorithm 3 (an ``np.exp`` phase multiply, then the ``furx_all`` /
``furxy_ring`` / ``furxy_complete`` kernels of :mod:`repro.fur.python`) in
complex128.  It shares no code with the execution engine — no plans, no
phase tables, no fused kernels — so an engine bug cannot hide in it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .fur.python.furx import furx_all
from .fur.python.furxy import furxy_complete, furxy_ring
from .problems.terms import Term, normalize_terms

__all__ = ["random_terms", "reference_state", "reference_expectation"]

_REFERENCE_MIXERS = {
    "x": furx_all,
    "xyring": furxy_ring,
    "xycomplete": furxy_complete,
}


def random_terms(rng: np.random.Generator, n: int, n_terms: int,
                 max_order: int = 3) -> list[Term]:
    """Random spin-polynomial terms with weights in [-1, 1].

    Each term draws an order uniformly from ``1..max_order`` and a sorted
    tuple of distinct qubit indices; the result is normalized (like-terms
    merged) so it is a valid simulator input.
    """
    terms = []
    for _ in range(n_terms):
        order = int(rng.integers(1, max_order + 1))
        idx = tuple(sorted(rng.choice(n, size=min(order, n), replace=False).tolist()))
        terms.append((float(rng.uniform(-1, 1)), idx))
    return normalize_terms(terms)


def reference_state(costs, gammas: Sequence[float], betas: Sequence[float],
                    mixer: str = "x", sv0: np.ndarray | None = None,
                    n_trotters: int = 1) -> np.ndarray:
    """The QAOA state ``Π_l exp(-i β_l M) exp(-i γ_l C) |sv0>`` in complex128.

    ``costs`` is the length-``2^n`` cost diagonal (an array or a
    :class:`~repro.fur.diagonal.CompressedDiagonal`); ``sv0`` defaults to
    ``|+>^n``.  The XY mixers are Trotterized into ``n_trotters`` equal
    slices per layer; the X mixer's factors commute, so it ignores them.
    """
    if mixer not in _REFERENCE_MIXERS:
        raise ValueError(f"unknown mixer {mixer!r}; "
                         f"choose from {sorted(_REFERENCE_MIXERS)}")
    if n_trotters < 1:
        raise ValueError("n_trotters must be at least 1")
    diag = costs.decompress() if hasattr(costs, "decompress") else costs
    diag = np.asarray(diag, dtype=np.float64)
    n_states = diag.shape[0]
    n = n_states.bit_length() - 1
    if diag.ndim != 1 or n_states != 1 << n:
        raise ValueError("costs must be a length-2^n diagonal")
    g = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    b = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    if g.shape != b.shape or g.ndim != 1:
        raise ValueError("gammas and betas must be equal-length 1-D schedules")
    if sv0 is None:
        sv = np.full(n_states, 1.0 / np.sqrt(n_states), dtype=np.complex128)
    else:
        sv = np.array(sv0, dtype=np.complex128, copy=True)
        if sv.shape != (n_states,):
            raise ValueError(f"initial state has shape {sv.shape}, "
                             f"expected ({n_states},)")
    kernel = _REFERENCE_MIXERS[mixer]
    slices = 1 if mixer == "x" else int(n_trotters)
    for gamma, beta in zip(g, b):
        sv *= np.exp(-1j * float(gamma) * diag)
        for _ in range(slices):
            kernel(sv, float(beta) / slices, n)
    return sv


def reference_expectation(costs, gammas: Sequence[float], betas: Sequence[float],
                          mixer: str = "x", sv0: np.ndarray | None = None,
                          n_trotters: int = 1) -> float:
    """``<γβ|C|γβ>`` of :func:`reference_state`, accumulated in float64."""
    sv = reference_state(costs, gammas, betas, mixer=mixer, sv0=sv0,
                         n_trotters=n_trotters)
    diag = costs.decompress() if hasattr(costs, "decompress") else costs
    return float(np.dot(sv.real ** 2 + sv.imag ** 2,
                        np.asarray(diag, dtype=np.float64)))
