"""The circuit-cutting fragment pipeline for beyond-memory QAOA.

:class:`CutQAOAPipeline` wires the classical pieces of :mod:`repro.cutting`
into an end-to-end evaluator:

1. :func:`~repro.cutting.cutter.choose_cut` splits the cost graph into two
   fragments across ``k`` cut qubits;
2. fragment 1 runs **one** uniform QAOA evolution on its own backend and
   measures all ``4^k`` conjugated-Pauli settings on the evolved state;
3. fragment 2 runs all ``4^k`` preparation variants as **one** batched
   engine call — the variant initial states ride the engine's per-row
   ``sv0`` block, so a full-tier backend streams them through its fused
   kernels;
4. :func:`~repro.cutting.recombine.recombine_term` contracts each term's
   fragment tables through :mod:`repro.tensornet`.

The two fragments dispatch concurrently on a small worker pool.  Each
fragment's simulator is built through the :func:`repro.simulator` facade,
so every *full-tier* backend works unchanged; expectation-only families
(tensornet) are rejected up front with
:class:`~repro.fur.capabilities.UnsupportedCapabilityError`.

Because only fragment-sized state vectors are ever materialized, problems
whose monolithic ``2^n`` state the admission guard rejects still evaluate
— that is the point: the largest allocation is ``max(2^{n_1}, 2^{n_2})``
amplitudes per engine sub-batch row, not ``2^n``.

The decomposition is exact for single-layer (``p = 1``) transverse-field
QAOA; anything else raises the typed
:class:`~repro.cutting.cutter.CutUnsupportedError`.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..fur.base import validate_angles
from ..fur.capabilities import require_capability
from ..fur.registry import simulator as _construct_simulator
from ..qaoa.parameters import split_parameters
from .cutter import CutSpec, CutUnsupportedError, assign_terms, choose_cut
from .recombine import recombine_term
from .variants import apply_one_qubit, conjugated_paulis, variant_digits, \
    variant_initial_states

__all__ = [
    "CuttingStats",
    "CutQAOAPipeline",
    "cut_qaoa_expectation",
    "CutQAOAObjective",
]


@dataclass
class CuttingStats:
    """Cut-pipeline telemetry, mirroring the engine's ``EngineStats`` style.

    Counters accumulate across evaluations until :meth:`reset`; the
    benchmark harness folds :meth:`as_dict` into the ``--engine-report``
    payload next to the per-backend engine stats.
    """

    #: full cut-expectation evaluations served
    evaluations: int = 0
    #: fragment circuits dispatched (two per evaluation)
    fragments_evaluated: int = 0
    #: fragment-variant state evolutions (``1 + 4^k`` per evaluation)
    variants_evaluated: int = 0
    #: cut qubits of the active cut (``k``)
    cut_qubits: int = 0
    #: cost terms recombined across the cut
    recombined_terms: int = 0
    #: tensor-network contractions performed during recombination
    tensor_contractions: int = 0
    #: wall-clock seconds inside fragment simulation
    fragment_wall_s: float = 0.0
    #: wall-clock seconds inside the recombination contraction
    recombine_wall_s: float = 0.0

    def reset(self) -> None:
        """Zero every counter (the pinned cut width is preserved)."""
        width = self.cut_qubits
        for name in vars(self):
            setattr(self, name, type(getattr(self, name))(0))
        self.cut_qubits = width

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready snapshot of the counters."""
        return dict(vars(self))


def _parity_signs(masks: Sequence[int], n_qubits: int) -> np.ndarray:
    """``(len(masks), 2^n)`` rows of ``(-1)^popcount(x & mask)``."""
    idx = np.arange(1 << n_qubits, dtype=np.uint64)
    out = np.empty((len(masks), idx.shape[0]), dtype=np.float64)
    for r, mask in enumerate(masks):
        parity = (np.bitwise_count(idx & np.uint64(mask)) & np.uint64(1))
        out[r] = 1.0 - 2.0 * parity.astype(np.float64)
    return out


class CutQAOAPipeline:
    """A reusable cut-QAOA evaluator bound to one problem and one cut.

    Construction picks (or validates) the cut, splits the cost polynomial,
    and builds both fragment simulators; :meth:`expectation` then serves
    any number of ``p = 1`` schedules against the cached fragments.
    """

    def __init__(self, n_qubits: int,
                 terms: Iterable[tuple[float, Iterable[int]]], *,
                 partition: Iterable[int] | None = None,
                 cut_qubits: Iterable[int] | None = None,
                 max_cuts: int = 8,
                 backend: Any = "auto",
                 mixer: str = "x",
                 precision: str | None = None,
                 n_workers: int = 2,
                 **simulator_kwargs: Any) -> None:
        if mixer != "x":
            raise CutUnsupportedError(
                f"mixer {mixer!r} entangles the fragments across the cut; "
                "the exact wire-cut decomposition only exists for the "
                "transverse-field 'x' mixer")
        terms = list(terms)
        self.spec: CutSpec = choose_cut(terms, n_qubits,
                                        partition=partition,
                                        cut_qubits=cut_qubits,
                                        max_cuts=max_cuts)
        self.assignment = assign_terms(terms, self.spec)
        self.n_workers = max(1, int(n_workers))
        self.stats = CuttingStats(cut_qubits=self.spec.n_cuts)

        k = self.spec.n_cuts
        self._n1 = len(self.spec.fragment_a)
        self._n2 = len(self.assignment.f2_qubits)
        build = dict(backend=backend, mixer=mixer, precision=precision,
                     **simulator_kwargs)
        # A zero-weight placeholder keeps term-requiring backends (gates)
        # working when one fragment ends up with no phase terms at all.
        self.sim1 = _construct_simulator(
            self._n1, terms=list(self.assignment.f1_terms) or [(0.0, (0,))],
            **build)
        self.sim2 = _construct_simulator(
            self._n2, terms=list(self.assignment.f2_terms) or [(0.0, (0,))],
            **build)
        for sim in (self.sim1, self.sim2):
            require_capability(sim, "statevector")
        #: fragment-1 register positions of the cut qubits
        a_local = {q: i for i, q in enumerate(self.spec.fragment_a)}
        self._cut_positions = tuple(a_local[q] for q in self.spec.cut_qubits)
        #: the (4^k, 2^{n_2}) per-row sv0 block fed to fragment 2's engine
        self._prep_block = variant_initial_states(
            self._n2, k, dtype=self.sim2._precision.complex_dtype)
        # Deduplicate the per-term observable masks so each unique mask is
        # reduced against the fragment data exactly once.
        self._weights = [w for w, _m1, _m2 in self.assignment.measured]
        self._u1, self._masks1 = self._unique(
            [m1 for _w, m1, _m2 in self.assignment.measured])
        self._u2, self._masks2 = self._unique(
            [m2 for _w, _m1, m2 in self.assignment.measured])
        self._signs1 = _parity_signs(self._masks1, self._n1)
        self._signs2 = _parity_signs(self._masks2, self._n2)

    @staticmethod
    def _unique(masks: Sequence[int]) -> tuple[list[int], list[int]]:
        order: dict[int, int] = {}
        rows = []
        for m in masks:
            if m not in order:
                order[m] = len(order)
            rows.append(order[m])
        return rows, list(order)

    # -- fragment evaluation -------------------------------------------------
    def _fragment_one(self, gamma: float, beta: float) -> np.ndarray:
        """Fragment 1: one evolution, then all ``4^k`` Pauli settings.

        Returns the ``(n_masks1, 4^k)`` table ``M[u, m] =
        ⟨ψ₁| Z_{mask_u} ⊗ σ̃_m |ψ₁⟩`` for the deduplicated fragment-1 masks.
        """
        k = self.spec.n_cuts
        res = self.sim1.simulate_qaoa([gamma], [beta])
        psi = np.asarray(self.sim1.get_statevector(res),
                         dtype=np.complex128).reshape(-1)
        sigmas = conjugated_paulis(beta)
        m_table = np.empty((len(self._masks1), 4 ** k), dtype=np.float64)
        for m in range(4 ** k):
            phi = psi
            for cut, digit in enumerate(variant_digits(m, k)):
                if digit:
                    phi = apply_one_qubit(phi, sigmas[digit],
                                          self._cut_positions[cut], self._n1)
            weight = (np.conj(psi) * phi).real
            m_table[:, m] = self._signs1 @ weight
        return m_table

    def _fragment_two(self, gamma: float, beta: float) -> np.ndarray:
        """Fragment 2: all ``4^k`` prep variants as one batched engine call.

        Returns the ``(n_masks2, 4^k)`` table ``R[u, s] = Σ_x p_s(x)
        (-1)^popcount(x & mask_u)`` for the deduplicated fragment-2 masks.
        """
        rows = self._prep_block.shape[0]
        g = np.full((rows, 1), gamma)
        b = np.full((rows, 1), beta)
        results = self.sim2.simulate_qaoa_batch(g, b, sv0=self._prep_block)
        r_table = np.empty((len(self._masks2), rows), dtype=np.float64)
        for s, res in enumerate(results):
            probs = np.asarray(self.sim2.get_probabilities(res),
                               dtype=np.float64).reshape(-1)
            r_table[:, s] = self._signs2 @ probs
        return r_table

    # -- public API ----------------------------------------------------------
    def expectation(self, gammas: Sequence[float] | np.ndarray,
                    betas: Sequence[float] | np.ndarray) -> float:
        """The cut-QAOA expectation ``<γβ|Ĉ|γβ>`` for one schedule."""
        g, b = validate_angles(gammas, betas)
        if g.shape[0] != 1:
            raise CutUnsupportedError(
                f"p={g.shape[0]} schedules re-entangle the fragments after "
                "the cut; the exact wire-cut decomposition only exists for "
                "p=1 (see the ROADMAP follow-ups for deeper cuts)")
        gamma, beta = float(g[0]), float(b[0])
        k = self.spec.n_cuts

        t0 = time.perf_counter()
        if self.n_workers > 1:
            with ThreadPoolExecutor(max_workers=2) as pool:
                f1 = pool.submit(self._fragment_one, gamma, beta)
                f2 = pool.submit(self._fragment_two, gamma, beta)
                m_table, r_table = f1.result(), f2.result()
        else:
            m_table = self._fragment_one(gamma, beta)
            r_table = self._fragment_two(gamma, beta)
        t1 = time.perf_counter()

        total = self.assignment.offset
        for t, w in enumerate(self._weights):
            total += w * recombine_term(m_table[self._u1[t]],
                                        r_table[self._u2[t]], k)
        t2 = time.perf_counter()

        self.stats.evaluations += 1
        self.stats.fragments_evaluated += 2
        self.stats.variants_evaluated += 1 + 4 ** k
        self.stats.recombined_terms += len(self._weights)
        self.stats.tensor_contractions += len(self._weights)
        self.stats.fragment_wall_s += t1 - t0
        self.stats.recombine_wall_s += t2 - t1
        return float(total)


def cut_qaoa_expectation(n_qubits: int,
                         terms: Iterable[tuple[float, Iterable[int]]],
                         gammas: Sequence[float] | np.ndarray,
                         betas: Sequence[float] | np.ndarray,
                         **pipeline_kwargs: Any) -> float:
    """One-shot cut-QAOA expectation (see :class:`CutQAOAPipeline`).

    Builds the fragment pipeline, evaluates the single ``p = 1`` schedule
    and returns ``<γβ|Ĉ|γβ>``.  All keyword arguments are forwarded to
    :class:`CutQAOAPipeline` (``partition``, ``cut_qubits``, ``max_cuts``,
    ``backend``, ``precision``, backend constructor kwargs, ...).
    For repeated evaluations — e.g. inside an optimizer loop — construct
    the pipeline once (or use :class:`CutQAOAObjective`) so the fragment
    simulators and variant states are reused.
    """
    pipeline = CutQAOAPipeline(n_qubits, terms, **pipeline_kwargs)
    return pipeline.expectation(gammas, betas)


@dataclass
class CutQAOAObjective:
    """Callable cut-QAOA objective with the standard evaluation bookkeeping.

    The optimizer-facing twin of :class:`repro.qaoa.QAOAObjective`: calling
    it with a flat ``theta = (γ, β)`` vector evaluates the cut pipeline and
    records the evaluation, so optimization drivers can swap a monolithic
    objective for a cut one without touching their loop.
    """

    pipeline: CutQAOAPipeline
    n_evaluations: int = 0
    best_value: float = np.inf
    best_parameters: np.ndarray | None = None
    history: list[float] = field(default_factory=list)

    @classmethod
    def build(cls, n_qubits: int,
              terms: Iterable[tuple[float, Iterable[int]]],
              **pipeline_kwargs: Any) -> "CutQAOAObjective":
        """Construct the fragment pipeline and wrap it as an objective."""
        return cls(pipeline=CutQAOAPipeline(n_qubits, terms,
                                            **pipeline_kwargs))

    @property
    def stats(self) -> CuttingStats:
        """The wrapped pipeline's cutting telemetry."""
        return self.pipeline.stats

    def __call__(self, theta: Sequence[float] | np.ndarray) -> float:
        gammas, betas = split_parameters(theta)
        value = self.pipeline.expectation(gammas, betas)
        self._record_evaluation(np.asarray(theta, dtype=np.float64), value)
        return value

    # mirror EvaluationBookkeepingMixin (kept local: the mixin lives in
    # repro.qaoa and importing it here would cycle through the facade)
    def _record_evaluation(self, theta: np.ndarray, value: float) -> None:
        self.n_evaluations += 1
        self.history.append(float(value))
        if value < self.best_value:
            self.best_value = float(value)
            self.best_parameters = np.array(theta, dtype=np.float64)

    def reset_statistics(self) -> None:
        """Clear the evaluation counters and history."""
        self.n_evaluations = 0
        self.best_value = np.inf
        self.best_parameters = None
        self.history.clear()
