"""A QAOA objective whose evaluations ride the serving layer.

:class:`ServedQAOAObjective` is the serving-side twin of
:class:`repro.qaoa.QAOAObjective`: the same ``f(theta) -> float`` contract
(so it drops into :func:`repro.qaoa.minimize_qaoa` and friends unchanged)
and the same evaluation bookkeeping
(:class:`~repro.qaoa.objective.EvaluationBookkeepingMixin`), but every
evaluation is a :class:`~repro.serve.QAOAService` submission instead of a
direct simulator call.  The payoff is cross-optimizer sharing: when several
optimizer runs work the same problem concurrently — restarts of the same
schedule, a population sweeping a grid — their evaluations land in one
routing key, micro-batch into fused engine calls, and exact duplicates are
evaluated once.

``evaluate_batch`` submits its rows concurrently through
:meth:`~repro.serve.QAOAService.submit_future`, which is precisely what lets
the batcher see them as one flush.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

import numpy as np

from ..qaoa.objective import EvaluationBookkeepingMixin
from ..qaoa.parameters import split_parameters

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .service import QAOAService

__all__ = ["ServedQAOAObjective"]


@dataclass
class ServedQAOAObjective(EvaluationBookkeepingMixin):
    """Callable QAOA expectation objective evaluated through a service.

    Construct via :meth:`repro.serve.QAOAService.objective`.  Routing
    overrides (``backend``, ``mixer``, ``precision``) default
    to the service's own defaults when ``None``; ``timeout`` bounds each
    blocking evaluation.
    """

    service: "QAOAService"
    n_qubits: int
    p: int
    terms: list
    backend: str | None = None
    mixer: str | None = None
    precision: str | None = None
    timeout: float | None = None
    #: running statistics (see EvaluationBookkeepingMixin)
    n_evaluations: int = 0
    best_value: float = np.inf
    best_parameters: np.ndarray | None = None
    history: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.p <= 0:
            raise ValueError("p must be positive")

    def _routing_kwargs(self) -> dict:
        return {"backend": self.backend, "mixer": self.mixer,
                "precision": self.precision}

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, gammas, betas) -> float:
        """Evaluate the expectation for explicit (γ, β) schedules (blocking)."""
        value = self.service.submit_sync(self.n_qubits, self.terms, gammas,
                                         betas, timeout=self.timeout,
                                         **self._routing_kwargs())
        theta = np.concatenate([np.asarray(gammas, dtype=np.float64),
                                np.asarray(betas, dtype=np.float64)])
        self._record_evaluation(theta, float(value))
        return float(value)

    def evaluate_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Evaluate a ``(B, 2p)`` batch of flat parameter vectors.

        All rows are submitted before any result is collected, so they
        accumulate in the service's micro-batch queue and flush as (at most
        a few) fused engine calls; duplicate rows coalesce into single
        evaluations.
        """
        arr = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[1] != 2 * self.p:
            raise ValueError(
                f"thetas must be (batch, {2 * self.p}) shaped for p={self.p}, "
                f"got {arr.shape}"
            )
        futures = [
            self.service.submit_future(self.n_qubits, self.terms,
                                       row[:self.p], row[self.p:],
                                       **self._routing_kwargs())
            for row in arr
        ]
        values = np.array([future.result(self.timeout) for future in futures],
                          dtype=np.float64)
        for theta, value in zip(arr, values):
            self._record_evaluation(theta, float(value))
        return values

    def __call__(self, theta: np.ndarray) -> float:
        gammas, betas = split_parameters(theta)
        if gammas.shape[0] != self.p:
            raise ValueError(
                f"parameter vector encodes p={gammas.shape[0]}, "
                f"objective expects p={self.p}"
            )
        return self.evaluate(gammas, betas)
