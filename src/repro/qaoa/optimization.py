"""QAOA parameter-optimization drivers (the workflow the simulator accelerates).

The paper's headline end-to-end result is the reduction of the wall-clock time
of a *typical QAOA parameter optimization* (Fig. 1): a local optimizer
repeatedly evaluates the objective for different (γ, β), and every evaluation
is a full state-vector simulation.  These drivers wrap ``scipy.optimize`` with
the bookkeeping needed by the benchmark harness (evaluation counts, wall-clock
time, history) and implement the depth-progression strategy (optimize at depth
p, INTERP-extend to p+1, re-optimize) used to reach high depths.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as sciopt

from .objective import QAOAObjective
from .parameters import interp_extrapolate, linear_ramp_parameters, split_parameters, stack_parameters

__all__ = [
    "OptimizationResult",
    "GridScanResult",
    "minimize_qaoa",
    "progressive_depth_optimization",
    "grid_scan_qaoa",
    "population_optimize",
]

#: Optimizers known to behave well on the low-dimensional, noisy-free QAOA
#: landscape.  COBYLA is the default, matching common practice.
SUPPORTED_METHODS = ("COBYLA", "Nelder-Mead", "Powell", "BFGS", "L-BFGS-B", "SLSQP")


@dataclass
class OptimizationResult:
    """Outcome of one QAOA parameter optimization."""

    gammas: np.ndarray
    betas: np.ndarray
    value: float
    n_evaluations: int
    wall_time: float
    method: str
    history: list[float] = field(default_factory=list)
    scipy_result: object | None = None

    @property
    def p(self) -> int:
        """QAOA depth of the optimized schedule."""
        return int(self.gammas.shape[0])


def minimize_qaoa(objective: QAOAObjective,
                  initial_gammas: np.ndarray | None = None,
                  initial_betas: np.ndarray | None = None, *,
                  method: str = "COBYLA", maxiter: int = 200,
                  rhobeg: float = 0.1, tol: float | None = None) -> OptimizationResult:
    """Run a local optimization of the QAOA objective.

    Parameters default to the linear-ramp initialization at the objective's
    depth.  ``rhobeg`` is passed to COBYLA (initial trust-region radius); other
    methods receive scipy defaults.
    """
    if method not in SUPPORTED_METHODS:
        raise ValueError(f"unsupported method {method!r}; choose from {SUPPORTED_METHODS}")
    if maxiter <= 0:
        raise ValueError("maxiter must be positive")
    if initial_gammas is None or initial_betas is None:
        initial_gammas, initial_betas = linear_ramp_parameters(objective.p)
    theta0 = stack_parameters(initial_gammas, initial_betas)
    if theta0.shape[0] != 2 * objective.p:
        raise ValueError(
            f"initial parameters encode p={theta0.shape[0] // 2}, objective expects p={objective.p}"
        )

    objective.reset_statistics()
    options: dict = {"maxiter": maxiter}
    if method == "COBYLA":
        options["rhobeg"] = rhobeg
    start = time.perf_counter()
    scipy_result = sciopt.minimize(objective, theta0, method=method, tol=tol, options=options)
    wall = time.perf_counter() - start

    best_theta = scipy_result.x if objective.best_parameters is None else objective.best_parameters
    best_value = float(min(scipy_result.fun, objective.best_value))
    gammas, betas = split_parameters(np.asarray(best_theta, dtype=np.float64))
    return OptimizationResult(
        gammas=gammas,
        betas=betas,
        value=best_value,
        n_evaluations=objective.n_evaluations,
        wall_time=wall,
        method=method,
        history=list(objective.history),
        scipy_result=scipy_result,
    )


@dataclass
class GridScanResult:
    """Outcome of a batched (γ, β) landscape scan."""

    gamma_values: np.ndarray
    beta_values: np.ndarray
    #: objective values, shape ``(len(gamma_values), len(beta_values))``
    values: np.ndarray
    best_gamma: float
    best_beta: float
    best_value: float
    n_evaluations: int
    wall_time: float


def grid_scan_qaoa(objective: QAOAObjective,
                   gamma_values: np.ndarray,
                   beta_values: np.ndarray) -> GridScanResult:
    """Exhaustive depth-1 (γ, β) landscape scan through the batch engine.

    The classic QAOA heatmap (the paper's Fig. 2 workload shape): every
    (γ, β) grid point is one objective evaluation over the *same* precomputed
    diagonal.  The whole grid is evaluated in one
    :meth:`~repro.qaoa.objective.QAOAObjective.evaluate_batch` call, so fused
    backends evolve the grid in state blocks instead of one schedule at a
    time (sub-batch splitting keeps memory bounded for dense grids).
    """
    if objective.p != 1:
        raise ValueError(f"grid scan is defined for p=1 objectives, got p={objective.p}")
    gv = np.atleast_1d(np.asarray(gamma_values, dtype=np.float64))
    bv = np.atleast_1d(np.asarray(beta_values, dtype=np.float64))
    if gv.ndim != 1 or bv.ndim != 1 or gv.size == 0 or bv.size == 0:
        raise ValueError("gamma_values and beta_values must be non-empty 1-D grids")
    thetas = np.column_stack([np.repeat(gv, bv.size), np.tile(bv, gv.size)])
    objective.reset_statistics()
    start = time.perf_counter()
    values = objective.evaluate_batch(thetas).reshape(gv.size, bv.size)
    wall = time.perf_counter() - start
    gi, bi = np.unravel_index(int(np.argmin(values)), values.shape)
    return GridScanResult(
        gamma_values=gv,
        beta_values=bv,
        values=values,
        best_gamma=float(gv[gi]),
        best_beta=float(bv[bi]),
        best_value=float(values[gi, bi]),
        n_evaluations=objective.n_evaluations,
        wall_time=wall,
    )


def population_optimize(objective: QAOAObjective, *,
                        generations: int = 20,
                        population_size: int = 32,
                        elite_fraction: float = 0.25,
                        sigma0: float = 0.3,
                        sigma_floor: float = 0.01,
                        seed: int | None = None) -> OptimizationResult:
    """Population-based (cross-entropy) optimization over the batch engine.

    Each generation samples ``population_size`` parameter vectors around the
    current mean, evaluates them all in one batched call (the fused backends
    evolve whole state blocks), and refits mean/spread to the elite fraction.
    Starts from the linear-ramp schedule at the objective's depth; the spread
    never collapses below ``sigma_floor`` so late generations keep exploring.
    """
    if generations <= 0 or population_size <= 0:
        raise ValueError("generations and population_size must be positive")
    if not 0.0 < elite_fraction <= 1.0:
        raise ValueError("elite_fraction must be in (0, 1]")
    if sigma0 <= 0 or sigma_floor < 0:
        raise ValueError("sigma0 must be positive and sigma_floor non-negative")
    rng = np.random.default_rng(seed)
    gammas0, betas0 = linear_ramp_parameters(objective.p)
    mean = stack_parameters(gammas0, betas0)
    sigma = np.full(mean.shape[0], float(sigma0))
    n_elite = max(1, int(round(population_size * elite_fraction)))

    objective.reset_statistics()
    start = time.perf_counter()
    generation_best: list[float] = []
    for _ in range(generations):
        population = mean[None, :] + sigma[None, :] * rng.standard_normal(
            (population_size, mean.shape[0]))
        values = objective.evaluate_batch(population)
        elite = population[np.argsort(values)[:n_elite]]
        mean = elite.mean(axis=0)
        sigma = np.maximum(elite.std(axis=0), sigma_floor)
        generation_best.append(float(values.min()))
    wall = time.perf_counter() - start

    best_theta = objective.best_parameters
    if best_theta is None:  # pragma: no cover - defensive (evaluate_batch always records)
        best_theta = mean
    gammas, betas = split_parameters(np.asarray(best_theta, dtype=np.float64))
    return OptimizationResult(
        gammas=gammas,
        betas=betas,
        value=float(objective.best_value),
        n_evaluations=objective.n_evaluations,
        wall_time=wall,
        method="population",
        history=list(objective.history),
    )


def progressive_depth_optimization(objective_factory, max_p: int, *,
                                   method: str = "COBYLA", maxiter_per_depth: int = 100,
                                   start_p: int = 1) -> list[OptimizationResult]:
    """Optimize depth-by-depth with INTERP parameter transfer.

    ``objective_factory(p)`` must return a fresh :class:`QAOAObjective` of
    depth ``p``.  The depth-``start_p`` schedule starts from the linear ramp;
    each subsequent depth starts from the INTERP extension of the previous
    optimum.  INTERP is a heuristic and a short local search from it can end
    above the previous optimum; the previous schedule padded with an identity
    layer (``γ = β = 0``) reproduces that optimum at the new depth, so it is
    kept as the depth's result whenever it is better, and the best value is
    non-increasing in ``p``.  Returns one :class:`OptimizationResult` per
    depth.
    """
    if start_p <= 0 or max_p < start_p:
        raise ValueError("need 1 <= start_p <= max_p")
    results: list[OptimizationResult] = []
    gammas, betas = linear_ramp_parameters(start_p)
    for p in range(start_p, max_p + 1):
        if results:
            gammas, betas = interp_extrapolate(results[-1].gammas, results[-1].betas, p)
        objective = objective_factory(p)
        if objective.p != p:
            raise ValueError(f"objective_factory({p}) returned an objective of depth {objective.p}")
        result = minimize_qaoa(objective, gammas, betas, method=method,
                               maxiter=maxiter_per_depth)
        if results and result.value > results[-1].value:
            padded_g = np.append(results[-1].gammas, 0.0)
            padded_b = np.append(results[-1].betas, 0.0)
            value = float(objective(stack_parameters(padded_g, padded_b)))
            if value < result.value:
                result = dataclasses.replace(
                    result, gammas=padded_g, betas=padded_b, value=value,
                    n_evaluations=objective.n_evaluations,
                    history=list(objective.history))
        results.append(result)
    return results
