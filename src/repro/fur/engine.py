"""Layered execution engine shared by every simulator backend.

Before this module existed, the orchestration of batched QAOA evaluation —
layer sequencing, phase-table reuse, memory-budgeted sub-batch splitting,
scratch-block lifetime and the float64 accumulation policy — was
re-implemented once per backend family (a ``FusedBatchEngineMixin`` plus three
per-backend fused loops), and the distributed backends evaluated one
schedule at a time.  The engine extracts that orchestration into exactly one
place:

* a ``(p, n_trotters, batch-memory-budget, reduce)`` shape is *compiled*
  into an :class:`ExecutionPlan` carrying everything resolved up front (the
  phase tables, the validated budget);
* plans are cached per simulator (next to the resolved-diagonal/phase-table
  caches the base class already keeps), so repeated evaluation at the same
  depth — the Fig. 2 optimization loop — pays for exactly one compilation;
* execution is one fixed layer walk over ``(rows, 2^n)`` state blocks: stage
  the block, apply each layer through the provider's
  :meth:`~KernelProvider._apply_layer_block` hook and, when the batch is
  reduced to objective values, let the last layer run through
  :meth:`~KernelProvider._apply_last_layer_expectations` — splitting batches
  that exceed the memory budget into sub-batches and reusing one mixer
  scratch block per sub-batch;
* backends participate through the narrow :class:`KernelProvider` protocol
  (stage a block, apply one layer to it, reduce it, split it, release it) —
  a new backend, mixer or device is a ~100-line kernel provider, never a
  fourth copy of the orchestration loop.

One QAOA layer is the paper's two streaming sweeps over the diagonal and
the state: a phase sweep, then a mixer sweep.  The base class composes the
two layer hooks from the ``_apply_phase_block``/``_apply_mixer_block``/
``_block_expectations`` primitives; a provider with a fused kernel (phase
riding the first mixer pass, or the reduction riding the last one)
overrides the hook instead.  Layers run through an overridden
:meth:`~KernelProvider._apply_layer_block` are counted in
:attr:`EngineStats.fused_ops_executed`.

The engine is the only evaluation path: a single-schedule
:meth:`~repro.fur.base.QAOAFastSimulatorBase.simulate_qaoa` call is a
one-row :meth:`ExecutionEngine.simulate_batch`, so no backend keeps a layer
loop of its own.  Execution holds the owning simulator's execution lock,
because providers keep per-simulator scratch (workspaces, gather and swap
buffers, shard layouts) that concurrent calls would otherwise share.
"""

from __future__ import annotations

import math
import operator
import threading
import time
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

from .base import QAOAFastSimulatorBase, validate_angle_batches
from .capabilities import UnsupportedCapabilityError, require_capability
from .diagonal import CompressedDiagonal

__all__ = [
    "UnsupportedCapabilityError",
    "ExecutionPlan",
    "EngineStats",
    "KernelProvider",
    "ExecutionEngine",
]


def _validate_n_trotters(n_trotters: Any) -> int:
    """``n_trotters`` as a positive int; a non-integral value is an error
    (truncating ``2.9`` to 2 slices would silently change the circuit)."""
    try:
        value = operator.index(n_trotters)
    except TypeError:
        raise ValueError(
            f"n_trotters must be an integer, got {n_trotters!r}") from None
    if value < 1:
        raise ValueError("n_trotters must be at least 1")
    return value


def _validate_memory_budget(memory_budget: Any) -> float | None:
    """``None`` (backend default) or a finite, positive byte count."""
    if memory_budget is None:
        return None
    budget = float(memory_budget)
    if not (math.isfinite(budget) and budget > 0):
        raise ValueError(
            f"memory_budget must be a finite positive number of bytes, "
            f"got {memory_budget!r}")
    return budget


def _plan_key(p: int, n_trotters: int, memory_budget: float | None,
              reduce: bool, precision: str) -> tuple:
    """The plan-cache key — the single definition shared by the engine's
    cache lookup and :attr:`ExecutionPlan.key`."""
    return (int(p), int(n_trotters), memory_budget, bool(reduce), precision)


# ---------------------------------------------------------------------------
# Plans and statistics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionPlan:
    """A compiled, cacheable recipe for evaluating batches of QAOA schedules.

    Every plan is walked the same way (stage, ``p`` layers, optional
    reduction riding the last one); what the plan carries is everything
    resolved at compile time (the phase tables, the memory budget), so
    execution touches no caches.
    """

    #: number of QAOA layers p
    p: int
    #: mixer family of the owning simulator ("x", "xyring", "xycomplete")
    mixer: str
    #: simulation precision name of the owning simulator
    precision: str
    #: Trotter slices per mixer application (XY mixers)
    n_trotters: int
    #: memory budget (bytes) for block scratch; ``None`` = backend default
    memory_budget: float | None
    #: whether the last layer reduces the block to objective values
    reduce: bool
    #: provider-specific phase-table object(s) resolved at compile time
    #: (a :class:`~repro.fur.diagonal.DiagonalPhaseTable` for single-address-
    #: space backends, a per-rank tuple for the distributed families, or
    #: ``None`` when the diagonal is not repetitive enough)
    phase_tables: Any
    #: wall-clock seconds spent compiling this plan (includes the first
    #: phase-table build when it was not already cached on the simulator)
    compile_time_s: float

    @property
    def key(self) -> tuple:
        """The cache key this plan is stored under."""
        return _plan_key(self.p, self.n_trotters, self.memory_budget,
                         self.reduce, self.precision)


@dataclass
class EngineStats:
    """Counters describing one engine's activity (feeds ``--engine-report``)."""

    plan_compiles: int = 0
    plan_cache_hits: int = 0
    compile_time_s: float = 0.0
    #: wall-clock seconds providers spent JIT-compiling kernels (numba type
    #: specialization or the jit tier's one-time C build) — reported apart
    #: from plan compilation and never included in execution timings
    kernel_compile_time_s: float = 0.0
    blocks_executed: int = 0
    rows_executed: int = 0
    #: always 0 (there is no looped path); kept because benchmark reports read it
    looped_evaluations: int = 0
    #: layers executed through a provider's fused ``_apply_layer_block``
    #: kernel, counted once per layer per block
    fused_ops_executed: int = 0
    #: always 0 (no op is ever dropped); kept because benchmark reports read it
    ops_eliminated: int = 0
    #: slab-exchange messages sent by the in-process sharded backend (one
    #: pairwise slab swap counts two messages, mirroring the MPI traces)
    shard_exchanges: int = 0
    #: bytes moved between shards by those exchanges
    exchange_bytes: int = 0
    #: per-shard busy seconds inside parallel shard dispatches
    shard_busy_s: dict[int, float] = field(default_factory=dict)
    #: wall-clock seconds spent inside parallel shard dispatches (the
    #: denominator of the per-shard busy fractions)
    shard_wall_s: float = 0.0

    def as_dict(self) -> dict:
        """Plain-dict snapshot for JSON reports."""
        return {
            "plan_compiles": self.plan_compiles,
            "plan_cache_hits": self.plan_cache_hits,
            "compile_time_s": self.compile_time_s,
            "kernel_compile_time_s": self.kernel_compile_time_s,
            "blocks_executed": self.blocks_executed,
            "rows_executed": self.rows_executed,
            "looped_evaluations": self.looped_evaluations,
            "fused_ops_executed": self.fused_ops_executed,
            "ops_eliminated": self.ops_eliminated,
            "shard_exchanges": self.shard_exchanges,
            "exchange_bytes": self.exchange_bytes,
            "shard_busy_fraction": self.shard_busy_fractions(),
        }

    def shard_busy_fractions(self) -> dict[str, float]:
        """Per-shard busy fraction of the parallel-dispatch wall clock.

        Empty for non-sharded backends (no shard dispatch was ever recorded);
        a fraction near 1.0 for every shard means the worker pool was
        load-balanced, a lone hot shard means a skewed slab assignment.
        """
        if self.shard_wall_s <= 0.0:
            return {}
        return {str(s): busy / self.shard_wall_s
                for s, busy in sorted(self.shard_busy_s.items())}


# ---------------------------------------------------------------------------
# The kernel-provider protocol backends implement.
# ---------------------------------------------------------------------------

@runtime_checkable
class KernelProvider(Protocol):
    """The per-backend surface the execution engine drives.

    Every simulator backend implements these hooks.  ``block`` is an opaque
    backend object — a host ``(rows, 2^n)`` ndarray, a device-resident
    block, or a list of per-rank slice blocks for the distributed families;
    the engine never looks inside it.  ``_stage_block`` accepts ``sv0=None``
    (``|+>^n``), a shared 1-D state or a ``(rows, 2^n)`` per-row block.
    """

    #: whether the mixer consumes a ping-pong scratch block
    _mixer_needs_scratch: bool

    def _batch_rows(self, remaining: int, memory_budget: float | None) -> int:
        """Rows of the next sub-batch (re-derived as device results accumulate)."""
        ...

    def _stage_block(self, sv0: np.ndarray | None, rows: int) -> Any:
        """Materialize (and, for device backends, upload) a ``rows``-row block
        from ``None``, a shared 1-D state or a ``(rows, 2^n)`` per-row block."""
        ...

    def _mixer_scratch(self, block: Any) -> Any:
        """Allocate the per-sub-batch ping-pong scratch for the mixer."""
        ...

    def _apply_layer_block(self, block: Any, gammas: np.ndarray,
                           betas: np.ndarray, n_trotters: int, scratch: Any,
                           plan: ExecutionPlan) -> None:
        """One QAOA layer: the phase sweep, then the mixer sweep."""
        ...

    def _apply_last_layer_expectations(self, block: Any, gammas: np.ndarray,
                                       betas: np.ndarray, n_trotters: int,
                                       scratch: Any, costs: Any,
                                       plan: ExecutionPlan) -> np.ndarray:
        """The last layer followed by the per-row (float64) reduction."""
        ...

    def _block_results(self, block: Any) -> list[Any]:
        """Split a block into per-schedule backend result objects."""
        ...

    def _release_block(self, block: Any) -> None:
        """Free a block after its reduction (device backends)."""
        ...

    def _stage_batch_costs(self, resolved: np.ndarray) -> Any:
        """Stage a resolved float64 diagonal for the whole batch (device hook)."""
        ...

    def _release_batch_costs(self, staged: Any) -> None:
        """Release a diagonal staged by :meth:`_stage_batch_costs`."""
        ...


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------

class ExecutionEngine:
    """Compiles and executes :class:`ExecutionPlan`\\ s for one simulator.

    One engine is owned (lazily) by each simulator instance; its plan cache
    lives alongside the simulator's resolved-diagonal and phase-table caches
    and shares their lifetime.  All batched evaluation of every backend
    routes through :meth:`simulate_batch` / :meth:`expectation_batch`.

    The plan cache and the statistics counters are guarded by a per-engine
    lock: the serving layer (:mod:`repro.serve`) drives engines from a thread
    pool, and an unguarded racing first compile would double-compile the plan
    and tear the stats bookkeeping.  Plan compilation is single-flight (the
    lock is held across the compile).  Block execution holds the simulator's
    execution lock instead, so concurrent calls on one simulator run one at
    a time and never share its scratch buffers mid-flight.
    """

    def __init__(self, simulator: QAOAFastSimulatorBase) -> None:
        # Weak: the simulator owns its engine, so a strong back-reference
        # would make every simulator a reference cycle whose 2^n-sized
        # arrays only the cyclic garbage collector frees.
        self._sim_ref = weakref.ref(simulator)
        self._plans: dict[tuple, ExecutionPlan] = {}
        #: guards the plan cache and stats (reentrant: compile records stats)
        self._lock = threading.RLock()
        self.stats = EngineStats()
        #: whether the provider runs a layer as one fused kernel
        self._fused_layers = (type(simulator)._apply_layer_block
                              is not QAOAFastSimulatorBase._apply_layer_block)

    # -- plan compilation ----------------------------------------------------
    @property
    def _sim(self) -> QAOAFastSimulatorBase:
        sim = self._sim_ref()
        if sim is None:
            raise ReferenceError("the simulator owning this engine no longer exists")
        return sim

    @property
    def simulator(self) -> QAOAFastSimulatorBase:
        """The simulator this engine drives."""
        return self._sim

    def plan_cache_size(self) -> int:
        """Number of compiled plans currently cached."""
        with self._lock:
            return len(self._plans)

    def clear_plans(self) -> None:
        """Drop every cached plan (the next evaluation recompiles)."""
        with self._lock:
            self._plans.clear()

    # -- shard telemetry (recorded by sharded providers) ---------------------
    def record_shard_exchange(self, messages: int, nbytes: int) -> None:
        """Account one slab exchange: message count and bytes moved."""
        with self._lock:
            self.stats.shard_exchanges += int(messages)
            self.stats.exchange_bytes += int(nbytes)

    def record_shard_dispatch(self, busy_s: Sequence[float],
                              wall_s: float) -> None:
        """Account one parallel shard dispatch: per-shard busy + wall time."""
        with self._lock:
            self.stats.shard_wall_s += float(wall_s)
            busy = self.stats.shard_busy_s
            for shard, seconds in enumerate(busy_s):
                busy[shard] = busy.get(shard, 0.0) + float(seconds)

    def plan(self, p: int, *, n_trotters: int = 1,
             memory_budget: float | None = None,
             reduce: bool = True) -> ExecutionPlan:
        """The cached plan for a depth/budget tuple, compiling on first use.

        ``n_trotters`` and ``memory_budget`` are validated here, before the
        lookup, so a malformed value raises :class:`ValueError` instead of
        compiling (and caching) a plan.  The cache key includes the
        simulator precision, so a precision change (a new simulator) or a
        ``p``/``n_trotters``/budget change recompiles while repeated
        evaluation at the same shape hits the cache.
        """
        if p <= 0:
            raise ValueError("p must be positive")
        n_trotters = _validate_n_trotters(n_trotters)
        memory_budget = _validate_memory_budget(memory_budget)
        key = _plan_key(p, n_trotters, memory_budget, reduce,
                        self._sim.precision)
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self.stats.plan_cache_hits += 1
                return cached
            start = time.perf_counter()
            # Resolving the phase tables here (rather than per sub-batch) makes
            # the first compile pay the one-time unique-value factorization; the
            # simulator-level cache makes subsequent compiles near-free.
            tables = self._sim._engine_phase_tables()
            plan = ExecutionPlan(
                p=int(p),
                mixer=self._sim.mixer_name,
                precision=self._sim.precision,
                n_trotters=n_trotters,
                memory_budget=memory_budget,
                reduce=bool(reduce),
                phase_tables=tables,
                compile_time_s=time.perf_counter() - start,
            )
            self._plans[key] = plan
            self.stats.plan_compiles += 1
            self.stats.compile_time_s += plan.compile_time_s
            return plan

    # -- argument resolution -------------------------------------------------
    @staticmethod
    def _resolve_sv0(sv0: np.ndarray | None,
                     batch: int) -> tuple[np.ndarray | None, bool]:
        """Normalize ``sv0``; ``per_row`` is true for a ``(B, 2^n)`` block
        carrying one initial state per schedule row."""
        if sv0 is None:
            return None, False
        arr = np.asarray(sv0)
        if arr.ndim != 2:
            return arr, False
        if arr.shape[0] != batch:
            raise ValueError(
                f"per-row initial-state block has {arr.shape[0]} rows for a "
                f"batch of {batch} schedules"
            )
        return arr, True

    @staticmethod
    def _n_trotters(kwargs: dict) -> Any:
        """Extract ``n_trotters`` from the call's kwargs, reject the rest
        (the value itself is validated by :meth:`plan`)."""
        n_trotters = kwargs.pop("n_trotters", 1)
        if kwargs:
            raise TypeError(f"unexpected keyword arguments: {sorted(kwargs)}")
        return n_trotters

    # -- execution -----------------------------------------------------------
    def _run_block(self, plan: ExecutionPlan, g_sub: np.ndarray,
                   b_sub: np.ndarray, sv0: np.ndarray | None,
                   staged_costs: Any) -> tuple[Any, np.ndarray | None]:
        """Walk one sub-batch block through the plan's ``p`` layers."""
        sim = self._sim
        block = sim._stage_block(sv0, g_sub.shape[0])
        scratch = sim._mixer_scratch(block) if sim._mixer_needs_scratch else None
        last = plan.p - 1 if plan.reduce else plan.p
        for layer in range(last):
            sim._apply_layer_block(block, g_sub[:, layer], b_sub[:, layer],
                                   plan.n_trotters, scratch, plan)
        values = None
        if plan.reduce:
            values = sim._apply_last_layer_expectations(
                block, g_sub[:, last], b_sub[:, last], plan.n_trotters,
                scratch, staged_costs, plan)
        with self._lock:
            if self._fused_layers:
                self.stats.fused_ops_executed += plan.p
            self.stats.blocks_executed += 1
            self.stats.rows_executed += int(g_sub.shape[0])
        return block, values

    def _sub_batches(self, batch: int, memory_budget: float | None):
        """Yield ``(r0, r1)`` sub-batch bounds honouring the memory budget.

        The provider's :meth:`~KernelProvider._batch_rows` is consulted once
        per sub-batch with the *remaining* schedule count, so device backends
        whose per-row results stay resident can shrink later sub-batches as
        memory fills.
        """
        r0 = 0
        while r0 < batch:
            rows = self._sim._batch_rows(batch - r0, memory_budget)
            yield r0, min(r0 + rows, batch)
            r0 = min(r0 + rows, batch)

    def simulate_batch(self, gammas_batch, betas_batch,
                       sv0: np.ndarray | None = None, *,
                       memory_budget: float | None = None,
                       **kwargs: Any) -> list[Any]:
        """Evolve a batch of schedules; one backend result object per schedule.

        Requires a ``statevector``-capable backend: an ``expectation-only``
        family (e.g. tensornet) raises
        :class:`~repro.fur.capabilities.UnsupportedCapabilityError` up front
        instead of failing deep inside the block walk.
        """
        require_capability(self._sim, "statevector")
        g, b = validate_angle_batches(gammas_batch, betas_batch)
        plan = self.plan(g.shape[1], n_trotters=self._n_trotters(kwargs),
                         memory_budget=memory_budget, reduce=False)
        sv0, per_row = self._resolve_sv0(sv0, g.shape[0])
        results: list[Any] = []
        with self._sim._exec_lock:
            for r0, r1 in self._sub_batches(g.shape[0], plan.memory_budget):
                block, _ = self._run_block(plan, g[r0:r1], b[r0:r1],
                                           sv0[r0:r1] if per_row else sv0,
                                           None)
                results.extend(self._sim._block_results(block))
        return results

    def expectation_batch(self, gammas_batch, betas_batch,
                          costs: np.ndarray | CompressedDiagonal | None = None,
                          sv0: np.ndarray | None = None, *,
                          memory_budget: float | None = None,
                          **kwargs: Any) -> np.ndarray:
        """Objective values for a batch of schedules, as a length-``B`` array.

        The diagonal is resolved to float64 exactly once for the whole batch
        (the engine-wide accumulation policy); evolved blocks are released
        after their reduction, so peak memory follows the budget, not the
        batch size.
        """
        require_capability(self._sim, "expectation")
        g, b = validate_angle_batches(gammas_batch, betas_batch)
        plan = self.plan(g.shape[1], n_trotters=self._n_trotters(kwargs),
                         memory_budget=memory_budget, reduce=True)
        resolved_costs = self._sim._resolve_costs(costs)
        sv0, per_row = self._resolve_sv0(sv0, g.shape[0])
        out = np.empty(g.shape[0], dtype=np.float64)
        with self._sim._exec_lock:
            staged = self._sim._stage_batch_costs(resolved_costs)
            try:
                for r0, r1 in self._sub_batches(g.shape[0], plan.memory_budget):
                    block, values = self._run_block(
                        plan, g[r0:r1], b[r0:r1],
                        sv0[r0:r1] if per_row else sv0, staged)
                    try:
                        out[r0:r1] = values
                    finally:
                        self._sim._release_block(block)
            finally:
                self._sim._release_batch_costs(staged)
        return out
