"""Per-routing-key micro-batching: the queue that turns concurrency into B.

Every admitted request is routed to exactly one :class:`KeyBatcher` by its
:class:`RouteKey` — the tuple under which evaluations may legally share one
fused engine call: same problem fingerprint (hence the same precomputed
diagonal), same backend/mixer/precision (hence the same simulator
and compiled plan) and same depth ``p`` (batched angle arrays are ``(B, p)``
shaped, so mixed depths can never ride one batch).  Mixed-key traffic
therefore *cannot* cross-batch by construction.

A batcher accumulates requests for a configurable window (``window_s``) or
until ``max_batch`` requests are queued, whichever comes first, then flushes
them as **one** ``get_expectation_batch`` call.  Within a flush, requests
with bit-identical parameters are *coalesced*: the engine evaluates each
distinct ``(γ, β)`` row once and the value fans out to every waiting future.
Under serving traffic — many users optimizing the same problem family from
the same starting schedules — this is where N concurrent requests collapse
into one evaluation.

All batcher state is event-loop confined: :meth:`KeyBatcher.enqueue` must be
called from the loop, and only the engine execution itself is handed to the
service's thread pool.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field

import numpy as np

from .stats import ServiceStats

__all__ = ["RouteKey", "PendingRequest", "KeyBatcher"]


@dataclass(frozen=True)
class RouteKey:
    """The tuple under which requests may share one fused engine batch.

    Two requests with equal keys run on the same (LRU-cached) simulator —
    reusing its process-wide cached diagonal, resolved phase tables and
    compiled execution plan — and may ride the same micro-batch.  ``p`` is
    part of the key because batched schedules are ``(B, p)`` arrays and the
    compiled plan is depth-specific.
    """

    fingerprint: str
    n_qubits: int
    backend: str
    mixer: str
    precision: str
    p: int


@dataclass
class PendingRequest:
    """One admitted request waiting in a key's micro-batch queue."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]
    future: asyncio.Future
    #: ``time.perf_counter()`` at enqueue; queue-wait latency is measured
    #: from here to the flush's execution start
    enqueued_at: float = field(default_factory=time.perf_counter)

    @property
    def params_key(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Exact-duplicate coalescing key: the bit-identical angle schedules."""
        return (self.gammas, self.betas)


#: Signature of the execution callable the service hands each batcher:
#: ``(key, (B, p) gammas, (B, p) betas) -> awaitable length-B float64 array``.
ExecuteFn = Callable[["RouteKey", np.ndarray, np.ndarray],
                     Awaitable[np.ndarray]]


class KeyBatcher:
    """Micro-batching queue and flush loop for one routing key.

    The flush task is started lazily by the first enqueue and exits when the
    queue drains, so idle keys cost nothing.  While a flush's engine call is
    in flight (on the service's executor), newly enqueued requests accumulate
    for the *next* flush — per-key execution is strictly serialized, which is
    what lets coalescing tests reason about exactly one engine batch.
    """

    def __init__(self, key: RouteKey, execute: ExecuteFn, *,
                 window_s: float, max_batch: int,
                 stats: ServiceStats) -> None:
        if window_s < 0:
            raise ValueError("window_s must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.key = key
        self._execute = execute
        self._window_s = float(window_s)
        self._max_batch = int(max_batch)
        self._stats = stats
        self._queue: deque[PendingRequest] = deque()
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None

    # -- introspection -------------------------------------------------------
    @property
    def max_batch(self) -> int:
        """The (admission-clamped) flush size bound for this key."""
        return self._max_batch

    @property
    def depth(self) -> int:
        """Requests currently queued (not yet handed to the engine)."""
        return len(self._queue)

    @property
    def idle(self) -> bool:
        """Whether the batcher has no queued work and no running flush task."""
        return not self._queue and (self._task is None or self._task.done())

    def drain_task(self) -> asyncio.Task | None:
        """The running flush task, if any (awaited by the service on close)."""
        return self._task

    # -- the micro-batching loop ---------------------------------------------
    def enqueue(self, request: PendingRequest) -> None:
        """Queue a request and (re)start the flush task.  Loop-confined."""
        self._queue.append(request)
        if len(self._queue) >= self._max_batch:
            self._wake.set()
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._drain(),
                name=f"repro-serve-flush-{self.key.fingerprint[:8]}",
            )

    async def _drain(self) -> None:
        """Flush micro-batches until the queue is empty, then exit."""
        while self._queue:
            if self._window_s > 0 and len(self._queue) < self._max_batch:
                # Hold the batching window open: flush early when max_batch
                # accumulates (enqueue sets the wake event), else on timeout.
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), self._window_s)
                except asyncio.TimeoutError:
                    pass
            count = min(len(self._queue), self._max_batch)
            batch = [self._queue.popleft() for _ in range(count)]
            await self._flush(batch)

    async def _flush(self, batch: list[PendingRequest]) -> None:
        """Coalesce one micro-batch, execute it, fan results out to futures."""
        groups: dict[tuple, list[PendingRequest]] = {}
        for request in batch:
            groups.setdefault(request.params_key, []).append(request)
        gammas = np.array([g for g, _ in groups], dtype=np.float64)
        betas = np.array([b for _, b in groups], dtype=np.float64)
        start = time.perf_counter()
        queue_waits = [start - request.enqueued_at for request in batch]
        try:
            values = await self._execute(self.key, gammas, betas)
        except Exception as exc:
            # The engine call failed: the exception fans out to every waiter
            # (duplicates included), and the drain loop keeps serving.
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
            self._stats.record_batch_failure(len(batch))
            return
        execution_s = time.perf_counter() - start
        for value, requests in zip(values, groups.values()):
            for request in requests:
                if not request.future.done():  # caller may have cancelled
                    request.future.set_result(float(value))
        self._stats.record_batch(size=len(batch), unique=len(groups),
                                 queue_waits=queue_waits,
                                 execution_s=execution_s)
