"""Distributed QAOA simulators over the virtual cluster (Sec. III-C, Algorithm 4).

The state vector of ``n`` qubits is split across ``K = 2^k`` virtual ranks;
rank ``r`` holds the contiguous slice of amplitudes whose top ``k`` index bits
equal ``r`` (the paper's *global qubits*).  The cost diagonal is precomputed
slice-by-slice with no communication (the locality property of Sec. III-A),
the phase operator is applied locally, and only the mixer requires moving
data.  Two communication strategies are implemented, mirroring the paper's two
distributed backends:

* :class:`QAOAFURXSimulatorGPUMPI` — the custom ``MPI_Alltoall`` strategy of
  Algorithm 4: two all-to-all exchanges per mixer application, between which
  the previously-global qubits are rotated locally at shifted positions;
* :class:`QAOAFURXSimulatorCUSVMPI` — the cuStateVec-style *distributed index
  swap*: each global qubit is swapped with the top local qubit through a
  pairwise half-slice exchange with the rank differing in that bit, rotated
  locally, and swapped back.

Both are verified bit-exact against the single-node simulators in the
test-suite.  Only the transverse-field (X) mixer is distributed — the same
restriction as the paper's large-scale LABS runs, which use the standard
mixer.

Execution model: the simulator object *drives* the per-rank slices (so results
are deterministic and the communication pattern is explicit and inspectable
via :attr:`traffic_log`); per-rank local kernels can optionally run on a
thread pool (``parallel_local=True``) to overlap work across host cores, and
an SPMD entry point compatible with
:class:`repro.parallel.communicator.ThreadCluster` is provided in
:mod:`repro.fur.mpi.spmd`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from ...parallel.collectives import ALLTOALL_ALGORITHMS, TrafficTrace, alltoall
from ..base import QAOAFastSimulatorBase
from ..cvect.kernels import (
    DEFAULT_BLOCK_SIZE,
    KernelWorkspace,
    apply_phase_batch_inplace,
    apply_su2_batch_blocked,
    expectation_batch_inplace,
)
from ..diagonal import build_phase_table, precompute_cost_diagonal_slice
from ..python.furx import su2_x_rotation_batch

__all__ = [
    "DistributedStateVector",
    "QAOAFURXSimulatorGPUMPI",
    "QAOAFURXSimulatorCUSVMPI",
]


@dataclass
class DistributedStateVector:
    """The per-rank slices of a distributed state vector (a backend *result*)."""

    slices: list[np.ndarray]
    n_qubits: int

    @property
    def n_ranks(self) -> int:
        """Number of ranks holding slices."""
        return len(self.slices)

    def gather(self) -> np.ndarray:
        """Concatenate all slices into the full state vector (``mpi_gather=True``)."""
        return np.concatenate(self.slices)


class _DistributedFURXBase(QAOAFastSimulatorBase):
    """Shared distributed simulation logic; subclasses supply the global-qubit step.

    The class implements the execution engine's
    :class:`~repro.fur.engine.KernelProvider` protocol over *per-rank slice
    blocks* (a list of ``(rows, 2^n−k)`` arrays, one per rank), so batched
    evaluation of the distributed backends is fused exactly like the
    single-address-space families: local phase and SU(2) sweeps are batched
    across all schedules per rank, and the global-qubit communication step is
    batched per strategy (one larger exchange instead of one per schedule
    where the algorithm allows it).  A single-schedule ``simulate_qaoa`` is
    a one-row block.
    """

    mixer_name = "x"

    def __init__(self, n_qubits: int, terms=None, costs=None, *,
                 n_ranks: int = 4, block_size: int = DEFAULT_BLOCK_SIZE,
                 parallel_local: bool = False,
                 precision: str = "double") -> None:
        if n_ranks <= 0 or n_ranks & (n_ranks - 1):
            raise ValueError(f"n_ranks must be a positive power of two, got {n_ranks}")
        k = n_ranks.bit_length() - 1
        if 2 * k > n_qubits:
            raise ValueError(
                f"Algorithm 4 requires 2*log2(K) <= n; got K={n_ranks}, n={n_qubits}"
            )
        self._n_ranks = int(n_ranks)
        self._k_global = k
        self._block_size = int(block_size)
        self._parallel_local = bool(parallel_local)
        self.traffic_log: list[TrafficTrace] = []
        super().__init__(n_qubits, terms=terms, costs=costs,
                         precision=precision)

    # -- construction ------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        """Number of virtual ranks (GPUs) the state is distributed over."""
        return self._n_ranks

    @property
    def n_local_qubits(self) -> int:
        """Number of local (per-rank) qubits ``n − log2 K``."""
        return self._n_qubits - self._k_global

    @property
    def local_states(self) -> int:
        """Amplitudes per rank."""
        return 1 << self.n_local_qubits

    def _precompute_diagonal(self, terms) -> np.ndarray:
        """Slice-local precomputation (no communication), then a host mirror."""
        s = self.local_states
        self._cost_slices = [
            precompute_cost_diagonal_slice(terms, self._n_qubits, r * s, (r + 1) * s)
            for r in range(self._n_ranks)
        ]
        return np.concatenate(self._cost_slices)

    def _ingest_costs(self, costs):
        host = super()._ingest_costs(costs)
        full = host.decompress() if hasattr(host, "decompress") else np.asarray(host, dtype=np.float64)
        s = self.local_states
        self._cost_slices = [full[r * s:(r + 1) * s] for r in range(self._n_ranks)]
        return host

    def _post_init(self) -> None:
        self._workspace = [KernelWorkspace(self.local_states, self._block_size,
                                           dtype=self._precision.complex_dtype)
                           for _ in range(self._n_ranks)]
        # Phase kernels stream a precision-matched diagonal slice; the float64
        # ``_cost_slices`` remain the accumulation-side (expectation) view.
        if self._precision.is_double:
            self._phase_cost_slices = self._cost_slices
        else:
            self._phase_cost_slices = [
                np.ascontiguousarray(c, dtype=self._precision.real_dtype)
                for c in self._cost_slices
            ]

    # -- helpers -------------------------------------------------------------------
    def _map_ranks(self, fn) -> None:
        """Run a per-rank callable, optionally on a thread pool."""
        if self._parallel_local and self._n_ranks > 1:
            with ThreadPoolExecutor(max_workers=min(self._n_ranks, 8)) as pool:
                list(pool.map(fn, range(self._n_ranks)))
        else:
            for r in range(self._n_ranks):
                fn(r)

    # -- kernel-provider hooks (driven by repro.fur.engine) ----------------------------
    def _engine_phase_tables(self) -> tuple:
        """Per-rank unique-value phase tables over the local diagonal slices.

        Built lazily on first plan compile and cached for the simulator's
        lifetime (alongside the slice-local diagonals); an entry is ``None``
        when that rank's slice is not repetitive enough for the gather to pay
        off, in which case the batched phase kernel falls back to the direct
        ``exp`` path for that rank.
        """
        tables = getattr(self, "_phase_table_slices", None)
        if tables is None:
            tables = tuple(build_phase_table(np.asarray(c, dtype=np.float64))
                           for c in self._cost_slices)
            self._phase_table_slices = tables
        return tables

    def _stage_block(self, sv0: np.ndarray | None, rows: int) -> list[np.ndarray]:
        """Materialize one ``(rows, local_states)`` block per rank."""
        return self._stage_slabs(sv0, rows, self._n_ranks)

    def _apply_phase_block(self, block: list[np.ndarray], gammas: np.ndarray,
                           plan: Any) -> None:
        """Batched slice-local phase sweep (no communication, Sec. III-A)."""
        tables = plan.phase_tables

        def work(r: int) -> None:
            table = None if tables is None else tables[r]
            apply_phase_batch_inplace(block[r], self._phase_cost_slices[r],
                                      gammas, self._workspace[r],
                                      phase_table=table)

        self._map_ranks(work)

    def _apply_mixer_block(self, block: list[np.ndarray], betas: np.ndarray,
                           n_trotters: int, scratch: Any) -> None:
        """Batched transverse-field mixer over per-rank slice blocks.

        Local qubits are rotated with the batched blocked SU(2) kernel (one
        sweep covers every schedule); the global qubits go through the
        strategy's batched communication step.  ``n_trotters`` is ignored —
        the X-mixer factors commute exactly — and no ping-pong scratch is
        used (the blocked kernels run in place through the workspaces).
        """
        del n_trotters, scratch
        self._mixer_block_batch(block, betas)

    def _mixer_block_batch(self, block: list[np.ndarray], betas: np.ndarray,
                           phase: tuple[np.ndarray, Any] | None = None) -> None:
        """One batched mixer sweep; the single body both entry points share.

        ``phase=(gammas, tables)`` optionally prepends the slice-local phase
        sweep *inside* the same per-rank dispatch (the fused path): one
        ``_map_ranks`` pass instead of two, with each rank's slice block
        staying cache-hot between the phase multiply and the first rotation.
        """
        a_rows, b_rows = su2_x_rotation_batch(betas)

        def work(r: int) -> None:
            if phase is not None:
                gammas, tables = phase
                apply_phase_batch_inplace(block[r], self._phase_cost_slices[r],
                                          gammas, self._workspace[r],
                                          phase_table=None if tables is None
                                          else tables[r])
            for q in range(self.n_local_qubits):
                apply_su2_batch_blocked(block[r], a_rows, b_rows, q,
                                        self._workspace[r])

        self._map_ranks(work)
        if self._k_global > 0:
            self._apply_global_mixer_batch(block, a_rows, b_rows)

    def _apply_layer_block(self, block: list[np.ndarray], gammas: np.ndarray,
                           betas: np.ndarray, n_trotters: int, scratch: Any,
                           plan: Any) -> None:
        """Fused layer over per-rank slice blocks: the phase sweep rides the
        mixer's per-rank dispatch (see :meth:`_mixer_block_batch`)."""
        del n_trotters, scratch
        self._mixer_block_batch(block, betas,
                                phase=(gammas, plan.phase_tables))

    def _apply_global_mixer_batch(self, block: list[np.ndarray],
                                  a_rows: np.ndarray, b_rows: np.ndarray) -> None:
        """Batched rotations on the k global qubits — strategy-specific."""
        raise NotImplementedError

    def _block_expectations(self, block: list[np.ndarray],
                            costs: np.ndarray) -> np.ndarray:
        """Per-schedule objective: slice-local partial sums + allreduce(sum).

        Accumulation is float64 per rank (the workspace's real scratch)
        regardless of the state precision; the reduce over ranks models the
        final ``MPI_Allreduce``.
        """
        s = self.local_states
        out = np.zeros(block[0].shape[0], dtype=np.float64)
        for r in range(self._n_ranks):
            cost_slice = np.asarray(costs[r * s:(r + 1) * s], dtype=np.float64)
            out += expectation_batch_inplace(block[r], cost_slice,
                                             self._workspace[r])
        return out

    def _block_results(self, block: list[np.ndarray]) -> list[DistributedStateVector]:
        """One :class:`DistributedStateVector` per schedule (slices copied out)."""
        rows = block[0].shape[0]
        return [
            DistributedStateVector(
                slices=[np.array(block[r][i], copy=True)
                        for r in range(self._n_ranks)],
                n_qubits=self._n_qubits,
            )
            for i in range(rows)
        ]

    # -- output methods ------------------------------------------------------------------
    def get_statevector(self, result: DistributedStateVector, *, mpi_gather: bool = True,
                        **kwargs: Any) -> np.ndarray | list[np.ndarray]:
        """Full state vector (``mpi_gather=True``) or the raw per-rank slices."""
        if mpi_gather:
            return result.gather()
        return result.slices

    def get_probabilities(self, result: DistributedStateVector, preserve_state: bool = True,
                          *, mpi_gather: bool = True, **kwargs: Any) -> np.ndarray | list[np.ndarray]:
        """Measurement probabilities (gathered by default; always float64)."""
        probs = [(np.abs(s) ** 2).astype(np.float64, copy=False) for s in result.slices]
        if mpi_gather:
            return np.concatenate(probs)
        return probs

    def get_expectation(self, result: DistributedStateVector, costs=None,
                        preserve_state: bool = True, **kwargs: Any) -> float:
        """Objective value: per-rank partial inner products + an allreduce(sum)."""
        if costs is None:
            cost_slices = self._cost_slices
        else:
            full = self._resolve_costs(costs)
            s = self.local_states
            cost_slices = [full[r * s:(r + 1) * s] for r in range(self._n_ranks)]
        partial = 0.0
        for sv, c in zip(result.slices, cost_slices):
            partial += float(np.dot(np.abs(sv) ** 2, c))
        return partial

    def get_overlap(self, result: DistributedStateVector, costs=None, indices=None,
                    preserve_state: bool = True, **kwargs: Any) -> float:
        """Ground-state overlap computed slice-locally and reduced."""
        diag = self.get_cost_diagonal() if costs is None else self._resolve_costs(costs)
        if indices is None:
            indices = np.flatnonzero(diag == diag.min())
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("overlap requested against an empty set of indices")
        if idx.min() < 0 or idx.max() >= self._n_states:
            raise ValueError("overlap indices out of range")
        s = self.local_states
        total = 0.0
        for r, sv in enumerate(result.slices):
            local = idx[(idx >= r * s) & (idx < (r + 1) * s)] - r * s
            if local.size:
                total += float(np.sum(np.abs(sv[local]) ** 2))
        return total


class QAOAFURXSimulatorGPUMPI(_DistributedFURXBase):
    """Distributed FUR simulator using the Alltoall strategy (Algorithm 4)."""

    backend_name = "gpumpi"

    @property
    def alltoall_algorithm(self) -> str:
        """The Alltoall algorithm, fixed at construction.

        It also picks the exchange shape: ``"direct"`` (the default)
        coalesces each exchange into one collective over the whole block
        (:meth:`_alltoall_block_coalesced`), while ``ring``/``bruck``/
        ``pairwise`` keep one Alltoall per schedule row so their
        algorithm-shaped traffic traces stay comparable.
        """
        return self._alltoall_algorithm

    def __init__(self, n_qubits: int, terms=None, costs=None, *, n_ranks: int = 4,
                 alltoall_algorithm: str = "direct",
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 parallel_local: bool = False,
                 precision: str = "double") -> None:
        if alltoall_algorithm not in ALLTOALL_ALGORITHMS:
            raise ValueError(
                f"unknown alltoall algorithm {alltoall_algorithm!r}; "
                f"available: {sorted(ALLTOALL_ALGORITHMS)}"
            )
        self._alltoall_algorithm = alltoall_algorithm
        super().__init__(n_qubits, terms=terms, costs=costs, n_ranks=n_ranks,
                         block_size=block_size, parallel_local=parallel_local,
                         precision=precision)

    def _alltoall_block(self, block: list[np.ndarray]) -> None:
        """One Alltoall per schedule row, written back into the block in place."""
        for i in range(block[0].shape[0]):
            row_slices = [block[r][i] for r in range(self._n_ranks)]
            new_slices, trace = alltoall(row_slices, self.alltoall_algorithm)
            self.traffic_log.append(trace)
            for r in range(self._n_ranks):
                block[r][i, :] = new_slices[r]

    def _alltoall_block_coalesced(self, block: list[np.ndarray]) -> None:
        """One Alltoall for the *whole* block (the ``direct`` algorithm).

        Each rank sends its ``(rows, chunk)`` slab for destination ``d`` in
        one message, so a single collective round moves the entire batch:
        the message count is ``K(K−1)`` per exchange regardless of the batch
        size, where the per-row path pays ``rows · K(K−1)``.  Byte volume is
        identical; the win is the per-message latency (and, in this driver
        substrate, the per-row dispatch and receive-buffer churn).

        The transposition ``new[d][:, s] = old[s][:, d]`` is a pairwise slab
        *swap* for every unordered rank pair — the diagonal slabs never move
        — so it runs fully in place through one reusable ``(rows, chunk)``
        staging buffer (the same structure as the index-bit-swap strategy's
        half-slice exchange; Bruck-style multi-hop staging would need a
        packing pass that costs more than it saves here, so
        ``alltoall_algorithm`` keeps applying to the per-row path only).
        The swapped slabs land exactly where the per-row transposition would
        put them, so results are bitwise identical to :meth:`_alltoall_block`.
        """
        size = self._n_ranks
        rows = block[0].shape[0]
        chunk = block[0].shape[1] // size
        trace = TrafficTrace()
        buf = getattr(self, "_coalesce_swap_buf", None)
        if buf is None or buf.shape != (rows, chunk) or buf.dtype != block[0].dtype:
            buf = np.empty((rows, chunk), dtype=block[0].dtype)
            self._coalesce_swap_buf = buf
        for r in range(size):
            for partner in range(r + 1, size):
                a = block[r][:, partner * chunk:(partner + 1) * chunk]
                b = block[partner][:, r * chunk:(r + 1) * chunk]
                np.copyto(buf, a)
                a[:] = b
                b[:] = buf
                trace.add(r, partner, a.nbytes, 0)
                trace.add(partner, r, a.nbytes, 0)
        self.traffic_log.append(trace)

    def _apply_global_mixer_batch(self, block: list[np.ndarray],
                                  a_rows: np.ndarray, b_rows: np.ndarray) -> None:
        """Batched Algorithm 4 global step: the rotations between the two
        Alltoall exchanges cover every schedule in one batched sweep per rank.
        The ``direct`` algorithm exchanges the whole block at once; the
        others keep one exchange per schedule row."""
        exchange = (self._alltoall_block_coalesced
                    if self.alltoall_algorithm == "direct"
                    else self._alltoall_block)
        exchange(block)

        def work(r: int) -> None:
            for q in range(self._n_qubits - self._k_global, self._n_qubits):
                apply_su2_batch_blocked(block[r], a_rows, b_rows,
                                        q - self._k_global, self._workspace[r])

        self._map_ranks(work)
        exchange(block)


class QAOAFURXSimulatorCUSVMPI(_DistributedFURXBase):
    """Distributed FUR simulator using cuStateVec-style index-bit swaps."""

    backend_name = "cusvmpi"

    def _apply_global_mixer_batch(self, block: list[np.ndarray],
                                  a_rows: np.ndarray, b_rows: np.ndarray) -> None:
        """Batched index-bit-swap global step.

        The half-slice exchange operates on the state axis of the whole
        ``(rows, local_states)`` block, so every global qubit costs one
        pairwise exchange for *all* schedules at once (rows-independent
        message count — the batched win over one exchange per schedule) and
        one batched SU(2) sweep on the top local qubit.
        """
        n_local = self.n_local_qubits
        half = 1 << (n_local - 1)
        trace = TrafficTrace()
        for j in range(self._k_global):
            self._swap_global_with_top_local(block, j, half, trace)

            def work(r: int) -> None:
                apply_su2_batch_blocked(block[r], a_rows, b_rows, n_local - 1,
                                        self._workspace[r])

            self._map_ranks(work)
            self._swap_global_with_top_local(block, j, half, trace)
        self.traffic_log.append(trace)

    def _swap_global_with_top_local(self, slices: list[np.ndarray], global_bit: int,
                                    half: int, trace: TrafficTrace) -> None:
        """Pairwise exchange implementing the index swap of rank bit ``global_bit``
        with the top local qubit, on the state axis of every rank's
        ``(rows, local_states)`` block.
        """
        for r in range(self._n_ranks):
            partner = r ^ (1 << global_bit)
            if partner < r:
                continue  # each unordered pair is handled once
            g = (r >> global_bit) & 1
            # rank r sends the half whose top local bit differs from its rank bit g;
            # the partner (rank bit 1-g) sends the complementary half.
            r_lo, r_hi = (0, half) if g == 1 else (half, 2 * half)
            p_lo, p_hi = (half, 2 * half) if g == 1 else (0, half)
            buf = slices[r][..., r_lo:r_hi].copy()
            slices[r][..., r_lo:r_hi] = slices[partner][..., p_lo:p_hi]
            slices[partner][..., p_lo:p_hi] = buf
            nbytes = buf.nbytes
            trace.add(r, partner, nbytes, global_bit)
            trace.add(partner, r, nbytes, global_bit)
