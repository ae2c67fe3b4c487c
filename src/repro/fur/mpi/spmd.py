"""SPMD formulation of Algorithm 4 for execution on a real communicator.

:mod:`repro.fur.mpi.qaoa_simulator` drives the distributed slices from a
single controller, which is ideal for deterministic testing.  This module
provides the genuinely SPMD variant — the code each rank would run under
mpi4py — written against the :class:`repro.parallel.communicator.Communicator`
interface and executed in-process with
:class:`repro.parallel.communicator.ThreadCluster`.  It is used by the
``distributed_simulation`` example and by the integration tests that exercise
the threaded communicator.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ...parallel.communicator import Communicator, ThreadCluster
from ..base import validate_angle_batches, validate_angles
from ..cvect.kernels import (
    KernelWorkspace,
    apply_phase_batch_inplace,
    apply_phase_inplace,
    apply_su2_batch_blocked,
    apply_su2_blocked,
    expectation_batch_inplace,
)
from ..diagonal import build_phase_table, precompute_cost_diagonal_slice
from ..precision import resolve_precision
from ..python.furx import su2_x_rotation, su2_x_rotation_batch

__all__ = [
    "qaoa_rank_program",
    "qaoa_rank_program_batch",
    "run_distributed_qaoa",
    "run_distributed_qaoa_batch",
]


def qaoa_rank_program(comm: Communicator, n_qubits: int,
                      terms: list[tuple[float, tuple[int, ...]]],
                      gammas: Sequence[float], betas: Sequence[float],
                      precision: str = "double") -> dict:
    """The per-rank program: evolve the local slice and reduce the objective.

    ``precision`` selects the amplitude width (``"single"`` halves both the
    local-slice memory and the alltoall traffic).  Returns a dict with the
    rank's slice (``statevector_slice``), the global expectation value
    (identical on every rank after the allreduce, always accumulated in
    float64) and the number of alltoall calls performed.
    """
    rank, size = comm.rank, comm.size
    if size & (size - 1):
        raise ValueError("the rank count must be a power of two")
    k = size.bit_length() - 1
    if 2 * k > n_qubits:
        raise ValueError(f"Algorithm 4 requires 2*log2(K) <= n; got K={size}, n={n_qubits}")
    n_local = n_qubits - k
    local_states = 1 << n_local
    g, b_angles = validate_angles(gammas, betas)
    spec = resolve_precision(precision)

    # Slice-local precomputation (Sec. III-A: no communication needed).
    costs = precompute_cost_diagonal_slice(terms, n_qubits,
                                           rank * local_states, (rank + 1) * local_states,
                                           dtype=spec.real_dtype)
    sv = np.full(local_states, 1.0 / np.sqrt(1 << n_qubits), dtype=spec.complex_dtype)
    workspace = KernelWorkspace(local_states, dtype=spec.complex_dtype)
    n_alltoall = 0

    for gamma, beta in zip(g, b_angles):
        apply_phase_inplace(sv, costs, float(gamma), workspace)
        a, b = su2_x_rotation(float(beta))
        for q in range(n_local):
            apply_su2_blocked(sv, a, b, q, workspace)
        if k > 0:
            sv = comm.alltoall(sv)
            n_alltoall += 1
            for q in range(n_qubits - k, n_qubits):
                apply_su2_blocked(sv, a, b, q - k, workspace)
            sv = comm.alltoall(sv)
            n_alltoall += 1

    # Float64 accumulation regardless of the state precision.
    probs = (np.abs(sv) ** 2).astype(np.float64, copy=False)
    local_expectation = float(np.dot(probs, np.asarray(costs, dtype=np.float64)))
    expectation = float(comm.allreduce_sum(local_expectation))
    return {
        "rank": rank,
        "statevector_slice": sv,
        "expectation": expectation,
        "n_alltoall": n_alltoall,
    }


def qaoa_rank_program_batch(comm: Communicator, n_qubits: int,
                            terms: list[tuple[float, tuple[int, ...]]],
                            gammas_batch, betas_batch,
                            precision: str = "double",
                            coalesce: bool = True) -> dict:
    """The fused batched per-rank program: evolve a local slice *block*.

    The SPMD mirror of the execution engine's fused distributed path
    (:mod:`repro.fur.engine`): each rank evolves a ``(B, local_states)``
    block through all layers — batched slice-local phase sweeps (unique-value
    phase table when the slice is repetitive), batched local SU(2) rotations,
    and the alltoall exchanges for the global qubits — then reduces every
    schedule to its objective value with one allreduce.

    With ``coalesce=True`` (the default, mirroring the ``gpumpi`` backend's
    ``direct`` exchange) each exchange packs the whole block
    destination-major into *one* alltoall, so the collective count per layer
    is 2 regardless of the batch size; ``coalesce=False`` keeps the
    historical one-alltoall-per-schedule path (bitwise-identical results).
    Returns a dict with the rank's block, the length-``B`` ``expectations``
    array (identical on every rank, float64-accumulated) and the alltoall
    count.
    """
    rank, size = comm.rank, comm.size
    if size & (size - 1):
        raise ValueError("the rank count must be a power of two")
    k = size.bit_length() - 1
    if 2 * k > n_qubits:
        raise ValueError(f"Algorithm 4 requires 2*log2(K) <= n; got K={size}, n={n_qubits}")
    n_local = n_qubits - k
    local_states = 1 << n_local
    g, b_angles = validate_angle_batches(gammas_batch, betas_batch)
    batch = g.shape[0]
    spec = resolve_precision(precision)

    # Slice-local precomputation (Sec. III-A: no communication needed).
    costs = precompute_cost_diagonal_slice(terms, n_qubits,
                                           rank * local_states, (rank + 1) * local_states,
                                           dtype=spec.real_dtype)
    costs64 = np.asarray(costs, dtype=np.float64)
    table = build_phase_table(costs64)
    block = np.full((batch, local_states), 1.0 / np.sqrt(1 << n_qubits),
                    dtype=spec.complex_dtype)
    workspace = KernelWorkspace(local_states, dtype=spec.complex_dtype)
    n_alltoall = 0

    def exchange(blk: np.ndarray) -> int:
        """One global-qubit transposition exchange; returns the alltoall count."""
        if coalesce:
            # Destination-major packing: all rows' sub-chunks for rank d are
            # contiguous, so one collective carries the whole batch (the
            # message count stops scaling with B — the same shape the
            # driver-form gpumpi backend uses for its direct algorithm).
            packed = np.ascontiguousarray(
                blk.reshape(batch, size, -1).transpose(1, 0, 2)).reshape(-1)
            recv = comm.alltoall(packed)
            blk[:] = (recv.reshape(size, batch, -1).transpose(1, 0, 2)
                      .reshape(batch, local_states))
            return 1
        for i in range(batch):
            blk[i, :] = comm.alltoall(blk[i])
        return batch

    for layer in range(g.shape[1]):
        apply_phase_batch_inplace(block, costs, g[:, layer], workspace,
                                  phase_table=table)
        a_rows, b_rows = su2_x_rotation_batch(b_angles[:, layer])
        for q in range(n_local):
            apply_su2_batch_blocked(block, a_rows, b_rows, q, workspace)
        if k > 0:
            n_alltoall += exchange(block)
            for q in range(n_qubits - k, n_qubits):
                apply_su2_batch_blocked(block, a_rows, b_rows, q - k, workspace)
            n_alltoall += exchange(block)

    # Float64 accumulation regardless of the state precision.
    local = expectation_batch_inplace(block, costs64, workspace)
    expectations = np.asarray(comm.allreduce_sum(local), dtype=np.float64)
    return {
        "rank": rank,
        "statevector_block": block,
        "expectations": expectations,
        "n_alltoall": n_alltoall,
    }


def run_distributed_qaoa(n_qubits: int, terms: Iterable[tuple[float, Iterable[int]]],
                         gammas: Sequence[float], betas: Sequence[float],
                         n_ranks: int = 4, precision: str = "double") -> dict:
    """Run the SPMD program on a :class:`ThreadCluster` and assemble the results.

    Returns a dict with the gathered ``statevector``, the ``expectation`` and
    the per-rank result dicts (``ranks``).
    """
    term_list = [(float(w), tuple(idx)) for w, idx in terms]
    cluster = ThreadCluster(n_ranks)
    results = cluster.run(qaoa_rank_program,
                          [(n_qubits, term_list, gammas, betas, precision)] * n_ranks)
    results.sort(key=lambda r: r["rank"])
    full = np.concatenate([r["statevector_slice"] for r in results])
    return {
        "statevector": full,
        "expectation": results[0]["expectation"],
        "ranks": results,
    }


def run_distributed_qaoa_batch(n_qubits: int,
                               terms: Iterable[tuple[float, Iterable[int]]],
                               gammas_batch, betas_batch,
                               n_ranks: int = 4,
                               precision: str = "double",
                               coalesce: bool = True) -> dict:
    """Run the fused batched SPMD program on a :class:`ThreadCluster`.

    ``coalesce`` selects the batch-coalesced alltoall (see
    :func:`qaoa_rank_program_batch`).  Returns a dict with the per-schedule
    ``expectations`` array, the gathered ``(B, 2^n)`` ``statevectors`` block
    and the per-rank result dicts (``ranks``).
    """
    term_list = [(float(w), tuple(idx)) for w, idx in terms]
    cluster = ThreadCluster(n_ranks)
    results = cluster.run(
        qaoa_rank_program_batch,
        [(n_qubits, term_list, gammas_batch, betas_batch, precision,
          coalesce)] * n_ranks)
    results.sort(key=lambda r: r["rank"])
    full = np.concatenate([r["statevector_block"] for r in results], axis=1)
    return {
        "statevectors": full,
        "expectations": results[0]["expectations"],
        "ranks": results,
    }
