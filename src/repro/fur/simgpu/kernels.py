"""Device kernels for the simulated-GPU backend.

Each function mirrors one CUDA kernel of the paper's ``nbcuda`` backend:
numerically it delegates to the blocked CPU kernels (results are bit-identical
to the ``c`` backend), and it charges the owning
:class:`~repro.fur.simgpu.device.SimulatedDevice` clock with the bytes the
real kernel would stream through HBM plus one launch overhead, so that modeled
GPU timings can be reported alongside measured host timings.
"""

from __future__ import annotations

import numpy as np

from ..cvect.kernels import (
    KernelWorkspace,
    apply_phase_batch_inplace,
    expectation_batch_inplace,
    furxy_batch_blocked,
)
from ..diagonal import apply_terms_to_slice
from .device import DeviceArray

__all__ = [
    "device_furx_all_batch",
    "device_furx_phase_all_batch",
    "device_furxy_ring_batch",
    "device_furxy_complete_batch",
    "device_apply_phase_batch",
    "device_precompute_diagonal",
    "device_probabilities",
    "device_expectation",
    "device_expectation_batch",
    "device_overlap",
    "device_split_rows",
]


def _check_device_pair(a: DeviceArray, b: DeviceArray) -> None:
    if a.device is not b.device:
        raise ValueError("operands live on different simulated devices")


def device_precompute_diagonal(device, masks: np.ndarray, weights: np.ndarray,
                               offset: float, start: int, stop: int,
                               dtype=np.float64) -> DeviceArray:
    """Precompute a cost-vector slice on the device (Sec. III-A GPU kernel).

    One in-place accumulation pass over the slice per term: the locality the
    paper exploits for GPU parallelism and communication-free distribution.
    """
    out = device.empty(stop - start, dtype=dtype)
    host = apply_terms_to_slice(masks, weights, offset, start, stop)
    out.data[:] = host.astype(dtype)
    # one read-modify-write of the 8-byte accumulator per term
    device.charge_kernel(max(len(masks), 1) * 2 * 8 * (stop - start), launches=max(len(masks), 1))
    return out


def device_probabilities(sv: DeviceArray, preserve_state: bool = True) -> DeviceArray:
    """Norm-square kernel; with ``preserve_state=False`` it reuses the state buffer.

    The device-resident probabilities match the state's real dtype (float32
    for a complex64 state — half the device memory and traffic); output
    methods cast to float64 once the values reach the host.
    """
    device = sv.device
    if preserve_state:
        out = device.empty(sv.shape, dtype=sv.data.real.dtype)
        np.multiply(sv.data.real, sv.data.real, out=out.data)
        out.data += sv.data.imag * sv.data.imag
        device.charge_kernel(sv.nbytes + out.nbytes)
        return out
    # In-place: overwrite the real view of the state vector, as the paper's
    # GPU get_probabilities(preserve_state=False) does to halve peak memory.
    probs = sv.data.real
    np.multiply(sv.data.real, sv.data.real, out=probs)
    probs += sv.data.imag * sv.data.imag
    device.charge_kernel(sv.nbytes)
    return DeviceArray(device, probs)


def device_expectation(sv: DeviceArray, costs: DeviceArray,
                       workspace: KernelWorkspace) -> float:
    """Expectation kernel ``Σ c[x] |ψ_x|²`` (single reduction pass)."""
    _check_device_pair(sv, costs)
    from ..cvect.kernels import expectation_inplace

    # The blocked reduction accumulates in the workspace's float64 scratch
    # regardless of the diagonal's (possibly float32) device dtype.
    value = expectation_inplace(sv.data, costs.data, workspace)
    sv.device.charge_kernel(sv.nbytes + costs.nbytes)
    return value


# ---------------------------------------------------------------------------
# Device-block batch kernels — a (B, 2^n) block resident on the device.
# ---------------------------------------------------------------------------

def device_apply_phase_batch(svb: DeviceArray, costs: DeviceArray, gammas: np.ndarray,
                             workspace: KernelWorkspace, phase_table=None) -> DeviceArray:
    """Batched phase kernel: one diagonal read shared by every block row."""
    _check_device_pair(svb, costs)
    apply_phase_batch_inplace(svb.data, costs.data, gammas, workspace,
                              phase_table=phase_table)
    svb.device.charge_kernel(2 * svb.nbytes + costs.nbytes)
    return svb


def device_furx_all_batch(svb: DeviceArray, betas: np.ndarray, n_qubits: int,
                          workspace: KernelWorkspace,
                          scratch: np.ndarray | None = None) -> DeviceArray:
    """Batched transverse-field mixer: n kernels, each streaming the block.

    Numerics run through the gemm-grouped host kernel (identical results,
    much faster host wall-clock); callers evolving many layers should pass a
    preallocated ``scratch`` block for its ping-pong buffer.  The modeled
    device time still charges the real CUDA kernel's traffic — one
    read-modify-write of the block per qubit.
    """
    from ..python.furx import furx_all_batch

    furx_all_batch(svb.data, betas, n_qubits, scratch=scratch)
    svb.device.charge_kernel(2 * svb.nbytes * n_qubits, launches=n_qubits)
    return svb


def device_furx_phase_all_batch(svb: DeviceArray, costs: DeviceArray,
                                gammas: np.ndarray, betas: np.ndarray,
                                n_qubits: int, workspace: KernelWorkspace,
                                phase_table=None,
                                scratch: np.ndarray | None = None) -> DeviceArray:
    """Fused phase + transverse-field mixer over a device block.

    The phase multiply rides the first mixer sweep (the provider's fused
    layer), so the modeled traffic is ``n`` read-modify-writes of the
    block plus one diagonal read — one full block RMW and one kernel launch
    fewer than the split phase + mixer kernels.
    """
    from ..python.furx import furx_phase_all_batch

    _check_device_pair(svb, costs)
    furx_phase_all_batch(svb.data, gammas, betas, n_qubits,
                         phase_table=phase_table, costs=costs.data,
                         scratch=scratch, phase_buf=workspace.phase_scratch)
    svb.device.charge_kernel(2 * svb.nbytes * n_qubits + costs.nbytes,
                             launches=n_qubits)
    return svb


def device_furxy_ring_batch(svb: DeviceArray, betas: np.ndarray, n_qubits: int,
                            workspace: KernelWorkspace) -> DeviceArray:
    """Batched ring XY mixer (one kernel per edge over the block)."""
    from ..python.furxy import ring_edges

    edges = ring_edges(n_qubits)
    for i, j in edges:
        furxy_batch_blocked(svb.data, betas, i, j, workspace)
    svb.device.charge_kernel(svb.nbytes * len(edges), launches=len(edges))
    return svb


def device_furxy_complete_batch(svb: DeviceArray, betas: np.ndarray, n_qubits: int,
                                workspace: KernelWorkspace) -> DeviceArray:
    """Batched complete-graph XY mixer over the block."""
    from ..python.furxy import complete_edges

    edges = complete_edges(n_qubits)
    for i, j in edges:
        furxy_batch_blocked(svb.data, betas, i, j, workspace)
    svb.device.charge_kernel(svb.nbytes * len(edges), launches=len(edges))
    return svb


def device_expectation_batch(svb: DeviceArray, costs: DeviceArray,
                             workspace: KernelWorkspace) -> np.ndarray:
    """Per-row expectation reduction over a device block (host scalars out)."""
    _check_device_pair(svb, costs)
    values = expectation_batch_inplace(svb.data, costs.data, workspace)
    svb.device.charge_kernel(svb.nbytes + costs.nbytes)
    return values


def device_split_rows(svb: DeviceArray) -> list[DeviceArray]:
    """Split a device block into per-row device arrays and free the block.

    One device-to-device copy kernel per row; the block allocation is
    released afterwards, so peak device memory is (block + rows) during the
    split and (rows) after it.
    """
    device = svb.device
    rows: list[DeviceArray] = []
    for r in range(svb.data.shape[0]):
        row = device.empty(svb.data.shape[1], dtype=svb.dtype)
        np.copyto(row.data, svb.data[r])
        device.charge_kernel(2 * row.nbytes)
        rows.append(row)
    svb.free()
    return rows


def device_overlap(sv: DeviceArray, indices: np.ndarray) -> float:
    """Overlap kernel: sum of probabilities over the given basis-state indices."""
    values = sv.data[indices]
    sv.device.charge_kernel(values.nbytes * 2)
    return float(np.sum(values.real ** 2 + values.imag ** 2))
