"""Simulated-GPU QAOA simulators (the paper's ``nbcuda`` backend analogue).

The state vector and the precomputed cost diagonal are resident on a
:class:`~repro.fur.simgpu.device.SimulatedDevice`; all per-layer work happens
through device kernels, and the output methods transfer results back to the
host (honouring ``preserve_state``, as in Listing 3 of the paper).  Numerical
results are identical to the CPU backends; in addition the simulator exposes
``modeled_device_time()`` so the benchmark harness can report projected A100
timings next to measured host timings.

Every evaluation is orchestrated by the shared execution engine
(:mod:`repro.fur.engine`); this module implements the
:class:`~repro.fur.engine.KernelProvider` hooks over device-resident blocks —
including the device transfer hooks (block upload, per-batch diagonal
staging, block release) and a device-memory-aware sub-batch capacity.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..base import QAOAFastSimulatorBase, batch_block_rows
from ..cvect.kernels import DEFAULT_BLOCK_SIZE, KernelWorkspace
from ..diagonal import term_masks_and_weights
from .device import A100_80GB, DeviceArray, DeviceSpec, SimulatedDevice
from .kernels import (
    device_apply_phase_batch,
    device_expectation,
    device_expectation_batch,
    device_furx_all_batch,
    device_furx_phase_all_batch,
    device_furxy_complete_batch,
    device_furxy_ring_batch,
    device_overlap,
    device_precompute_diagonal,
    device_probabilities,
    device_split_rows,
)

__all__ = [
    "QAOAFURXSimulatorGPU",
    "QAOAFURXYRingSimulatorGPU",
    "QAOAFURXYCompleteSimulatorGPU",
]


class _QAOAFURGPUSimulatorBase(QAOAFastSimulatorBase):
    """Shared device-resident kernel provider; subclasses supply the mixer."""

    backend_name = "gpu"

    def __init__(self, n_qubits: int, terms=None, costs=None, *,
                 device: SimulatedDevice | None = None,
                 device_spec: DeviceSpec = A100_80GB,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 precision: str = "double") -> None:
        self._device = device if device is not None else SimulatedDevice(device_spec)
        self._block_size = int(block_size)
        super().__init__(n_qubits, terms=terms, costs=costs,
                         precision=precision)

    # -- construction hooks ----------------------------------------------------
    def _precompute_diagonal(self, terms) -> np.ndarray:
        """Precompute the diagonal *on the device* and mirror it on the host.

        The host mirror is always float64 (the expectation-accumulation
        policy); at single precision the device copy is downcast to float32 —
        half the diagonal traffic of every phase kernel — via one modeled
        cast kernel.
        """
        masks, weights, offset = term_masks_and_weights(terms, self._n_qubits)
        full = device_precompute_diagonal(
            self._device, masks, weights, offset, 0, self._n_states
        )
        host = np.array(full.data, copy=True)
        if self._precision.real_dtype != full.dtype:
            cast = self._device.empty(self._n_states, dtype=self._precision.real_dtype)
            cast.data[:] = full.data
            self._device.charge_kernel(full.nbytes + cast.nbytes)
            full.free()
            full = cast
        self._costs_device = full
        return host

    def _ingest_costs(self, costs):
        host = super()._ingest_costs(costs)
        host_arr = host.decompress() if hasattr(host, "decompress") else np.asarray(host, dtype=np.float64)
        self._costs_device = self._device.to_device(
            np.ascontiguousarray(host_arr, dtype=self._precision.real_dtype))
        return host

    def _post_init(self) -> None:
        self._workspace = KernelWorkspace(self._n_states, self._block_size,
                                          dtype=self._precision.complex_dtype)

    # -- properties --------------------------------------------------------------
    @property
    def device(self) -> SimulatedDevice:
        """The simulated accelerator owning this simulator's buffers."""
        return self._device

    def modeled_device_time(self) -> float:
        """Modeled accelerator time accumulated so far (seconds)."""
        return self._device.modeled_time

    def reset_device_clock(self) -> None:
        """Zero the modeled-time counters (keeps allocations)."""
        self._device.reset_clock()

    # -- kernel-provider hooks (driven by repro.fur.engine) -----------------------
    def _batch_rows(self, remaining: int, memory_budget: float | None) -> int:
        """Sub-batch rows bounded by both the host budget and device memory.

        Called by the engine once per sub-batch: :func:`device_split_rows`
        keeps earlier sub-batches' per-row results resident, so the
        free-memory estimate must be re-derived as rows accumulate.  A row
        costs two state vectors while its block and split results coexist;
        at least one row is always attempted (the device allocator raises
        :class:`MemoryError` if it truly cannot fit).
        """
        itemsize = self._precision.complex_itemsize
        rows = batch_block_rows(remaining, self._n_states, memory_budget,
                                blocks=2, itemsize=itemsize)
        free = (self._device.spec.memory_capacity
                - self._device.stats.allocated_bytes)
        # complex64 amplitudes halve the per-row device cost, doubling the
        # rows device_split_rows can keep resident per sub-batch.
        per_row = 2 * itemsize * self._n_states
        device_rows = int(free // per_row)
        return max(1, min(rows, device_rows))

    def _stage_block(self, sv0: np.ndarray | None, rows: int) -> DeviceArray:
        """Upload a ``(rows, 2^n)`` block (shared or per-row ``sv0``) to the device."""
        return self._device.to_device(self._validate_sv0_block(sv0, rows))

    def _mixer_scratch(self, block: DeviceArray) -> np.ndarray:
        # The gemm-grouped batch mixer ping-pongs through host scratch; the
        # modeled device clock charges the real kernel's traffic regardless.
        return np.empty_like(block.data)

    def _apply_phase_block(self, block: DeviceArray, gammas: np.ndarray,
                           plan: Any) -> None:
        device_apply_phase_batch(block, self._costs_device, gammas,
                                 self._workspace, phase_table=plan.phase_tables)

    def _block_expectations(self, block: DeviceArray, costs: DeviceArray) -> np.ndarray:
        return device_expectation_batch(block, costs, self._workspace)

    def _block_results(self, block: DeviceArray) -> list[DeviceArray]:
        return device_split_rows(block)

    def _release_block(self, block: DeviceArray) -> None:
        block.free()

    def _stage_batch_costs(self, resolved: np.ndarray) -> DeviceArray:
        """Device copy of the batch diagonal (the resident one when default).

        A user-supplied diagonal is staged transiently for the batch and
        freed by :meth:`_release_batch_costs`; the default diagonal reuses
        the always-resident device copy.
        """
        if resolved is self._default_costs():
            return self._costs_device
        return self._device.to_device(np.ascontiguousarray(resolved))

    def _release_batch_costs(self, staged: DeviceArray) -> None:
        if staged is not self._costs_device:
            staged.free()

    # -- output methods (always host values) ------------------------------------------
    def get_statevector(self, result: DeviceArray, **kwargs: Any) -> np.ndarray:
        """Device→host copy of the evolved state."""
        with self._exec_lock:  # device transfer accounting is shared
            return result.copy_to_host()

    def get_probabilities(self, result: DeviceArray, preserve_state: bool = True,
                          **kwargs: Any) -> np.ndarray:
        """Measurement probabilities, computed on device and copied to the host."""
        with self._exec_lock:  # device allocation accounting is shared
            probs = device_probabilities(result, preserve_state=preserve_state)
            return probs.copy_to_host().astype(np.float64, copy=False)

    def get_expectation(self, result: DeviceArray, costs=None,
                        preserve_state: bool = True, **kwargs: Any) -> float:
        """Objective value via a device-side reduction (no 2^n host transfer)."""
        host_costs = None if costs is None else self._resolve_costs(costs)
        with self._exec_lock:  # the reduction scratch is the shared workspace
            if host_costs is None:
                return device_expectation(result, self._costs_device,
                                          self._workspace)
            costs_dev = self._device.to_device(np.ascontiguousarray(host_costs))
            try:
                return device_expectation(result, costs_dev, self._workspace)
            finally:
                costs_dev.free()

    def get_overlap(self, result: DeviceArray, costs=None, indices=None,
                    preserve_state: bool = True, **kwargs: Any) -> float:
        """Ground-state overlap via a device-side gather + reduction."""
        if indices is None:
            diag = self.get_cost_diagonal() if costs is None else self._resolve_costs(costs)
            indices = np.flatnonzero(diag == diag.min())
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("overlap requested against an empty set of indices")
        if idx.min() < 0 or idx.max() >= self._n_states:
            raise ValueError("overlap indices out of range")
        with self._exec_lock:  # device clock accounting is shared
            return device_overlap(result, idx)


class QAOAFURXSimulatorGPU(_QAOAFURGPUSimulatorBase):
    """QAOA with the transverse-field mixer on the simulated GPU."""

    mixer_name = "x"
    _mixer_needs_scratch = True

    def _apply_mixer_block(self, svb: DeviceArray, betas: np.ndarray,
                           n_trotters: int, scratch: np.ndarray | None) -> None:
        device_furx_all_batch(svb, betas, self._n_qubits, self._workspace,
                              scratch=scratch)

    def _apply_layer_block(self, svb: DeviceArray, gammas: np.ndarray,
                           betas: np.ndarray, n_trotters: int,
                           scratch: np.ndarray | None, plan: Any) -> None:
        """Fused layer: one fewer block RMW on the device clock."""
        device_furx_phase_all_batch(svb, self._costs_device, gammas, betas,
                                    self._n_qubits, self._workspace,
                                    phase_table=plan.phase_tables,
                                    scratch=scratch)


class QAOAFURXYRingSimulatorGPU(_QAOAFURGPUSimulatorBase):
    """QAOA with the ring XY mixer on the simulated GPU."""

    mixer_name = "xyring"

    def _apply_mixer_block(self, svb: DeviceArray, betas: np.ndarray,
                           n_trotters: int, scratch: np.ndarray | None) -> None:
        for _ in range(n_trotters):
            device_furxy_ring_batch(svb, betas / n_trotters, self._n_qubits,
                                    self._workspace)


class QAOAFURXYCompleteSimulatorGPU(_QAOAFURGPUSimulatorBase):
    """QAOA with the complete-graph XY mixer on the simulated GPU."""

    mixer_name = "xycomplete"

    def _apply_mixer_block(self, svb: DeviceArray, betas: np.ndarray,
                           n_trotters: int, scratch: np.ndarray | None) -> None:
        for _ in range(n_trotters):
            device_furxy_complete_batch(svb, betas / n_trotters, self._n_qubits,
                                        self._workspace)
