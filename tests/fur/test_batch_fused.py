"""Tests for the fused batched evaluation engine and its hot-path bugfixes.

Covers

* fused batches == the independent per-vector reference of
  :mod:`repro.testing` across backends x mixers x problem constructions
  (``terms`` / ``costs`` array / ``CompressedDiagonal``),
* sub-batch splitting under a memory budget,
* the batched kernels against their per-row references,
* the diagonal phase table,
* regressions: ``CompressedDiagonal.decompress`` with ``np.dtype`` instances,
  one-decompression-per-simulator on deep circuits, single default-diagonal
  resolution per engine batch, and contiguous in-place
  probabilities on the ``python`` backend.
"""

import numpy as np
import pytest

import repro
from repro.fur import CompressedDiagonal, batch_block_rows, build_phase_table, compress_diagonal
from repro.fur.base import QAOAFastSimulatorBase
from repro.fur.cvect.kernels import (
    KernelWorkspace,
    apply_phase_batch_inplace,
    apply_phase_inplace,
    apply_su2_batch_blocked,
    apply_su2_blocked,
    expectation_batch_inplace,
    furxy_batch_blocked,
    furxy_blocked,
)
from repro.fur.python.furx import apply_su2, apply_su2_batch, furx_all, furx_all_batch
from repro.fur.python.furxy import (
    apply_xy_su2,
    apply_xy_su2_batch,
    furxy_complete,
    furxy_complete_batch,
    furxy_ring,
    furxy_ring_batch,
)
from repro.problems import labs
from repro.testing import random_terms, reference_expectation, reference_state

BACKENDS = ["python", "c", "gpu"]
MIXERS = ["x", "xyring", "xycomplete"]
N = 6


def _make_simulator(backend, mixer, construction, n=N):
    """Simulator over the LABS problem via the requested construction path."""
    terms = labs.get_terms(n)
    if construction == "terms":
        return repro.simulator(n, terms=terms, backend=backend, mixer=mixer)
    reference = repro.simulator(n, terms=terms, backend="python")
    costs = reference.get_cost_diagonal().copy()
    if construction == "costs":
        return repro.simulator(n, costs=costs, backend=backend, mixer=mixer)
    assert construction == "compressed"
    return repro.simulator(n, costs=compress_diagonal(costs),
                           backend=backend, mixer=mixer)


def _random_block(rng, rows, n_states):
    block = rng.standard_normal((rows, n_states)) + 1j * rng.standard_normal((rows, n_states))
    return np.ascontiguousarray(block / np.linalg.norm(block, axis=1, keepdims=True))


class TestFusedBatchEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mixer", MIXERS)
    @pytest.mark.parametrize("construction", ["terms", "costs", "compressed"])
    def test_fused_matches_reference(self, backend, mixer, construction):
        sim = _make_simulator(backend, mixer, construction)
        rng = np.random.default_rng(hash((backend, mixer, construction)) % (2 ** 32))
        batch, p = 5, 3
        gb = rng.uniform(-1.0, 1.0, (batch, p))
        bb = rng.uniform(-1.0, 1.0, (batch, p))
        costs = sim.get_cost_diagonal()

        fused_states = [np.asarray(sim.get_statevector(r))
                        for r in sim.simulate_qaoa_batch(gb, bb)]
        for state, (g, b) in zip(fused_states, zip(gb, bb)):
            np.testing.assert_allclose(
                state, reference_state(costs, g, b, mixer=mixer), atol=1e-12)

        fused_values = sim.get_expectation_batch(gb, bb)
        want = [reference_expectation(costs, g, b, mixer=mixer)
                for g, b in zip(gb, bb)]
        np.testing.assert_allclose(fused_values, want, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fused_respects_sv0_and_trotters(self, backend):
        from repro.fur import dicke_state

        sim = repro.simulator(N, terms=labs.get_terms(N), backend=backend,
                              mixer="xyring")
        rng = np.random.default_rng(7)
        gb = rng.uniform(0, 1, (3, 2))
        bb = rng.uniform(0, 1, (3, 2))
        sv0 = dicke_state(N, 3)
        costs = sim.get_cost_diagonal()
        fused = [np.asarray(sim.get_statevector(r))
                 for r in sim.simulate_qaoa_batch(gb, bb, sv0=sv0, n_trotters=3)]
        for state, (g, b) in zip(fused, zip(gb, bb)):
            want = reference_state(costs, g, b, mixer="xyring", sv0=sv0,
                                   n_trotters=3)
            np.testing.assert_allclose(state, want, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fused_explicit_costs(self, backend):
        sim = repro.simulator(N, terms=labs.get_terms(N), backend=backend)
        rng = np.random.default_rng(11)
        other = rng.uniform(-2, 2, 1 << N)
        gb = rng.uniform(0, 1, (4, 2))
        bb = rng.uniform(0, 1, (4, 2))
        fused = sim.get_expectation_batch(gb, bb, costs=other)
        diag = sim.get_cost_diagonal()
        want = [float(np.abs(reference_state(diag, g, b)) ** 2 @ other)
                for g, b in zip(gb, bb)]
        np.testing.assert_allclose(fused, want, atol=1e-12)


class TestSubBatchSplitting:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tiny_budget_matches_unsplit(self, backend):
        sim = repro.simulator(5, terms=labs.get_terms(5), backend=backend)
        rng = np.random.default_rng(3)
        gb = rng.uniform(0, 1, (7, 2))
        bb = rng.uniform(0, 1, (7, 2))
        # a budget of one state vector forces one-row sub-batches
        split = sim.get_expectation_batch(gb, bb, memory_budget=16 * (1 << 5))
        unsplit = sim.get_expectation_batch(gb, bb)
        np.testing.assert_allclose(split, unsplit, atol=1e-12)
        results = sim.simulate_qaoa_batch(gb, bb, memory_budget=16 * (1 << 5))
        assert len(results) == 7
        for res, (g, b) in zip(results, zip(gb, bb)):
            np.testing.assert_allclose(np.asarray(sim.get_statevector(res)),
                                       np.asarray(sim.get_statevector(sim.simulate_qaoa(g, b))),
                                       atol=1e-12)

    def test_batch_block_rows(self):
        # default budget comfortably holds 32 rows of a 2^16 state
        assert batch_block_rows(32, 1 << 16) == 32
        # a one-byte budget still yields one row per sub-batch
        assert batch_block_rows(8, 1 << 10, memory_budget=1) == 1
        # never more rows than the batch has
        assert batch_block_rows(3, 4, memory_budget=1 << 30) == 3
        # exact accounting: blocks * 16 bytes per amplitude
        assert batch_block_rows(100, 1 << 10, memory_budget=16 * (1 << 10) * 2 * 5,
                                blocks=2) == 5
        with pytest.raises(ValueError, match="memory_budget"):
            batch_block_rows(4, 16, memory_budget=0)
        with pytest.raises(ValueError, match="batch_size"):
            batch_block_rows(0, 16)

    def test_gpu_expectation_batch_frees_device_blocks(self):
        sim = repro.simulator(8, terms=labs.get_terms(8), backend="gpu")
        rng = np.random.default_rng(5)
        before = sim.device.stats.allocated_bytes
        sim.get_expectation_batch(rng.uniform(0, 1, (6, 2)), rng.uniform(0, 1, (6, 2)))
        assert sim.device.stats.allocated_bytes == before

    def test_gpu_simulate_batch_respects_device_capacity_across_sub_batches(self):
        from repro.fur.simgpu.device import DeviceSpec

        # Capacity for the diagonal plus exactly 10 state vectors: per-row
        # results retained from earlier sub-batches must shrink later
        # sub-batches instead of crashing the allocator mid-run.
        n = 6
        sv_bytes = 16 * (1 << n)
        spec = DeviceSpec(name="tiny",
                          memory_capacity=8 * (1 << n) + 10 * sv_bytes,
                          memory_bandwidth=1e12, pcie_bandwidth=1e10,
                          kernel_launch_overhead=1e-6)
        sim = repro.simulator(n, terms=labs.get_terms(n), backend="gpu",
                              device_spec=spec)
        rng = np.random.default_rng(9)
        gb = rng.uniform(0, 1, (8, 2))
        bb = rng.uniform(0, 1, (8, 2))
        results = sim.simulate_qaoa_batch(gb, bb)
        assert len(results) == 8
        # reference states from a host backend — the tiny device has no room
        # for extra single-schedule runs next to the 8 retained results
        reference = repro.simulator(n, terms=labs.get_terms(n), backend="c")
        for res, (g, b) in zip(results, zip(gb, bb)):
            np.testing.assert_allclose(
                np.asarray(sim.get_statevector(res)),
                reference.simulate_qaoa(g, b),
                atol=1e-12)

    def test_gpu_simulate_batch_returns_device_rows(self):
        sim = repro.simulator(5, terms=labs.get_terms(5), backend="gpu")
        rng = np.random.default_rng(6)
        before = sim.device.stats.allocated_bytes
        results = sim.simulate_qaoa_batch(rng.uniform(0, 1, (4, 2)),
                                          rng.uniform(0, 1, (4, 2)))
        assert len(results) == 4
        # the evolved block is freed; only the per-row results remain
        assert sim.device.stats.allocated_bytes == before + 4 * 16 * (1 << 5)


class TestBatchedKernels:
    def test_apply_su2_batch_matches_per_row(self):
        rng = np.random.default_rng(0)
        block = _random_block(rng, 4, 1 << 5)
        betas = rng.uniform(-1, 1, 4)
        a = np.cos(betas).astype(complex)
        b = (-1j * np.sin(betas)).astype(complex)
        expected = block.copy()
        for r in range(4):
            apply_su2(expected[r], complex(a[r]), complex(b[r]), qubit=2)
        apply_su2_batch(block, a, b, qubit=2)
        np.testing.assert_allclose(block, expected, atol=1e-14)
        # scalar coefficients broadcast to every row
        block2 = expected.copy()
        apply_su2_batch(block2, complex(a[0]), complex(b[0]), qubit=0)
        for r in range(4):
            apply_su2(expected[r], complex(a[0]), complex(b[0]), qubit=0)
        np.testing.assert_allclose(block2, expected, atol=1e-14)

    def test_furx_all_batch_matches_per_row(self):
        rng = np.random.default_rng(1)
        for n in (1, 3, 5, 7):  # exercises partial gemm groups and stride-1 path
            block = _random_block(rng, 3, 1 << n)
            betas = rng.uniform(-1, 1, 3)
            expected = np.stack([furx_all(block[r].copy(), betas[r], n)
                                 for r in range(3)])
            furx_all_batch(block, betas, n)
            np.testing.assert_allclose(block, expected, atol=1e-13)

    def test_xy_batch_kernels_match_per_row(self):
        rng = np.random.default_rng(2)
        n = 5
        block = _random_block(rng, 4, 1 << n)
        betas = rng.uniform(-1, 1, 4)
        a = np.cos(betas).astype(complex)
        b = (-1j * np.sin(betas)).astype(complex)
        expected = block.copy()
        for r in range(4):
            apply_xy_su2(expected[r], complex(a[r]), complex(b[r]), 3, 1)
        apply_xy_su2_batch(block, a, b, 3, 1)
        np.testing.assert_allclose(block, expected, atol=1e-14)
        for batch_fn, row_fn in ((furxy_ring_batch, furxy_ring),
                                 (furxy_complete_batch, furxy_complete)):
            blk = _random_block(rng, 4, 1 << n)
            exp = np.stack([row_fn(blk[r].copy(), betas[r], n) for r in range(4)])
            batch_fn(blk, betas, n)
            np.testing.assert_allclose(blk, exp, atol=1e-13)

    def test_blocked_batch_kernels_match_per_row(self):
        rng = np.random.default_rng(3)
        n = 6
        n_states = 1 << n
        # a tiny block size forces chunking in every kernel
        ws = KernelWorkspace(n_states, block_size=16)
        block = _random_block(rng, 3, n_states)
        betas = rng.uniform(-1, 1, 3)
        a = np.cos(betas).astype(complex)
        b = (-1j * np.sin(betas)).astype(complex)

        expected = block.copy()
        for r in range(3):
            apply_su2_blocked(expected[r], complex(a[r]), complex(b[r]), 4, ws)
        apply_su2_batch_blocked(block, a, b, 4, ws)
        np.testing.assert_allclose(block, expected, atol=1e-14)

        expected = block.copy()
        for r in range(3):
            furxy_blocked(expected[r], float(betas[r]), 0, 5, ws)
        furxy_batch_blocked(block, betas, 0, 5, ws)
        np.testing.assert_allclose(block, expected, atol=1e-14)

        costs = rng.uniform(-3, 3, n_states)
        gammas = rng.uniform(-1, 1, 3)
        expected = block.copy()
        for r in range(3):
            apply_phase_inplace(expected[r], costs, float(gammas[r]), ws)
        apply_phase_batch_inplace(block, costs, gammas, ws)
        np.testing.assert_allclose(block, expected, atol=1e-14)

        values = expectation_batch_inplace(block, costs, ws)
        probs = np.abs(block) ** 2
        np.testing.assert_allclose(values, probs @ costs, atol=1e-12)

    def test_phase_batch_with_table_matches_direct(self):
        rng = np.random.default_rng(4)
        n_states = 64
        costs = rng.integers(0, 5, n_states).astype(np.float64)
        table = build_phase_table(costs)
        assert table is not None and table.n_unique <= 5
        ws = KernelWorkspace(n_states, block_size=16)
        block = _random_block(rng, 3, n_states)
        gammas = rng.uniform(-1, 1, 3)
        expected = block * np.exp(np.multiply.outer(-1j * gammas, costs))
        apply_phase_batch_inplace(block, costs, gammas, ws, phase_table=table)
        np.testing.assert_allclose(block, expected, atol=1e-13)


class TestDiagonalPhaseTable:
    def test_repetitive_diagonal_builds_table(self):
        costs = np.tile([0.0, 1.0, 3.0, 1.0], 64)
        table = build_phase_table(costs)
        assert table is not None
        assert table.n_unique == 3
        assert len(table) == costs.size
        gamma = 0.37
        np.testing.assert_allclose(table.phases(gamma),
                                   np.exp(-1j * gamma * costs), atol=1e-15)
        out = np.empty(costs.size, dtype=np.complex128)
        assert table.phases(gamma, out=out) is out
        factors = table.factors_batch([0.1, 0.2])
        assert factors.shape == (2, 3)
        np.testing.assert_allclose(factors[1], np.exp(-1j * 0.2 * table.unique_values))

    def test_generic_diagonal_declines_table(self):
        rng = np.random.default_rng(0)
        assert build_phase_table(rng.uniform(0, 1, 256)) is None

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_phase_table(np.empty(0))
        with pytest.raises(ValueError, match="max_unique_fraction"):
            build_phase_table(np.ones(4), max_unique_fraction=0.0)


class TestHotPathRegressions:
    def test_decompress_accepts_dtype_instance(self):
        compressed = compress_diagonal(np.array([0.0, 1.0, 2.0, 3.0]))
        # np.dtype instances satisfy the annotated `np.dtype | type` contract
        out = compressed.decompress(np.dtype(np.float32))
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0, 3.0])
        out64 = compressed.decompress(np.dtype("float64"))
        assert out64.dtype == np.float64
        # the scalar-type spelling keeps working
        np.testing.assert_allclose(compressed.decompress(np.float32), out)

    @pytest.mark.parametrize("backend", ["python", "c"])
    def test_deep_compressed_simulation_decompresses_once(self, backend, monkeypatch):
        costs = repro.simulator(N, terms=labs.get_terms(N),
                                backend="python").get_cost_diagonal().copy()
        compressed = compress_diagonal(costs)
        calls = {"n": 0}
        original = CompressedDiagonal.decompress

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CompressedDiagonal, "decompress", counting)
        sim = repro.simulator(N, costs=compressed, backend=backend)
        rng = np.random.default_rng(0)
        p = 50
        result = sim.simulate_qaoa(rng.uniform(0, 1, p), rng.uniform(0, 1, p))
        sim.get_expectation(result)
        assert calls["n"] == 1

    def test_default_batch_resolves_default_costs_once(self, monkeypatch):
        sim = repro.simulator(5, terms=labs.get_terms(5), backend="python")
        calls = {"n": 0}
        original = type(sim).get_cost_diagonal

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(type(sim), "get_cost_diagonal", counting)
        rng = np.random.default_rng(1)
        sim.get_expectation_batch(rng.uniform(0, 1, (6, 2)),
                                  rng.uniform(0, 1, (6, 2)))
        assert calls["n"] == 1

    def test_python_inplace_probabilities_contiguous(self):
        sim = repro.simulator(5, terms=labs.get_terms(5), backend="python")
        result = sim.simulate_qaoa([0.3], [0.4])
        reference = sim.get_probabilities(result, preserve_state=True)
        probs = sim.get_probabilities(result, preserve_state=False)
        assert probs.dtype == np.float64
        assert probs.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(probs, reference, atol=1e-14)
