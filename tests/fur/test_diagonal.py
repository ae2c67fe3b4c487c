"""Tests for the cost-diagonal precomputation (Sec. III-A)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fur import diagonal as D
from repro.problems import labs, maxcut
from repro.problems.terms import brute_force_cost_vector

from repro.testing import random_terms


class TestMasks:
    def test_term_mask(self):
        assert D.term_mask((0, 2, 5)) == 0b100101
        assert D.term_mask(()) == 0

    def test_masks_and_weights_split_offset(self):
        masks, weights, offset = D.term_masks_and_weights(
            [(1.0, (0, 1)), (2.0, ()), (3.0, (2,)), (-1.0, ())], 3
        )
        assert offset == 1.0
        assert set(masks.tolist()) == {0b011, 0b100}
        assert sorted(weights.tolist()) == [1.0, 3.0]

    def test_masks_validate_range(self):
        with pytest.raises(ValueError):
            D.term_masks_and_weights([(1.0, (5,))], 3)


class TestPrecompute:
    def test_matches_bruteforce_random(self, rng):
        n = 7
        terms = random_terms(rng, n, 12, max_order=4)
        diag = D.precompute_cost_diagonal(terms, n)
        np.testing.assert_allclose(diag, brute_force_cost_vector(terms, n), atol=1e-10)

    def test_matches_labs_energies(self):
        n = 10
        diag = D.precompute_cost_diagonal(labs.get_terms(n), n)
        np.testing.assert_allclose(diag, labs.energies_all_sequences(n))

    def test_matches_maxcut_cuts(self):
        g = maxcut.random_regular_graph(3, 8, seed=2, weighted=True)
        terms = maxcut.maxcut_terms_from_graph(g)
        diag = D.precompute_cost_diagonal(terms, 8)
        cuts = np.array([maxcut.cut_value_from_index(g, x) for x in range(256)])
        np.testing.assert_allclose(diag, -cuts, atol=1e-10)

    def test_infers_n_from_terms(self):
        diag = D.precompute_cost_diagonal([(1.0, (0, 3))])
        assert diag.shape == (16,)

    def test_constant_only_needs_n(self):
        with pytest.raises(ValueError):
            D.precompute_cost_diagonal([(1.0, ())])
        diag = D.precompute_cost_diagonal([(1.0, ())], 3)
        np.testing.assert_allclose(diag, 1.0)

    def test_small_chunks_agree(self, rng):
        n = 6
        terms = random_terms(rng, n, 8)
        full = D.precompute_cost_diagonal(terms, n)
        chunked = D.precompute_cost_diagonal(terms, n, chunk_size=7)
        np.testing.assert_allclose(full, chunked)

    def test_out_buffer_and_dtype(self, rng):
        n = 5
        terms = random_terms(rng, n, 5)
        out = np.empty(1 << n, dtype=np.float32)
        result = D.precompute_cost_diagonal(terms, n, dtype=np.float32, out=out)
        assert result is out
        assert result.dtype == np.float32

    def test_invalid_arguments(self, rng):
        terms = random_terms(rng, 4, 3)
        with pytest.raises(ValueError):
            D.precompute_cost_diagonal(terms, 4, chunk_size=0)
        with pytest.raises(ValueError):
            D.precompute_cost_diagonal(terms, 4, out=np.empty(3))

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_bruteforce(self, n, seed):
        rng = np.random.default_rng(seed)
        terms = random_terms(rng, n, int(rng.integers(1, 10)), max_order=min(4, n))
        diag = D.precompute_cost_diagonal(terms, n)
        np.testing.assert_allclose(diag, brute_force_cost_vector(terms, n), atol=1e-9)


class TestSlices:
    def test_slice_concatenation_equals_full(self, rng):
        n = 8
        terms = random_terms(rng, n, 10, max_order=4)
        full = D.precompute_cost_diagonal(terms, n)
        parts = [D.precompute_cost_diagonal_slice(terms, n, s, s + 64) for s in range(0, 256, 64)]
        np.testing.assert_allclose(np.concatenate(parts), full)

    def test_empty_and_invalid_slices(self, rng):
        terms = random_terms(rng, 4, 3)
        assert D.precompute_cost_diagonal_slice(terms, 4, 3, 3).shape == (0,)
        with pytest.raises(ValueError):
            D.precompute_cost_diagonal_slice(terms, 4, 10, 20)
        with pytest.raises(ValueError):
            D.apply_terms_to_slice(np.array([], dtype=np.uint64), np.array([]), 0.0, 5, 3)


class TestFromFunction:
    def test_scalar_function(self):
        n = 4
        diag = D.precompute_cost_diagonal_from_function(lambda bits: float(bits.sum()), n)
        idx = np.arange(1 << n, dtype=np.uint64)
        np.testing.assert_allclose(diag, np.bitwise_count(idx).astype(float))

    def test_vectorized_function(self):
        n = 5
        diag = D.precompute_cost_diagonal_from_function(
            lambda bits: bits.sum(axis=1).astype(float), n, vectorized=True
        )
        idx = np.arange(1 << n, dtype=np.uint64)
        np.testing.assert_allclose(diag, np.bitwise_count(idx).astype(float))

    def test_vectorized_shape_error(self):
        with pytest.raises(ValueError):
            D.precompute_cost_diagonal_from_function(lambda bits: np.zeros(3), 4, vectorized=True)

    def test_function_matches_terms(self):
        n = 6
        terms = labs.get_terms(n)
        from repro.problems.terms import evaluate_terms_on_bits

        diag_fn = D.precompute_cost_diagonal_from_function(
            lambda bits: evaluate_terms_on_bits(terms, bits), n
        )
        np.testing.assert_allclose(diag_fn, D.precompute_cost_diagonal(terms, n))


class TestCompression:
    def test_labs_diagonal_compresses_to_uint16(self):
        n = 12
        diag = D.precompute_cost_diagonal(labs.get_terms(n), n)
        comp = D.compress_diagonal(diag)
        assert comp.values.dtype == np.uint16
        assert comp.scale == 1.0
        np.testing.assert_allclose(comp.decompress(), diag)
        # footprint reduced 4x vs float64
        assert comp.nbytes == diag.nbytes // 4

    def test_compressed_getitem_slice(self):
        diag = np.array([0.0, 3.0, 7.0, 1.0])
        comp = D.compress_diagonal(diag)
        np.testing.assert_allclose(comp[1:3], [3.0, 7.0])
        assert len(comp) == 4

    def test_non_integer_costs_rejected(self):
        # 0.3 is not representable on the uint16 grid spanned by [0, 1]
        with pytest.raises(ValueError):
            D.compress_diagonal(np.array([0.0, 0.3, 1.0]))

    def test_constant_diagonal(self):
        comp = D.compress_diagonal(np.full(8, 5.0))
        np.testing.assert_allclose(comp.decompress(), 5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            D.compress_diagonal(np.array([]))

    def test_negative_integer_costs_shifted(self):
        diag = np.array([-3.0, 0.0, 5.0])
        comp = D.compress_diagonal(diag)
        np.testing.assert_allclose(comp.decompress(), diag)

    def test_uint8_overflow_detected(self):
        with pytest.raises(ValueError):
            D.compress_diagonal(np.array([0.0, 1.0, 300.0, 301.5]), dtype=np.uint8)


class TestMemoryAccounting:
    def test_uint16_overhead_is_12_5_percent(self):
        """The abstract's claim: the (uint16) cost vector adds 12.5 % to the footprint."""
        assert D.diagonal_memory_overhead(20, diag_dtype=np.uint16) == pytest.approx(0.125)

    def test_float64_overhead_is_50_percent(self):
        assert D.diagonal_memory_overhead(20) == pytest.approx(0.5)

    def test_memory_bytes(self):
        assert D.diagonal_memory_bytes(10) == 1024 * 8
        assert D.diagonal_memory_bytes(10, np.uint16) == 1024 * 2


class TestPhaseTable:
    def test_gather_matches_direct_exponential(self):
        costs = D.precompute_cost_diagonal(labs.get_terms(8), 8)
        table = D.build_phase_table(costs)
        assert table is not None
        want = np.exp(-1j * 0.37 * costs)
        np.testing.assert_allclose(table.phases(0.37), want, atol=1e-13)
        out = np.empty(costs.size, dtype=np.complex128)
        assert table.phases(0.37, out=out) is out
        np.testing.assert_allclose(out, want, atol=1e-13)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_hand_built_table_with_out_of_range_inverse_fails(self, bad):
        # The kernels gather with mode="clip", so the range check happens
        # once, when the table is made.
        with pytest.raises(ValueError, match="inverse"):
            D.DiagonalPhaseTable(unique_values=np.array([0.0, 1.0, 2.0]),
                                 inverse=np.array([0, 1, bad], dtype=np.intp))

    def test_hand_built_valid_table(self):
        table = D.DiagonalPhaseTable(unique_values=np.array([0.0, 2.0]),
                                     inverse=np.array([1, 0, 1], dtype=np.intp))
        np.testing.assert_allclose(table.phases(0.5),
                                   np.exp(-1j * 0.5 * np.array([2.0, 0.0, 2.0])))
