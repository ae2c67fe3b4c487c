"""Precomputation of the diagonal cost operator (Sec. III-A of the paper).

The central optimization of the paper: the diagonal of the problem Hamiltonian
``Ĉ = Σ_x f(x) |x><x|`` is computed once, stored as a 2^n *cost vector*, and
reused (a) every time the phase operator is applied — one element-wise complex
multiply instead of re-simulating O(|T|) gates — and (b) every time the QAOA
objective ``<γβ|Ĉ|γβ>`` is evaluated — one inner product.

The kernel mirrors the GPU kernel described in the paper: for a term
``(w, t)`` and basis-state index ``x``, the term value is
``w · (−1)^popcount(x & mask_t)`` — a bitwise-AND followed by a population
count.  The computation is embarrassingly parallel over vector elements and
*local*: element ``x`` depends on nothing but ``x`` itself, which is what makes
the precomputation communication-free in the distributed setting (each rank
precomputes exactly its slice of the cost vector, Sec. III-C).

Memory notes reproduced from the paper:

* LABS cost values are non-negative integers below 2¹⁶ for n < 65, so the
  diagonal can be stored as ``uint16`` (``CompressedDiagonal``), adding 2
  bytes per 16-byte complex128 amplitude — the **12.5 %** memory overhead
  quoted in the paper's abstract (``diagonal_memory_overhead``);
* a full-precision float64 diagonal costs 8 bytes per amplitude (50 %) and is
  the default for problems with non-integer weights.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from ..problems.terms import (
    Term,
    get_offset,
    normalize_terms,
    num_variables,
    validate_terms,
)

__all__ = [
    "term_mask",
    "term_masks_and_weights",
    "precompute_cost_diagonal",
    "precompute_cost_diagonal_slice",
    "precompute_cost_diagonal_from_function",
    "apply_terms_to_slice",
    "CompressedDiagonal",
    "compress_diagonal",
    "DiagonalPhaseTable",
    "build_phase_table",
    "diagonal_memory_bytes",
    "diagonal_memory_overhead",
    "DEFAULT_CHUNK_SIZE",
]

#: Number of basis states processed per chunk by the vectorized kernel.  Keeps
#: temporary buffers small enough to stay cache-resident without paying Python
#: loop overhead per element (guide: vectorize, mind cache effects).
DEFAULT_CHUNK_SIZE: int = 1 << 20


def term_mask(indices: Iterable[int]) -> int:
    """Bit mask with a 1 at every qubit index of the term."""
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask


def term_masks_and_weights(terms: Iterable[tuple[float, Iterable[int]]],
                           n_qubits: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Split a term list into (masks, weights, constant offset) arrays.

    The masks/weights arrays cover only non-constant terms; the scalar offset
    accumulates all empty-index terms.
    """
    normalized = validate_terms(terms, n_qubits)
    masks: list[int] = []
    weights: list[float] = []
    offset = 0.0
    for w, idx in normalized:
        if len(idx) == 0:
            offset += w
        else:
            masks.append(term_mask(idx))
            weights.append(w)
    return (np.asarray(masks, dtype=np.uint64),
            np.asarray(weights, dtype=np.float64),
            offset)


def apply_terms_to_slice(masks: np.ndarray, weights: np.ndarray, offset: float,
                         start: int, stop: int,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the cost polynomial on the index range ``[start, stop)``.

    This is the innermost kernel: ``out[x - start] = offset + Σ_k w_k ·
    (−1)^popcount(x & mask_k)``.  ``out`` may be supplied to accumulate in
    place (it is overwritten, not added to).
    """
    if stop < start:
        raise ValueError(f"invalid slice [{start}, {stop})")
    length = stop - start
    if out is None:
        out = np.empty(length, dtype=np.float64)
    elif out.shape[0] != length:
        raise ValueError(f"output buffer has length {out.shape[0]}, expected {length}")
    out.fill(offset)
    if length == 0 or masks.size == 0:
        return out
    idx = np.arange(start, stop, dtype=np.uint64)
    # Chunk over terms is unnecessary (term count is modest); chunk over the
    # index range is handled by the callers.  One temporary per term batch.
    for mask, w in zip(masks, weights):
        parity = (np.bitwise_count(idx & mask) & np.uint64(1)).astype(np.float64)
        # (-1)^parity = 1 - 2*parity
        out += w * (1.0 - 2.0 * parity)
    return out


def precompute_cost_diagonal(terms: Iterable[tuple[float, Iterable[int]]],
                             n_qubits: int | None = None,
                             *,
                             dtype: np.dtype | type = np.float64,
                             chunk_size: int = DEFAULT_CHUNK_SIZE,
                             out: np.ndarray | None = None) -> np.ndarray:
    """Precompute the full 2^n cost vector from polynomial terms.

    Parameters
    ----------
    terms:
        Iterable of ``(weight, indices)`` pairs (Eq. 1).
    n_qubits:
        Number of qubits; inferred from the largest index if omitted.
    dtype:
        Output dtype (``float64`` by default; ``float32`` supported for
        reduced-memory studies).
    chunk_size:
        Number of basis states processed per vectorized chunk.
    out:
        Optional preallocated output array of length 2^n.

    Returns
    -------
    numpy.ndarray
        Array ``c`` with ``c[x] = f(x)`` for every basis state ``x``.
    """
    term_list = normalize_terms(terms)
    if n_qubits is None:
        n_qubits = num_variables(term_list)
        if n_qubits == 0:
            raise ValueError("cannot infer qubit count from constant-only terms")
    size = 1 << n_qubits
    masks, weights, offset = term_masks_and_weights(term_list, n_qubits)
    if out is None:
        out = np.empty(size, dtype=dtype)
    elif out.shape[0] != size:
        raise ValueError(f"output buffer has length {out.shape[0]}, expected {size}")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    buf = np.empty(min(chunk_size, size), dtype=np.float64)
    for start in range(0, size, chunk_size):
        stop = min(start + chunk_size, size)
        view = buf[: stop - start]
        apply_terms_to_slice(masks, weights, offset, start, stop, out=view)
        out[start:stop] = view
    return out


def precompute_cost_diagonal_slice(terms: Iterable[tuple[float, Iterable[int]]],
                                   n_qubits: int,
                                   start: int,
                                   stop: int,
                                   *,
                                   dtype: np.dtype | type = np.float64,
                                   chunk_size: int = DEFAULT_CHUNK_SIZE) -> np.ndarray:
    """Precompute only the cost-vector slice ``[start, stop)``.

    Used by the distributed simulators (Sec. III-C): each rank computes the
    slice corresponding to its portion of the state vector, with no
    communication.
    """
    size = 1 << n_qubits
    if not (0 <= start <= stop <= size):
        raise ValueError(f"slice [{start}, {stop}) out of range for 2^{n_qubits} states")
    masks, weights, offset = term_masks_and_weights(terms, n_qubits)
    out = np.empty(stop - start, dtype=dtype)
    buf = np.empty(min(chunk_size, max(stop - start, 1)), dtype=np.float64)
    for s in range(start, stop, chunk_size):
        e = min(s + chunk_size, stop)
        view = buf[: e - s]
        apply_terms_to_slice(masks, weights, offset, s, e, out=view)
        out[s - start:e - start] = view
    return out


def precompute_cost_diagonal_from_function(func: Callable[[np.ndarray], float],
                                           n_qubits: int,
                                           *,
                                           dtype: np.dtype | type = np.float64,
                                           vectorized: bool = False) -> np.ndarray:
    """Precompute the cost vector from an arbitrary Python cost function.

    This mirrors QOKit's support for cost functions given as a Python lambda
    rather than as polynomial terms.  ``func`` receives, for each basis state,
    the little-endian bit array (length ``n_qubits``, dtype int64) and must
    return a float.  With ``vectorized=True`` the function instead receives the
    full ``(2^n, n)`` bit matrix and must return a length-2^n vector.
    """
    size = 1 << n_qubits
    idx = np.arange(size, dtype=np.uint64)[:, None]
    shifts = np.arange(n_qubits, dtype=np.uint64)[None, :]
    bits = ((idx >> shifts) & np.uint64(1)).astype(np.int64)
    if vectorized:
        values = np.asarray(func(bits), dtype=np.float64)
        if values.shape != (size,):
            raise ValueError(f"vectorized cost function returned shape {values.shape}, "
                             f"expected ({size},)")
        return values.astype(dtype)
    out = np.empty(size, dtype=dtype)
    for x in range(size):
        out[x] = func(bits[x])
    return out


# ---------------------------------------------------------------------------
# Compressed (integer) diagonals — Sec. V-B: uint16 storage for LABS at scale.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompressedDiagonal:
    """Integer-compressed cost diagonal ``costs[x] = scale * stored[x] + shift``.

    The paper stores the LABS diagonal as ``uint16`` (its values are
    non-negative integers below 2¹⁶ for n < 65), reducing the memory overhead
    of precomputation from 12.5 % to under 2 %.  This container generalizes the
    trick to any affine integer encoding.
    """

    values: np.ndarray
    scale: float
    shift: float

    @property
    def nbytes(self) -> int:
        """Memory footprint of the stored representation."""
        return int(self.values.nbytes)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def decompress(self, dtype: np.dtype | type = np.float64) -> np.ndarray:
        """Reconstruct the float cost vector.

        ``dtype`` may be a NumPy scalar type (``np.float32``) or a ``np.dtype``
        instance (``np.dtype("float32")``) — dtype instances are not callable,
        so the affine parameters go through ``np.dtype(dtype).type``.
        """
        scalar = np.dtype(dtype).type
        return (self.values.astype(dtype) * scalar(self.scale)) + scalar(self.shift)

    def __getitem__(self, item) -> np.ndarray:
        """Decompressed access to a slice (used by phase-operator kernels)."""
        return self.values[item].astype(np.float64) * self.scale + self.shift


def compress_diagonal(costs: np.ndarray, *, dtype: np.dtype | type = np.uint16,
                      rtol: float = 1e-9) -> CompressedDiagonal:
    """Compress a float cost vector into an integer representation.

    The costs must be (approximately) integer multiples of a common scale after
    subtracting their minimum; for LABS with the standard formulation they are
    exact non-negative integers and compress losslessly into ``uint16`` for
    n < 65.  Raises ``ValueError`` if the values do not fit the target dtype or
    are not close to an integer grid.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.size == 0:
        raise ValueError("cannot compress an empty diagonal")
    info = np.iinfo(dtype)
    shift = float(costs.min())
    shifted = costs - shift
    max_val = float(shifted.max())
    if max_val == 0.0:
        scale = 1.0
    else:
        # Use the greatest common scale consistent with integer storage: try
        # scale 1 first (typical integer-valued objectives such as LABS and
        # unweighted MaxCut), otherwise scale so the max maps to the dtype max.
        if np.allclose(shifted, np.round(shifted), rtol=0, atol=rtol * max(1.0, max_val)) \
                and np.round(max_val) <= info.max:
            scale = 1.0
        else:
            scale = max_val / info.max
    quantized = np.round(shifted / scale)
    if quantized.max() > info.max or quantized.min() < info.min:
        raise ValueError(
            f"cost values spanning [{costs.min()}, {costs.max()}] do not fit dtype {np.dtype(dtype)}"
        )
    if not np.allclose(quantized * scale, shifted, rtol=0, atol=max(rtol * max(1.0, max_val), 1e-12)):
        raise ValueError("cost values are not representable on an integer grid; "
                         "refusing lossy compression (pass a float dtype instead)")
    return CompressedDiagonal(values=quantized.astype(dtype), scale=float(scale), shift=shift)


# ---------------------------------------------------------------------------
# Phase tables — unique-value factorization of the phase operator.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalPhaseTable:
    """Unique-value factorization of a cost diagonal for phase application.

    Combinatorial cost diagonals take few distinct values (LABS sidelobe
    energies and unweighted MaxCut sizes are small integers), so the phase
    operator factors as ``exp(-i γ c[x]) = table[inverse[x]]`` with
    ``table = exp(-i γ · unique_values)``.  One transcendental per *unique*
    value plus a gather replaces one transcendental per *basis state* — the
    dominant per-layer saving of the fused batch engine, where the same
    diagonal is phased with many different ``γ`` values.
    """

    #: sorted distinct cost values, shape (U,)
    unique_values: np.ndarray
    #: index of each basis state's cost in ``unique_values``, shape (2^n,)
    inverse: np.ndarray

    def __post_init__(self) -> None:
        # The phase kernels gather with ``np.take(..., mode="clip")`` (no
        # bounds check, no full-length temporary), so the one range check
        # of ``inverse`` happens here, where a hand-built table is made.
        n_unique = self.unique_values.shape[0]
        if self.inverse.size and (self.inverse.min() < 0
                                  or self.inverse.max() >= n_unique):
            raise ValueError(
                f"phase-table inverse indices must lie in [0, {n_unique})")

    @property
    def n_unique(self) -> int:
        """Number of distinct cost values U."""
        return int(self.unique_values.shape[0])

    def __len__(self) -> int:
        return int(self.inverse.shape[0])

    def factors(self, gamma: float,
                dtype: np.dtype | type = np.complex128) -> np.ndarray:
        """The length-U table ``exp(-i γ · unique_values)``.

        ``dtype`` selects the precision of the gathered factors (the table is
        tiny, so the exponential is always evaluated in double and cast) —
        single-precision simulators gather ``complex64`` factors so the
        full-width multiply into the state stays at state precision.
        """
        table = np.exp(self.unique_values * (-1j * float(gamma)))
        return table.astype(dtype, copy=False)

    def factors_batch(self, gammas: np.ndarray,
                      dtype: np.dtype | type = np.complex128) -> np.ndarray:
        """Per-schedule tables ``exp(-i γ_b · unique_values)``, shape (B, U)."""
        g = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
        table = np.exp(np.outer(g, self.unique_values) * (-1j))
        return table.astype(dtype, copy=False)

    def phases(self, gamma: float, out: np.ndarray | None = None) -> np.ndarray:
        """Full-length phase vector ``exp(-i γ c)`` via table gather."""
        if out is None:
            return np.take(self.factors(gamma), self.inverse, mode="clip")
        np.take(self.factors(gamma, dtype=out.dtype), self.inverse, out=out,
                mode="clip")
        return out


def build_phase_table(costs: np.ndarray, *,
                      max_unique_fraction: float = 0.125) -> DiagonalPhaseTable | None:
    """Build a :class:`DiagonalPhaseTable` when the diagonal is repetitive enough.

    Returns ``None`` when the distinct-value count exceeds
    ``max_unique_fraction`` of the diagonal length — the gather would then
    save nothing over evaluating ``exp`` directly (e.g. generic real-weighted
    problems where almost every basis state has a distinct cost).
    """
    arr = np.asarray(costs, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("phase table requires a non-empty 1-D cost diagonal")
    if not 0.0 < max_unique_fraction <= 1.0:
        raise ValueError("max_unique_fraction must be in (0, 1]")
    unique, inverse = np.unique(arr, return_inverse=True)
    if unique.size > max(2, int(arr.size * max_unique_fraction)):
        return None
    inverse = np.ascontiguousarray(inverse, dtype=np.intp)
    # Tables are cached on simulators and inside compiled execution plans and
    # shared by every evaluation — read-only, like the diagonal cache.
    unique.setflags(write=False)
    inverse.setflags(write=False)
    return DiagonalPhaseTable(unique_values=unique, inverse=inverse)


def diagonal_memory_bytes(n_qubits: int, dtype: np.dtype | type = np.float64) -> int:
    """Memory required to store a full 2^n cost vector of the given dtype."""
    return (1 << n_qubits) * np.dtype(dtype).itemsize


def diagonal_memory_overhead(n_qubits: int,
                             diag_dtype: np.dtype | type = np.float64,
                             state_dtype: np.dtype | type = np.complex128) -> float:
    """Relative memory overhead of storing the diagonal next to the state vector.

    A full-precision float64 diagonal next to a complex128 state vector is a
    50 % overhead; the compressed uint16 diagonal used for LABS at scale
    (Sec. V-B) is 2/16 = 12.5 %, which is the figure quoted in the paper's
    abstract.
    """
    return np.dtype(diag_dtype).itemsize / np.dtype(state_dtype).itemsize
