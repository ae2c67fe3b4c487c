"""Fast uniform SU(2) rotations on a state vector (Algorithms 1 and 2).

These kernels implement the paper's mixer-application primitive: a single
SU(2) rotation applied to one qubit of a 2^n state vector, in place
(Algorithm 1), and the "uniform" transform applying the same rotation to every
qubit in sequence (Algorithm 2).  For the transverse-field mixer
``exp(-i β Σ_i X_i)`` the per-qubit rotation is ``exp(-i β X)``; one full pass
over all qubits has the same cost as one fast Walsh–Hadamard transform, which
is the minimum possible for an operator coupling all 2^n amplitudes.

The NumPy implementation reshapes the state vector so the target qubit becomes
an explicit axis and updates the two half-slices with vectorized arithmetic.
The update uses a single temporary of half the state-vector size (the paper's
CUDA kernel updates amplitude pairs truly in place; in NumPy a half-slice
temporary is the idiomatic equivalent — see ``repro.fur.cvect`` for the
cache-blocked variant that bounds the temporary size).
"""

from __future__ import annotations

import cmath

import numpy as np

__all__ = [
    "apply_su2",
    "apply_su2_batch",
    "furx",
    "furx_all",
    "furx_all_batch",
    "furx_phase_all_batch",
    "su2_x_rotation",
    "su2_x_rotation_batch",
    "fwht_inplace",
]

#: Qubits fused per gemm pass of the batched mixer (2^4 = 16-dim group
#: unitaries keep the matmul arithmetic-intensity high without blowing up the
#: 2^k per-group flop count).
BATCH_GROUP_QUBITS: int = 4


def su2_x_rotation(beta: float) -> tuple[complex, complex]:
    """SU(2) parameters ``(a, b)`` of ``exp(-i β X)``.

    The gate is ``cos(β) I − i sin(β) X``; in the paper's parameterization
    ``U = [[a, −b*], [b, a*]]`` this is ``a = cos β``, ``b = −i sin β``.
    """
    return complex(np.cos(beta)), -1j * complex(np.sin(beta))


def apply_su2(statevector: np.ndarray, a: complex, b: complex, qubit: int) -> np.ndarray:
    """Apply ``U = [[a, −b*], [b, a*]]`` to ``qubit`` of ``statevector``, in place.

    This is Algorithm 1 with the index arithmetic replaced by a reshape: axis
    layout ``(high bits, target bit, low bits)`` exposes the amplitude pairs
    ``(y_{l1}, y_{l2})`` as two contiguous slabs.

    Parameters
    ----------
    statevector:
        Complex array of length 2^n, modified in place and also returned.
    a, b:
        SU(2) matrix entries (``|a|² + |b|² = 1`` for a unitary; not enforced,
        which allows non-unitary SU(2)-shaped updates in tests).
    qubit:
        Target qubit, with qubit ``q`` addressing stride ``2**q``.
    """
    n_states = statevector.shape[0]
    stride = 1 << qubit
    if qubit < 0 or stride * 2 > n_states:
        raise ValueError(f"qubit {qubit} out of range for state vector of length {n_states}")
    # Cast the coefficients to the state dtype so complex64 states never pay
    # for widened complex128 temporaries in the pair update.
    a = statevector.dtype.type(a)
    b = statevector.dtype.type(b)
    view = statevector.reshape(-1, 2, stride)
    lo = view[:, 0, :]
    hi = view[:, 1, :]
    tmp = lo.copy()
    # y_l1 <- a*y_l1 - b*.y_l2 ; y_l2 <- b*y_l1_old + a*.y_l2   (simultaneous)
    lo *= a
    lo -= np.conj(b) * hi
    hi *= np.conj(a)
    hi += b * tmp
    return statevector


def furx(statevector: np.ndarray, beta: float, qubit: int) -> np.ndarray:
    """Apply ``exp(-i β X)`` to a single qubit, in place (one mixer factor)."""
    a, b = su2_x_rotation(beta)
    return apply_su2(statevector, a, b, qubit)


def furx_all(statevector: np.ndarray, beta: float, n_qubits: int) -> np.ndarray:
    """Apply the full transverse-field mixer ``exp(-i β Σ_i X_i)``, in place.

    This is Algorithm 2: the product of commuting single-qubit rotations is
    applied one qubit at a time.  At ``β = π/2`` the operation reduces (up to a
    global phase) to the Walsh–Hadamard transform, the connection highlighted
    in Sec. III-B of the paper.
    """
    if statevector.shape[0] != (1 << n_qubits):
        raise ValueError(
            f"state vector length {statevector.shape[0]} does not match n={n_qubits}"
        )
    a, b = su2_x_rotation(beta)
    for q in range(n_qubits):
        apply_su2(statevector, a, b, q)
    return statevector


# ---------------------------------------------------------------------------
# Batched kernels — one NumPy op covers a whole (B, 2^n) block of states.
# ---------------------------------------------------------------------------

def su2_x_rotation_batch(betas: np.ndarray,
                         dtype: np.dtype | type = np.complex128
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per-schedule SU(2) parameters ``(a_b, b_b)`` of ``exp(-i β_b X)``."""
    b_arr = np.asarray(betas, dtype=np.float64)
    return (np.cos(b_arr).astype(dtype),
            (-1j * np.sin(b_arr)).astype(dtype))


def _batch_coefficient(coeff: complex | np.ndarray, rows: int,
                       dtype: np.dtype) -> np.ndarray:
    """Normalize an SU(2) coefficient to a scalar or (rows, 1, 1) broadcaster.

    The coefficient is cast to the block's complex dtype so the pair update
    runs entirely at state precision.
    """
    arr = np.asarray(coeff, dtype=dtype)
    if arr.ndim == 0:
        return arr[()]
    if arr.shape != (rows,):
        raise ValueError(f"coefficient batch has shape {arr.shape}, expected ({rows},)")
    return arr.reshape(rows, 1, 1)


def apply_su2_batch(block: np.ndarray, a: complex | np.ndarray,
                    b: complex | np.ndarray, qubit: int) -> np.ndarray:
    """Batched Algorithm 1: apply ``[[a, −b*], [b, a*]]`` to one qubit of every row.

    ``block`` is a C-contiguous ``(B, 2^n)`` array (one state per row); the
    reshape to ``(B, high, 2, stride)`` exposes all ``B`` amplitude-pair slabs
    to a single vectorized update.  ``a`` and ``b`` may be scalars (same
    rotation on every row) or length-``B`` arrays (one rotation per schedule,
    broadcast along the state axes).
    """
    if block.ndim != 2:
        raise ValueError(f"batched kernel expects a (B, 2^n) block, got shape {block.shape}")
    rows, n_states = block.shape
    stride = 1 << qubit
    if qubit < 0 or stride * 2 > n_states:
        raise ValueError(f"qubit {qubit} out of range for state vectors of length {n_states}")
    view = block.reshape(rows, -1, 2, stride)
    lo = view[:, :, 0, :]
    hi = view[:, :, 1, :]
    a_c = _batch_coefficient(a, rows, block.dtype)
    b_c = _batch_coefficient(b, rows, block.dtype)
    tmp = lo.copy()
    lo *= a_c
    lo -= np.conjugate(b_c) * hi
    hi *= np.conjugate(a_c)
    hi += b_c * tmp
    return block


def _su2_batch_matrices(betas: np.ndarray,
                        dtype: np.dtype | type = np.complex128) -> np.ndarray:
    """Stacked single-qubit mixers ``exp(-i β_b X)``, shape (B, 2, 2)."""
    a, b = su2_x_rotation_batch(betas, dtype=dtype)
    u = np.empty((a.shape[0], 2, 2), dtype=dtype)
    u[:, 0, 0] = a
    u[:, 1, 1] = a
    u[:, 0, 1] = b
    u[:, 1, 0] = b
    return u


def _group_kron(u: np.ndarray, k: int) -> np.ndarray:
    """Row-wise ``u ⊗ … ⊗ u`` (k factors), shape (B, 2^k, 2^k).

    All factors are equal, so the qubit-ordering of the Kronecker product is
    irrelevant; the result is the group unitary on ``k`` adjacent qubits.
    """
    out = u
    for _ in range(k - 1):
        d = out.shape[1]
        out = (out[:, :, None, :, None] * u[:, None, :, None, :]).reshape(-1, 2 * d, 2 * d)
    return out


def furx_all_batch(block: np.ndarray, betas: np.ndarray, n_qubits: int, *,
                   group_size: int = BATCH_GROUP_QUBITS,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Batched Algorithm 2: ``exp(-i β_b Σ_i X_i)`` on every row of a block.

    Instead of 2×2 pair updates (one memory sweep per qubit), qubits are fused
    into groups of ``group_size``: each pass contracts a ``(2^k, 2^k)``
    per-row group unitary against the block via one stacked ``matmul``, which
    cuts the number of full-block memory sweeps by ``group_size`` and turns
    the mixer into gemm work.  Passes ping-pong between ``block`` and
    ``scratch``; the final result is always written back into ``block``
    (modified in place and returned).

    ``scratch`` must be a buffer with ``block``'s shape and dtype (allocated
    here when omitted; callers evolving many layers should preallocate one).
    """
    rows, _ = _validate_group_kernel_block(block, n_qubits, group_size)
    betas_arr = np.broadcast_to(np.asarray(betas, dtype=np.float64), (rows,))
    # Group unitaries at the block's dtype: the stacked matmuls then dispatch
    # to the matching-precision gemm instead of a widened fallback.
    u = _su2_batch_matrices(betas_arr, dtype=block.dtype)
    scratch = _check_scratch(block, scratch)
    return _group_pass_loop(block, scratch, u, n_qubits, 0, group_size)


def _validate_group_kernel_block(block: np.ndarray, n_qubits: int,
                                 group_size: int) -> tuple[int, int]:
    """Shared argument validation of the gemm-grouped batch kernels."""
    if block.ndim != 2:
        raise ValueError(f"batched kernel expects a (B, 2^n) block, got shape {block.shape}")
    rows, n_states = block.shape
    if n_states != (1 << n_qubits):
        raise ValueError(
            f"state vectors of length {n_states} do not match n={n_qubits}"
        )
    if group_size < 1:
        raise ValueError("group_size must be at least 1")
    return rows, n_states


def _check_scratch(block: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    if scratch is None:
        return np.empty_like(block)
    if scratch.shape != block.shape or scratch.dtype != block.dtype:
        raise ValueError("scratch must match the block's shape and dtype")
    return scratch


def _group_pass_loop(block: np.ndarray, scratch: np.ndarray, u: np.ndarray,
                     n_qubits: int, q_start: int, group_size: int,
                     start_in_scratch: bool = False,
                     copy_back: bool = True) -> np.ndarray:
    """The gemm-grouped pass loop over qubits ``q_start … n−1``.

    Passes ping-pong between ``block`` and ``scratch``; the final result is
    written back into ``block`` — unless ``copy_back=False``, in which case
    the buffer actually holding the result (``block`` or ``scratch``) is
    returned as-is, saving a full block write+read when the caller only
    *reads* the result (the fused mixer→expectation reduction).
    ``start_in_scratch`` indicates the current state lives in ``scratch``
    (used by the fused phase kernel, whose phase multiply lands there).
    """
    rows, n_states = block.shape
    src, dst = (scratch, block) if start_in_scratch else (block, scratch)
    q = q_start
    while q < n_qubits:
        k = min(group_size, n_qubits - q)
        group_u = _group_kron(u, k)
        dim = 1 << k
        stride = 1 << q
        groups = n_states // (dim * stride)
        if stride == 1:
            # Group axis is contiguous-last: one big (rows·groups, dim) gemm
            # per row against U^T beats a degenerate stride-1 stacked matmul.
            np.matmul(src.reshape(rows, groups, dim), group_u.transpose(0, 2, 1),
                      out=dst.reshape(rows, groups, dim))
        else:
            np.matmul(group_u[:, None], src.reshape(rows, groups, dim, stride),
                      out=dst.reshape(rows, groups, dim, stride))
        src, dst = dst, src
        q += k
    if src is not block and copy_back:
        np.copyto(block, src)
        return block
    return src


#: Amplitudes (summed over all rows) per chunk of the fused phase+first-pass
#: sweep — ~4 MiB of complex128 (8192 columns at the benchmark's B=32), the
#: measured sweet spot where the freshly phased chunk is still cache-warm for
#: the first group gemm while the per-chunk dispatch overhead stays amortized.
_FUSED_PHASE_CHUNK: int = 1 << 18


def furx_phase_all_batch(block: np.ndarray, gammas: np.ndarray, betas: np.ndarray,
                         n_qubits: int, *,
                         phase_table=None, costs: np.ndarray | None = None,
                         group_size: int = BATCH_GROUP_QUBITS,
                         scratch: np.ndarray | None = None,
                         phase_buf: np.ndarray | None = None,
                         chunk: int = _FUSED_PHASE_CHUNK,
                         copy_back: bool = True) -> np.ndarray:
    """Fused layer kernel: per-row ``exp(-i β_b Σ X_i) · exp(-i γ_b C)``.

    The separate batched phase sweep re-streams the whole ``(B, 2^n)`` block
    through memory before the mixer touches it; here the phase rides the
    mixer's chunk traversal instead.  The state axis is walked in cache-
    sized column chunks: each chunk is phased in place (factors gathered
    from the unique-value table when one applies, direct ``exp`` over
    ``costs`` otherwise) and the mixer's leading stride-1 group gemm runs on
    it immediately, reading the freshly phased chunk cache-hot through a
    contiguous view — phase + first pass stream the block exactly once.
    Only that leading pass joins the chunk loop: chunking the wider-stride
    passes splits them into strided sub-gemms that fall off the BLAS fast
    path and cost more than the cache locality buys (measured).  The
    remaining passes run the standard ping-pong loop, with the chunk-local
    pass alternating buffers exactly like the global loop would — parity
    works out with no extra copy-back.  ``phase_buf``
    optionally supplies the per-chunk gather buffer (callers on the hot
    path pass a persistent one — the workspace scratch or the simulator's
    phase buffer — so warmed-up layers allocate nothing).  Numerics are
    identical to ``apply_phase`` followed by :func:`furx_all_batch`: the
    batched group gemms are per-group independent, so chunking the group
    axis does not change a single floating-point operation.
    """
    rows, n_states = _validate_group_kernel_block(block, n_qubits, group_size)
    if phase_table is None and costs is None:
        raise ValueError("provide a phase_table or a costs diagonal")
    gammas_arr = np.broadcast_to(np.asarray(gammas, dtype=np.float64), (rows,))
    betas_arr = np.broadcast_to(np.asarray(betas, dtype=np.float64), (rows,))
    u = _su2_batch_matrices(betas_arr, dtype=block.dtype)
    scratch = _check_scratch(block, scratch)
    if phase_table is not None:
        factors = phase_table.factors_batch(gammas_arr, dtype=block.dtype)
        inverse = phase_table.inverse
    else:
        coeff = (-1j * gammas_arr).astype(block.dtype)
    # Per-row chunk width: a power of two so every chunk-local pass's group
    # extent divides it, shrunk to a caller-provided gather buffer rather
    # than allocating a bigger one (warmed-up layers stay allocation-free).
    cols = max(1, chunk // max(rows, 1))
    cols = 1 << (cols.bit_length() - 1)
    if (phase_buf is not None and phase_buf.ndim == 1 and phase_buf.shape[0] >= 1
            and phase_buf.dtype == block.dtype):
        cols = min(cols, 1 << (int(phase_buf.shape[0]).bit_length() - 1))
        pbuf = phase_buf
    else:
        pbuf = None
    cols = min(cols, n_states)
    if pbuf is None or pbuf.shape[0] < cols:
        pbuf = np.empty(cols, dtype=block.dtype)
    # At most the leading stride-1 pass runs inside the chunk loop (see the
    # docstring for why wider-stride passes stay global).
    k = min(group_size, n_qubits)
    dim = 1 << k
    fuse_first_pass = dim <= cols
    if fuse_first_pass:
        gmat = _group_kron(u, k).transpose(0, 2, 1)
        view_src = block.reshape(rows, -1, dim)
        view_dst = scratch.reshape(rows, -1, dim)
    for s in range(0, n_states, cols):
        e = min(s + cols, n_states)
        buf = pbuf[: e - s]
        for r in range(rows):
            if phase_table is not None:
                np.take(factors[r], inverse[s:e], out=buf, mode="clip")
            else:
                np.multiply(costs[s:e], coeff[r], out=buf)
                np.exp(buf, out=buf)
            block[r, s:e] *= buf
        if fuse_first_pass:
            np.matmul(view_src[:, s // dim:e // dim], gmat,
                      out=view_dst[:, s // dim:e // dim])
    # Continue the ping-pong from wherever the fused pass left the state
    # (scratch when the first pass ran inside the chunk loop).
    return _group_pass_loop(block, scratch, u, n_qubits,
                            k if fuse_first_pass else 0, group_size,
                            start_in_scratch=fuse_first_pass,
                            copy_back=copy_back)


def fwht_inplace(vector: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh–Hadamard transform, in place.

    Provided for the mixer-strategy ablation (Sec. VII discusses the
    alternative of simulating the mixer with two WHTs sandwiching a diagonal):
    ``exp(-i β Σ X_i) = H^{⊗n} · exp(-i β Σ Z_i) · H^{⊗n}``.  The butterfly
    below is the standard radix-2 transform with the same access pattern as
    :func:`apply_su2`.
    """
    n_states = vector.shape[0]
    if n_states & (n_states - 1):
        raise ValueError("FWHT requires a power-of-two length")
    h = 1
    while h < n_states:
        view = vector.reshape(-1, 2, h)
        lo = view[:, 0, :].copy()
        hi = view[:, 1, :]
        view[:, 0, :] = lo + hi
        view[:, 1, :] = lo - hi
        h *= 2
    return vector
