"""Correlation tensors over the generator basis: extraction, norms, reconstruction.

A tensor for party subset S holds the real coefficients
``Tr(rho * Op(i_1, ..., i_k))`` where ``Op`` carries generator ``i_m`` on the
m-th party of S (ascending) and the identity elsewhere. Coefficients are
stored flat in row-major order over the generator indices. Any state
decomposes as

    rho = I/d^n + sum_S  Op-sum(S) / (2^|S| d^(n-|S|)),

which makes the map an exact, invertible encoding. A decomposition is one
real array of shape ``(d**2,) * n`` over an extended local basis (the identity
at index 0, then the generators): entry ``[0, ..., 0]`` is the trace, every
tensor is a slice, and ``reconstruct`` runs the same pass in reverse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import generate_basis
from .states import MAX_PARTIES, DensityMatrix, _check_dims, _check_local_dim, _validated_subset

__all__ = [
    "BlochTensor",
    "BlochDecomposition",
    "all_subsets",
    "bloch_tensor",
    "full_decomposition",
    "reconstruct",
    "tensor_norm_sq",
    "purity_from_decomposition",
    "norms_by_order",
    "pure_pair_sum_residual",
    "pure_triple_sum_residual",
]


def _check_finite(coeffs):
    if not np.isfinite(coeffs).all():
        raise ValueError("coefficients contain non-finite values (NaN or infinity)")


@dataclass
class BlochTensor:
    """Flat real coefficient array for one party subset, given in ascending order.

    Construction copies the array it is given and checks the subset, the
    length and that every entry is finite.
    """

    subset: tuple
    local_dim: int
    coefficients: np.ndarray

    def __post_init__(self):
        self.local_dim = _check_local_dim(self.local_dim)
        raw = tuple(self.subset)
        self.subset = _validated_subset(raw, MAX_PARTIES)
        if self.subset != raw:
            raise ValueError(f"subset must be given in ascending order, got {raw}")
        m = self.local_dim**2 - 1
        coeffs = np.asarray(self.coefficients).astype(float, casting="safe").reshape(-1)
        if coeffs.size != m ** len(self.subset):
            raise ValueError(
                f"expected {m ** len(self.subset)} coefficients for subset "
                f"{self.subset} at d={self.local_dim}, got {coeffs.size}"
            )
        _check_finite(coeffs)
        coeffs.setflags(write=False)
        self.coefficients = coeffs

    @property
    def shape(self):
        m = self.local_dim**2 - 1
        return (m,) * len(self.subset)

    def as_array(self) -> np.ndarray:
        """Coefficients reshaped to one axis per subset party."""
        return self.coefficients.reshape(self.shape)


@dataclass
class BlochDecomposition:
    """All tensors of an n-party state as one read-only real ``(d**2,) * n`` array.

    The array holds ``Tr(rho B_i1 x ... x B_in)`` over the extended basis, so
    entry ``[0, ..., 0]`` is the trace and ``tensor(S)`` is a slice of it.
    Construction copies the array it is given and checks (d, n), the shape
    and that every entry is finite.
    """

    local_dim: int
    num_parties: int
    coefficients: np.ndarray

    def __post_init__(self):
        d, n = _check_dims(self.local_dim, self.num_parties)
        coeffs = np.asarray(self.coefficients).astype(float, casting="safe")
        if coeffs.shape != (d * d,) * n:
            raise ValueError(f"expected coefficients of shape {(d * d,) * n}, got {coeffs.shape}")
        _check_finite(coeffs)
        coeffs.setflags(write=False)
        self.local_dim, self.num_parties, self.coefficients = d, n, coeffs

    def tensor(self, subset) -> BlochTensor:
        """The tensor of one party subset, given in any order; ValueError if it is invalid."""
        parts = _validated_subset(subset, self.num_parties)
        coeffs = self.coefficients[_subset_slice(parts, self.num_parties)]
        return BlochTensor(parts, self.local_dim, coeffs)

    def subsets(self):
        return all_subsets(self.num_parties)


def all_subsets(num_parties):
    """Every non-empty subset of parties 1..n, ordered by size then lexicographically."""
    out = []
    for k in range(1, num_parties + 1):
        out.extend(itertools.combinations(range(1, num_parties + 1), k))
    return out


@lru_cache(maxsize=None)
def _pass_matrices(d: int):
    """Read-only ``(d**2, d**2)`` matrices of one party's step, forward and in reverse.

    Over the extended basis (``B_0`` the identity, then the generators),
    forward entry ``[(r, c), i]`` is ``B_i[c, r]``, and reverse entry
    ``[i, (r, c)]`` is ``B_i[r, c]`` weighted 1/d on the identity and 1/2
    on the generators.
    """
    basis = np.concatenate([np.eye(d, dtype=complex)[None], generate_basis(d).stacked()])
    weights = np.full(d * d, 0.5)
    weights[0] = 1.0 / d
    forward = basis.transpose(2, 1, 0).reshape(d * d, d * d)
    reverse = (basis * weights[:, None, None]).reshape(d * d, d * d)
    for mat in (forward, reverse):
        mat.setflags(write=False)
    return forward, reverse


def _party_steps(work, step, n) -> np.ndarray:
    """Run ``n`` party steps on a contiguous work array; return the flat result.

    ``step`` is ``(d**2, m)``: each step is one gemm that consumes the
    leading ``d**2`` entries of a party and appends their ``step`` image, m
    columns, as the last axis. With ``m < d**2`` (columns dropped) each step
    writes ``m / d**2`` of its input, so the result fills only the front of
    the array it lands in. Two arrays swap roles every step: ``work`` and
    one of the first step's output size.
    """
    k, m = step.shape
    work, other = work.reshape(-1), np.empty(work.size // k * m, work.dtype)
    for _ in range(n):
        out = other[: work.size // k * m]
        np.matmul(work.reshape(k, -1).T, step, out=out.reshape(-1, m))
        work, other = out, work
    return work


def _coefficients(mats, d, n, generators=False) -> np.ndarray:
    """All ``Tr(rho B_i1 x ... x B_in)`` over the extended basis for a stack of matrices.

    ``mats`` is any stack of ``d^n x d^n`` matrices, such as ``(B, d^n, d^n)``
    or ``(count, rows, d^n, d^n)``; it is read, never written. Returns a
    compact real array of shape ``(B,) + (d**2,) * n`` with ``B`` the number
    of matrices. The stack is copied once into the layout ``(r1, c1, ...,
    rn, cn, B)`` (row and column digit of each party, stack last); one gemm
    per party then contracts the leading digit pair with the local basis.
    Index 0 on a party stands for the identity there, so ``C[b, 0, ..., 0]``
    is the trace of matrix b and every ``T^(S)`` is a slice. With
    ``generators`` every step drops the identity column, and the result is
    ``T^(1..n)`` alone, shape ``(B,) + (d**2 - 1,) * n``: that slice of the
    full result to rounding (the gemms run on other shapes, which some
    OpenBLAS kernels sum in another way), at ``(d**2 - 1) / d**2`` of each
    step's writes.

    The real parts are kept: they are exactly the coefficients of the
    Hermitian part ``(M + M^dagger)/2``, since ``Tr(K B)`` is imaginary for an
    anti-Hermitian ``K`` and a Hermitian ``B``. Hermiticity itself is judged
    once, where a matrix becomes a state (``states._check_densities``).
    """
    count = mats.size // d ** (2 * n)
    # axes of the input digits: the stack, then n row digits, then n column digits
    axes = [axis for p in range(1, n + 1) for axis in (p, p + n)] + [0]
    work = np.empty((d, d) * n + (count,), dtype=complex)
    work[...] = mats.reshape((count,) + (d,) * (2 * n)).transpose(axes)
    forward, _ = _pass_matrices(d)
    if generators:
        forward = forward[:, 1:]
    coeffs = _party_steps(work, forward, n).reshape((count,) + forward.shape[1:] * n)
    del work  # for odd n the steps end in the other array: free this one now
    # a compact copy: a ``.real`` view would keep the whole complex array alive
    return coeffs.real.copy()


def _subset_slice(parts, num_parties):
    """Index picking generators on ``parts`` and the identity elsewhere."""
    return tuple(
        slice(1, None) if p in parts else 0 for p in range(1, num_parties + 1)
    )


def _squared_norms(stack) -> np.ndarray:
    """Sum of squares of each array in a stack: shape (B,).

    The one reduction behind every squared tensor norm, single or batched,
    so that a sweep's value and the single-state value agree bit for bit.
    """
    return np.square(stack).reshape(len(stack), -1).sum(axis=1)


def _subset_norms(coeffs, n) -> dict:
    """Subset -> squared norm of ``T^(subset)`` for each state of a coefficient stack, shape (B,)."""
    return {s: _squared_norms(coeffs[(slice(None), *_subset_slice(s, n))]) for s in all_subsets(n)}


def bloch_tensor(rho: DensityMatrix, subset) -> BlochTensor:
    """Correlation tensor of ``rho`` on the given parties; ValueError if the subset is invalid."""
    return full_decomposition(rho).tensor(subset)


def full_decomposition(rho: DensityMatrix) -> BlochDecomposition:
    """The coefficient array of ``rho``, holding all 2^n - 1 tensors, from one pass."""
    d, n = rho.local_dim, rho.num_parties
    return BlochDecomposition(d, n, _coefficients(rho.matrix[None], d, n)[0])


def tensor_norm_sq(tensor: BlochTensor) -> float:
    """Squared Frobenius norm: the sum of squared coefficients."""
    return float(_squared_norms(tensor.coefficients[None])[0])


def reconstruct(decomp: BlochDecomposition) -> DensityMatrix:
    """Rebuild the density matrix encoded by a decomposition's coefficient array.

    Runs the extraction pass in reverse: each party's basis is weighted 1/d
    on the identity and 1/2 on the generators, which yields the
    ``1/(2^|S| d^(n-|S|))`` weights. Inverts ``full_decomposition`` exactly
    up to rounding. Arrays that do not come from a valid state fail the
    density-matrix validation.
    """
    d, n = decomp.local_dim, decomp.num_parties
    return DensityMatrix(_rebuild(decomp.coefficients[None], d, n)[0], d, n)


def _rebuild(coeffs, d, n) -> np.ndarray:
    """The (B, d^n, d^n) matrices of a coefficient stack: ``_coefficients`` run in reverse.

    ``coeffs`` is any stack of ``(d**2,) * n`` arrays; it is read, never
    written. It is copied once into the complex layout ``(i1, ..., in, B)``,
    and the same gemm per party as the forward pass, with the weighted
    basis, turns each index into a row and column digit pair. Every state
    has unit trace, so the trace entries ``coeffs[b, 0, ..., 0]`` are taken
    as 1 whatever ``coeffs`` holds there.
    """
    count = coeffs.size // d ** (2 * n)
    work = np.empty((d * d,) * n + (count,), dtype=complex)
    work[...] = np.moveaxis(coeffs.reshape((count,) + (d * d,) * n), 0, -1)
    work[(0,) * n] = 1.0
    _, reverse = _pass_matrices(d)
    mat = _party_steps(work, reverse, n)
    del work  # for odd n the steps end in the other array: free this one before the copy out
    # the steps leave (B, r1, c1, ..., rn, cn)
    order = [0] + list(range(1, 2 * n, 2)) + list(range(2, 2 * n + 1, 2))
    return mat.reshape((count,) + (d,) * (2 * n)).transpose(order).reshape(-1, d**n, d**n)


def purity_from_decomposition(decomp: BlochDecomposition) -> float:
    """Trace of the squared state evaluated from tensor norms alone.

    Orthogonality of the expansion basis gives
    ``Tr(rho^2) = 1/d^n + sum_S ||T_S||^2 / (2^|S| d^(n-|S|))``.
    """
    norms = _subset_norms(decomp.coefficients[None], decomp.num_parties)
    return float(_purity_from_norms(decomp.local_dim, decomp.num_parties, norms)[0])


def _purity_from_norms(d, n, norms):
    """``purity_from_decomposition`` from subset -> squared norm (floats or arrays)."""
    total = 1.0 / d**n
    for subset, norm_sq in norms.items():
        k = len(subset)
        total += norm_sq / (2**k * d ** (n - k))
    return total


def norms_by_order(decomp: BlochDecomposition) -> dict:
    """Sum of squared tensor norms grouped by subset size, as the sweep sums them."""
    n = decomp.num_parties
    sums = _sums_by_order(_subset_norms(decomp.coefficients[None], n), n)
    return {k: float(total[0]) for k, total in sums.items()}


def _sums_by_order(norms, n) -> dict:
    """``norms_by_order`` from subset -> squared norm (floats or arrays)."""
    out = {k: 0.0 for k in range(1, n + 1)}
    for subset, norm_sq in norms.items():
        out[len(subset)] += norm_sq
    return out


def pure_pair_sum_residual(decomp: BlochDecomposition) -> float:
    """Residual of the three-party pure-state sum rule.

    For every pure three-party state, B/4 = (1/2 - 1/d) A + 3/d - 3/d^2
    where A and B sum the squared norms of the one- and two-party tensors.
    Returns the signed deviation of the left side from the right.
    """
    if decomp.num_parties != 3:
        raise ValueError("the pair sum rule applies to three-party states")
    return _pair_rule_residual(decomp.local_dim, norms_by_order(decomp))


def _pair_rule_residual(d, sums):
    """``pure_pair_sum_residual`` from the sums of ``norms_by_order`` (floats or arrays)."""
    return sums[2] / 4.0 - ((0.5 - 1.0 / d) * sums[1] + 3.0 / d - 3.0 / d**2)


def pure_triple_sum_residual(decomp: BlochDecomposition) -> float:
    """Residual of the four-party pure-state sum rule.

    For every pure four-party state,
    B/(4 d^2) = (2 d^2 - 2)/d^4 + (d^2 - 3)/(4 d^3) A - C/(16 d)
    with A, B, C the summed squared norms of the one-, two- and three-party
    tensors. Returns the signed deviation of the left side from the right.
    """
    if decomp.num_parties != 4:
        raise ValueError("the triple sum rule applies to four-party states")
    return _triple_rule_residual(decomp.local_dim, norms_by_order(decomp))


def _triple_rule_residual(d, sums):
    """``pure_triple_sum_residual`` from the sums of ``norms_by_order`` (floats or arrays)."""
    rhs = (
        (2.0 * d * d - 2.0) / d**4
        + (d * d - 3.0) / (4.0 * d**3) * sums[1]
        - sums[3] / (16.0 * d)
    )
    return sums[2] / (4.0 * d * d) - rhs
