"""States on up to four equal-dimension parties: construction, validation, marginals.

Index convention: party 1 is the most significant tensor factor, so the
amplitude of ``|a_1 a_2 ... a_n>`` sits at flat index
``a_1 d^(n-1) + a_2 d^(n-2) + ... + a_n``. Party labels are 1-based
throughout. All state objects are immutable after validated construction.
"""

from __future__ import annotations

import math
from numbers import Real
from operator import index as _as_index

import numpy as np

__all__ = [
    "DEFAULT_ATOL",
    "MAX_PARTIES",
    "MAX_DENSE_BYTES",
    "PureState",
    "DensityMatrix",
    "Ensemble",
    "from_pure",
    "from_ensemble",
    "ghz",
    "isotropic_ghz4",
    "product_max_entangled",
    "product_state",
    "partial_trace",
    "purity",
    "as_pure",
]

DEFAULT_ATOL = 1e-9

MAX_PARTIES = 4

#: Cap, in bytes, on the largest dense complex array one (d, n) size needs:
#: the d^n x d^n density matrix, or for n = 1 the d^2 local operators of
#: d x d that the Bloch map contracts with. Larger sizes are refused before
#: anything is allocated. The largest four-party size it admits is d = 8
#: (a 256 MiB matrix); the Bloch pass over it holds its input and two work
#: arrays that large.
MAX_DENSE_BYTES = 1 << 28


def _dense_bytes(d, n):
    """Bytes of the largest dense complex array of a (d, n) state; see ``MAX_DENSE_BYTES``."""
    return 16 * d ** (2 * max(n, 2))


def _check_int(value, what):
    """``value`` as an int; bools and non-integral numbers are refused."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    try:
        return _as_index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _check_real(value, what):
    """``value`` as a float; bools, strings, non-finite numbers and integers too large
    for a float are refused."""
    if isinstance(value, Real) and not isinstance(value, (bool, np.bool_)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"{what} must be a finite real number, got {value!r}")


def _check_tol(value):
    """A comparison tolerance as a float: a finite real number, and positive."""
    tol = _check_real(value, "comparison tolerance")
    if tol <= 0:
        raise ValueError(f"comparison tolerance must be positive and finite, got {tol}")
    return tol


def _check_local_dim(local_dim):
    d = _check_int(local_dim, "local dimension")
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got {d}")
    return d


def _validated_subset(subset, num_parties):
    """A non-empty, duplicate-free set of integer party labels in 1..num_parties, ascending."""
    raw = tuple(subset)
    parts = tuple(sorted({_check_int(p, "party label") for p in raw}))
    if not parts:
        raise ValueError("subset must be non-empty")
    if len(parts) != len(raw):
        raise ValueError(f"subset has duplicate parties: {raw}")
    if parts[0] < 1 or parts[-1] > num_parties:
        raise ValueError(f"subset {parts} is not contained in 1..{num_parties}")
    return parts


def _check_dims(local_dim, num_parties):
    """The one validator for (d, n).

    Both must be integers with d >= 2 and 1 <= n <= MAX_PARTIES, and the
    dense arrays of the size must fit within ``MAX_DENSE_BYTES``.
    """
    d = _check_local_dim(local_dim)
    n = _check_int(num_parties, "party count")
    if not 1 <= n <= MAX_PARTIES:
        raise ValueError(f"party count must lie in 1..{MAX_PARTIES}, got {n}")
    size = _dense_bytes(d, n)
    if size > MAX_DENSE_BYTES:
        raise ValueError(
            f"d={d}, n={n} needs dense arrays of {size} bytes, "
            f"above the cap of {MAX_DENSE_BYTES} bytes"
        )
    return d, n


@np.errstate(over="ignore", invalid="ignore")
def _check_amplitudes(amps):
    """Refuse a (B, dim) stack of state vectors unless every row is finite and normalized.

    A row is accepted when the purity ``|v|^4`` of its projector ``|v><v|`` is
    1 within ``DEFAULT_ATOL``, the rule ``as_pure`` holds a matrix to. Since
    ``|n^4 - 1| >= |n^2 - 1| >= |n - 1|``, the projector's trace and the norm are
    then 1 within it too, as ``_check_densities`` requires. Whether the norm
    itself misses 1 only chooses the wording of the refusal. A finite row whose
    norm overflows is refused by the same comparison, without a numpy warning.
    """
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes contain non-finite values (NaN or infinity)")
    norms, atol = np.linalg.norm(amps, axis=-1), DEFAULT_ATOL
    bad = np.abs(norms**4 - 1.0) > atol
    if bad.any():
        norm = float(norms[bad.argmax()])
        rule = "is not 1" if abs(norm - 1.0) > atol else "gives a projector of purity not 1"
        raise ValueError(f"state vector norm {norm!r} {rule} within {atol}")


def _check_weights(weights):
    """Refuse a (B, M) stack of mixture weights unless every row lies on the simplex.

    Each weight must be finite and lie in [0, 1], and each row must sum to
    1, within ``DEFAULT_ATOL``.
    """
    if not np.isfinite(weights).all():
        raise ValueError("weights contain non-finite values (NaN or infinity)")
    bad = (weights < -DEFAULT_ATOL) | (weights > 1.0 + DEFAULT_ATOL)
    if bad.any():
        raise ValueError(f"weight {float(weights[bad][0])} lies outside [0, 1]")
    totals = weights.sum(axis=-1)
    bad = np.abs(totals - 1.0) > DEFAULT_ATOL
    if bad.any():
        raise ValueError(
            f"weights sum to {float(totals[bad.argmax()])!r}, not 1 within {DEFAULT_ATOL}"
        )


def _projectors(vectors):
    """``|v><v|`` of every vector of a stack, over its last axis: the one projector builder,
    used by ``from_pure``, ``from_ensemble``, ``isotropic_ghz4`` and the sweeps."""
    return vectors[..., :, None] * vectors.conj()[..., None, :]


def _purities(mats):
    """Tr(rho^2) of every matrix in a (B, dim, dim) stack."""
    return np.einsum("bij,bji->b", mats, mats).real


@np.errstate(over="ignore", invalid="ignore")
def _check_densities(mats):
    """Validate a (B, dim, dim) stack of density matrices.

    Every matrix must be finite, Hermitian, of unit trace, positive
    semidefinite and of purity in [1/dim, 1], each within ``atol =
    DEFAULT_ATOL``. Criteria are checked in that order over the whole stack,
    and the first matrix failing one is refused with its message.

    Positivity is gated by a Cholesky factorization of ``H + atol*I``, with
    H the Hermitian part: it succeeds when every eigenvalue of H exceeds
    ``-atol``. Only when it fails are the eigenvalues computed, and a matrix
    is refused when its smallest eigenvalue lies below ``-atol``. The stack's
    adjoint is formed once, C-contiguous, and H + atol*I is built in its buffer.
    Finite entries whose sums or products overflow are refused by the comparisons
    that follow, without a numpy warning.
    """
    dim = mats.shape[-1]
    if not np.isfinite(mats).all():
        raise ValueError("matrix contains non-finite entries (NaN or infinity)")
    adjoint = np.conjugate(mats.swapaxes(-1, -2), out=np.empty(mats.shape, complex))
    herm_dev = np.abs(mats - adjoint).max(axis=(-2, -1))
    bad = herm_dev > DEFAULT_ATOL
    if bad.any():
        raise ValueError(f"matrix deviates from Hermitian by {herm_dev[bad.argmax()]:.3e}")
    traces = np.trace(mats, axis1=-2, axis2=-1)
    bad = ~(np.abs(traces - 1.0) <= DEFAULT_ATOL)  # a NaN trace (inf - inf) is refused too
    if bad.any():
        raise ValueError(f"trace {complex(traces[bad.argmax()])!r} is not 1 within {DEFAULT_ATOL}")
    # the gate holds the matrices, the adjoint's buffer and the factor
    shifted = np.add(mats, adjoint, out=adjoint)
    shifted *= 0.5
    # the diagonal as a strided view: the buffer is C-contiguous, so Cholesky reads the shift
    shifted.reshape(len(shifted), dim * dim)[:, :: dim + 1] += DEFAULT_ATOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:  # rare: H again, unshifted
        herm = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
        smallest = np.linalg.eigvalsh(herm)[:, 0]
        bad = smallest < -DEFAULT_ATOL
        if bad.any():
            raise ValueError(
                "matrix is not positive semidefinite: smallest eigenvalue "
                f"{smallest[bad.argmax()]:.3e}"
            ) from None
    purities = _purities(mats)
    bad = ~((1.0 / dim - DEFAULT_ATOL <= purities) & (purities <= 1.0 + DEFAULT_ATOL))
    if bad.any():
        raise ValueError(f"purity {float(purities[bad.argmax()])!r} lies outside [1/{dim}, 1]")


class PureState:
    """A normalized state vector on ``num_parties`` qudits of dimension ``local_dim``."""

    def __init__(self, amplitudes, local_dim, num_parties):
        d, n = _check_dims(local_dim, num_parties)
        amp = np.array(amplitudes, dtype=complex).reshape(-1)
        if amp.size != d**n:
            raise ValueError(
                f"expected {d**n} amplitudes for d={d}, n={n}, got {amp.size}"
            )
        _check_amplitudes(amp[None])
        amp.setflags(write=False)
        self.local_dim = d
        self.num_parties = n
        self.amplitudes = amp

    @property
    def dim(self):
        return self.local_dim**self.num_parties


class DensityMatrix:
    """A validated density matrix on ``num_parties`` qudits of dimension ``local_dim``.

    Construction checks Hermiticity, unit trace, positive semidefiniteness
    (smallest eigenvalue of the Hermitian part at least ``-DEFAULT_ATOL``)
    and that the purity lies in [1/d^n, 1], each within ``DEFAULT_ATOL``;
    the checks are those ``_check_densities`` applies to a whole stack. The
    stored matrix is read-only.
    """

    def __init__(self, matrix, local_dim, num_parties):
        d, n = _check_dims(local_dim, num_parties)
        mat = np.array(matrix, dtype=complex)
        dim = d**n
        if mat.shape != (dim, dim):
            raise ValueError(
                f"expected a {dim} x {dim} matrix for d={d}, n={n}, got shape {mat.shape}"
            )
        _check_densities(mat[None])
        mat.setflags(write=False)
        self.local_dim = d
        self.num_parties = n
        self.matrix = mat

    @property
    def dim(self):
        return self.local_dim**self.num_parties


class Ensemble:
    """A finite mixture of pure states with convex weights summing to one."""

    def __init__(self, members):
        members = tuple((_check_real(w, "ensemble weight"), psi) for w, psi in members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        for _, psi in members:
            if not isinstance(psi, PureState):
                raise ValueError("ensemble members must be PureState instances")
        _check_weights(np.array([[w for w, _ in members]]))
        d = members[0][1].local_dim
        n = members[0][1].num_parties
        for _, psi in members[1:]:
            if (psi.local_dim, psi.num_parties) != (d, n):
                raise ValueError(
                    "ensemble members must share local dimension and party count"
                )
        self.members = members
        self.local_dim = d
        self.num_parties = n


def from_pure(psi: PureState) -> DensityMatrix:
    """Outer product of a pure state with itself."""
    mat = _projectors(psi.amplitudes)
    return DensityMatrix(mat, psi.local_dim, psi.num_parties)


def from_ensemble(ensemble: Ensemble) -> DensityMatrix:
    """Convex combination of the ensemble's rank-one projectors."""
    dim = ensemble.local_dim**ensemble.num_parties
    mat = np.zeros((dim, dim), dtype=complex)
    for weight, psi in ensemble.members:
        mat += weight * _projectors(psi.amplitudes)
    return DensityMatrix(mat, ensemble.local_dim, ensemble.num_parties)


def ghz(d, n) -> PureState:
    """The n-party qudit state with equal amplitude on every ``|i i ... i>``."""
    d, n = _check_dims(d, n)
    if n < 2:
        raise ValueError(f"party count must lie in 2..{MAX_PARTIES}, got {n}")
    amp = np.zeros(d**n, dtype=complex)
    stride = (d**n - 1) // (d - 1)
    amp[np.arange(d) * stride] = 1.0 / np.sqrt(d)
    return PureState(amp, d, n)


def isotropic_ghz4(x, d) -> DensityMatrix:
    """Four-party GHZ projector mixed with white noise: ``x P + (1-x) I/d^4``."""
    x = _check_real(x, "mixing weight")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {x}")
    g = ghz(d, 4).amplitudes
    dim = g.size
    mat = x * _projectors(g) + ((1.0 - x) / dim) * np.eye(dim)
    return DensityMatrix(mat, d, 4)


def product_max_entangled(d) -> PureState:
    """Two maximally entangled pairs side by side, on parties (1,2) and (3,4)."""
    d, _ = _check_dims(d, 4)
    pair = np.zeros(d * d, dtype=complex)
    pair[np.arange(d) * (d + 1)] = 1.0 / np.sqrt(d)
    return PureState(np.kron(pair, pair), d, 4)


def product_state(factors, local_dim) -> PureState:
    """Assemble a pure product state from factors on disjoint party slots.

    Parameters
    ----------
    factors : sequence of (parties, amplitudes)
        Each entry places a normalized vector on the given 1-based parties;
        the party tuples must partition {1, ..., n}. Factor order is free.
    local_dim : int
        Common local dimension of every party.
    """
    d = _check_local_dim(local_dim)
    party_order = []
    tensors = []
    for parties, amp in factors:
        parties = tuple(_check_int(p, "party label") for p in parties)
        vec = np.asarray(amp, dtype=complex).reshape(-1)
        if vec.size != d ** len(parties):
            raise ValueError(
                f"factor on parties {parties} has {vec.size} amplitudes, expected {d ** len(parties)}"
            )
        party_order.extend(parties)
        tensors.append(vec.reshape((d,) * len(parties)))
    n = len(party_order)
    if sorted(party_order) != list(range(1, n + 1)):
        raise ValueError(f"factor parties must partition 1..{n}, got {party_order}")
    _check_dims(d, n)
    full = tensors[0]
    for t in tensors[1:]:
        full = np.tensordot(full, t, axes=0)
    full = np.transpose(full, np.argsort(party_order))
    return PureState(full.reshape(-1), d, n)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the given parties (1-based), tracing out the rest.

    The result's parties are relabeled 1..k following the ascending order
    of ``keep``. The trace is preserved exactly up to rounding.
    """
    d, n = rho.local_dim, rho.num_parties
    kept = _validated_subset(keep, n)
    return DensityMatrix(_partial_trace(rho.matrix[None], d, n, kept)[0], d, len(kept))


def _partial_trace(mats, d, n, kept):
    """Reduced states of a (B, d^n, d^n) stack on the ascending 1-based parties ``kept``."""
    cur = mats.reshape((-1,) + (d,) * (2 * n))
    remaining = n
    for p in reversed(range(n)):
        if p + 1 in kept:
            continue
        # axis 0 is the stack; party p's row digit is axis 1 + p
        cur = np.trace(cur, axis1=1 + p, axis2=1 + p + remaining)
        remaining -= 1
    k = len(kept)
    return cur.reshape(-1, d**k, d**k)


def purity(rho: DensityMatrix) -> float:
    """Trace of the squared density matrix."""
    return float(_purities(rho.matrix[None])[0])


def _check_pure(rho: DensityMatrix):
    """Refuse ``rho`` unless its purity is 1 within ``DEFAULT_ATOL``."""
    pur = purity(rho)
    if abs(pur - 1.0) > DEFAULT_ATOL:
        raise ValueError(f"state is mixed (purity {pur!r}); expected a pure state")


def as_pure(rho: DensityMatrix) -> PureState:
    """Extract the state vector of a rank-one density matrix.

    Raises ValueError when the purity deviates from 1 by more than ``DEFAULT_ATOL``.
    """
    _check_pure(rho)
    _, vecs = np.linalg.eigh(0.5 * (rho.matrix + rho.matrix.conj().T))
    vec = vecs[:, -1]
    return PureState(vec / np.linalg.norm(vec), rho.local_dim, rho.num_parties)
