"""Orthogonal generator bases underlying every Bloch expansion.

For local dimension ``d`` the basis consists of the ``d**2 - 1`` traceless
Hermitian matrices built from matrix units ``E_jk``: symmetric pair matrices
``E_jk + E_kj`` for j < k, antisymmetric pair matrices ``-i(E_jk - E_kj)``,
and diagonal matrices ``sqrt(2/(l(l+1))) * (E_00 + ... + E_{l-1,l-1} - l E_ll)``
for 1 <= l <= d-1. They satisfy G = G^dagger, Tr(G) = 0 and
Tr(G_i G_j) = 2 delta_ij, and together with the identity they span the
Hermitian d x d matrices. For d = 2 this yields the Pauli triple (x, y, z),
for d = 3 the eight standard Gell-Mann matrices.
"""

from __future__ import annotations

import numpy as np

from .states import _check_dims

__all__ = ["GeneratorBasis", "generate_basis"]


class GeneratorBasis:
    """Ordered, immutable generator set for one local dimension.

    Attributes
    ----------
    local_dim : int
        Local dimension d >= 2.
    generators : tuple of ndarray
        The d**2 - 1 generators as read-only (d, d) complex arrays, in the
        fixed order: symmetric pairs in lexicographic (j, k) order, then
        antisymmetric pairs, then the diagonal matrices by level.
    labels : tuple of str
        One tag per generator, e.g. ``sym(0,1)``, ``asym(0,2)``, ``diag(1)``.
    """

    def __init__(self, local_dim, stack, labels):
        self.local_dim = int(local_dim)
        stack = np.asarray(stack, dtype=complex)
        stack.setflags(write=False)
        self._stack = stack
        self.generators = tuple(stack[i] for i in range(stack.shape[0]))
        self.labels = tuple(labels)

    def __len__(self):
        return self._stack.shape[0]

    def __iter__(self):
        return iter(self.generators)

    def __getitem__(self, i):
        return self.generators[i]

    def stacked(self) -> np.ndarray:
        """All generators as one read-only (d**2 - 1, d, d) array."""
        return self._stack


def generate_basis(d) -> GeneratorBasis:
    """Build the generator basis for local dimension ``d``.

    Entries are exact (0, +-1, +-1j, or sqrt(2/(l(l+1)))); no floating-point
    tolerance is involved in the construction itself.

    Raises
    ------
    ValueError
        If ``d`` is not an integer of at least 2, or if the basis (the local
        operators of a one-party state) exceeds ``states.MAX_DENSE_BYTES``.
    """
    d, _ = _check_dims(d, 1)
    mats = []
    labels = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
            labels.append(f"sym({j},{k})")
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
            labels.append(f"asym({j},{k})")
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * m)
        labels.append(f"diag({l})")
    return GeneratorBasis(d, np.stack(mats), labels)
