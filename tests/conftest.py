"""Shared brute-force references for the test suite.

These helpers deliberately avoid the library's vectorized code paths so they
can serve as independent oracles for the same quantities: the loop helpers
use plain Python loops, and ``kron_bloch_tensor`` builds every full-space
operator with np.kron and takes plain traces.
"""

import itertools
from functools import reduce

import numpy as np


def flat_index(digits, d):
    value = 0
    for digit in digits:
        value = value * d + digit
    return value


def loop_partial_trace(mat, keep, d, n):
    """Partial trace by explicit index loops; ``keep`` is 1-based."""
    kept = [p - 1 for p in sorted(keep)]
    traced = [q for q in range(n) if q not in kept]
    k = len(kept)
    out = np.zeros((d**k, d**k), dtype=complex)
    for rows in itertools.product(range(d), repeat=k):
        for cols in itertools.product(range(d), repeat=k):
            total = 0.0 + 0.0j
            for rest in itertools.product(range(d), repeat=len(traced)):
                rdig = [0] * n
                cdig = [0] * n
                for pos, p in enumerate(kept):
                    rdig[p] = rows[pos]
                    cdig[p] = cols[pos]
                for pos, q in enumerate(traced):
                    rdig[q] = rest[pos]
                    cdig[q] = rest[pos]
                total += mat[flat_index(rdig, d), flat_index(cdig, d)]
            out[flat_index(rows, d), flat_index(cols, d)] = total
    return out


def loop_bloch_coefficient(mat, subset, gen_indices, generators, d, n):
    """One correlation coefficient Tr(rho Op) by explicit entry loops.

    ``subset`` is 1-based and sorted; ``gen_indices`` picks one generator per
    subset party. The operator entry is assembled factor by factor, with the
    identity on parties outside the subset.
    """
    factors = {}
    for party, gen in zip(subset, gen_indices):
        factors[party - 1] = generators[gen]
    total = 0.0 + 0.0j
    for rdig in itertools.product(range(d), repeat=n):
        for cdig in itertools.product(range(d), repeat=n):
            op_entry = 1.0 + 0.0j
            for p in range(n):
                if p in factors:
                    op_entry *= factors[p][cdig[p], rdig[p]]
                elif cdig[p] != rdig[p]:
                    op_entry = 0.0
                    break
            if op_entry != 0.0:
                total += mat[flat_index(rdig, d), flat_index(cdig, d)] * op_entry
    return total


def kron_bloch_tensor(mat, subset, generators, d, n):
    """Correlation tensor on ``subset`` (1-based, sorted) from full-space operators.

    Each coefficient is ``Tr(rho Op)`` with ``Op`` the Kronecker product of
    the chosen generators on the subset parties and the identity elsewhere.
    """
    m = d * d - 1
    eye = np.eye(d, dtype=complex)
    out = np.empty((m,) * len(subset), dtype=complex)
    for idx in itertools.product(range(m), repeat=len(subset)):
        picks = dict(zip(subset, idx))
        ops = [generators[picks[p]] if p in picks else eye for p in range(1, n + 1)]
        out[idx] = np.trace(mat @ reduce(np.kron, ops))
    return out


def ghz_norm_sq(d, n):
    """Closed-form squared norm of the full n-party tensor of the GHZ state."""
    return (
        d * (d - 1) * 2**n + d * (d - 1) * (-2.0 / d) ** n + d * (2.0 * (1 - 1.0 / d)) ** n
    ) / d**2


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g + g.conj().T
