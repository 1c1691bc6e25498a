"""Shared brute-force references for the test suite.

These helpers deliberately avoid the library's vectorized code paths so they
can serve as independent oracles for the same quantities: the loop helpers
use plain Python loops, ``kron_bloch_tensor`` builds every full-space
operator with np.kron and takes plain traces, the ``single_*`` draws read
one seed's stream at a time through ``np.random.Generator`` calls, not by
decoding its raw words (``single_separable_members`` is the reference of
the library's batched member decode), and ``oracle_sample_value``
evaluates a sweep check on one sample with the public single-state
functions. ``separable_densities`` is the dense route
of the separable checks: it forms every mixture as a ``d^4 x d^4`` matrix
from the library's member draw. ``gram_matrix`` and ``validate_basis``
check a generator basis from its definition. ``MALFORMED_COMPLEX_DOCS``
holds state documents whose complex entries the parser must refuse, and
``MALFORMED_SHAPE_DOCS`` documents with a field of the wrong JSON type.
``tensordot_coefficients`` and ``tensordot_rebuild`` are the Bloch pass as
one ``np.tensordot`` per party, the reference the library's gemm pass must
match bit for bit.
"""

import itertools
from functools import reduce

import numpy as np

from blochbounds import (
    MIXED_GINIBRE,
    PURE_HAAR,
    SEPARABLE_SPLITS,
    Ensemble,
    from_ensemble,
    from_pure,
    full_decomposition,
    generate_basis,
    haar_random_pure,
    norms_by_order,
    partial_trace,
    product_state,
    pure_pair_sum_residual,
    pure_triple_sum_residual,
    purity,
    purity_from_decomposition,
    random_mixed,
    reconstruct,
    sample_seed,
    separable_tensor,
    tensor_norm_sq,
)
from blochbounds.sampling import _separable_members, _split_layout


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


def extended_basis(d):
    """The (d**2, d, d) local basis of the Bloch pass: the identity, then the generators."""
    return np.concatenate([np.eye(d, dtype=complex)[None], generate_basis(d).stacked()])


def tensordot_coefficients(mats, d, n):
    """``(B,) + (d**2,) * n`` coefficients of a stack: one tensordot per party, no residue guard."""
    basis = extended_basis(d)
    coeffs = mats.reshape((-1,) + (d,) * (2 * n))
    for rows in range(n, 0, -1):
        # axis 0 is the stack; the next party's row digit is axis 1, its column digit axis 1 + rows
        coeffs = np.tensordot(coeffs, basis, axes=([1, 1 + rows], [2, 1]))
    return coeffs.real


def tensordot_rebuild(coeffs, d, n):
    """The (B, d^n, d^n) matrices of a coefficient stack, trace entries taken as 1."""
    weights = np.full(d * d, 0.5)
    weights[0] = 1.0 / d
    basis = extended_basis(d) * weights[:, None, None]
    mat = coeffs.copy()
    mat[(slice(None),) + (0,) * n] = 1.0
    for _ in range(n):
        # consume the first party index after the stack axis, append its (row, col) digits
        mat = np.tensordot(mat, basis, axes=([1], [0]))
    order = [0] + list(range(1, 2 * n, 2)) + list(range(2, 2 * n + 1, 2))
    return mat.transpose(order).reshape(-1, d**n, d**n)


def ghz_norm_sq(d, n):
    """Closed-form squared norm of the full n-party tensor of the GHZ state."""
    return (
        d * (d - 1) * 2**n + d * (d - 1) * (-2.0 / d) ** n + d * (2.0 * (1 - 1.0 / d)) ** n
    ) / d**2


def gram_matrix(basis):
    """Pairwise Hilbert-Schmidt inner products Tr(G_i G_j) of a generator basis."""
    stack = basis.stacked()
    return np.einsum("iab,jba->ij", stack, stack).real


def validate_basis(basis, atol=1e-12):
    """Check a basis's count, Hermiticity, tracelessness and Gram orthogonality."""
    d = basis.local_dim
    m = d * d - 1
    stack = basis.stacked()
    if stack.shape != (m, d, d):
        raise ValueError(f"expected {m} generators of shape ({d}, {d})")
    herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).max()
    if herm > atol:
        raise ValueError(f"generators deviate from Hermitian by {herm:.3e}")
    traces = np.abs(stack.trace(axis1=1, axis2=2)).max()
    if traces > atol:
        raise ValueError(f"generators deviate from traceless by {traces:.3e}")
    gram_dev = np.abs(gram_matrix(basis) - 2.0 * np.eye(m)).max()
    if gram_dev > atol:
        raise ValueError(f"Gram matrix deviates from 2*I by {gram_dev:.3e}")


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g + g.conj().T


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=int(seed) & ((1 << 64) - 1)))


def _single_complex_normal(rng, count):
    """``count`` complex normals from one stream: Box-Muller on the next 2 * count uniforms."""
    u1 = 1.0 - rng.random(count)
    u2 = rng.random(count)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    flat = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return flat[:count] + 1j * flat[count:]


def single_haar_amplitudes(d, n, seed):
    amp = _single_complex_normal(_philox(seed), d**n)
    return amp / np.linalg.norm(amp)


def single_ginibre_matrix(d, n, rank, seed):
    dim = d**n
    g = _single_complex_normal(_philox(seed), dim * rank).reshape(dim, rank)
    mat = g @ g.conj().T
    mat /= mat.trace().real
    return mat


def single_separable_matrix(d, label, seed, members=8):
    """One separable mixture assembled member by member via ``product_state``/``from_ensemble``."""
    splits = SEPARABLE_SPLITS[label]
    rng = _philox(seed)
    cuts = np.sort(rng.random(members - 1))
    weights = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
    pures = []
    for _ in range(members):
        split = splits[int(rng.integers(len(splits)))]
        factors = []
        for parties in split:
            vec = _single_complex_normal(rng, d ** len(parties))
            factors.append((parties, vec / np.linalg.norm(vec)))
        pures.append(product_state(factors, d))
    return from_ensemble(Ensemble(list(zip(weights, pures)))).matrix


def single_separable_members(d, label, seeds, members=8):
    """The members of separable mixtures, read call by call through a ``Generator`` per seed.

    The reference of the library's raw-word decode (``_separable_members``):
    per seed the stream gives the simplex cuts, then per member
    ``rng.integers`` for its split and ``rng.random`` for the uniforms of
    its blocks in block order (radii, then angles, per block). Returns the
    ``(B, members)`` weights and picks and one ``(B, members, d**k)`` array
    of normalized vectors per block, in block order.
    """
    splits = SEPARABLE_SPLITS[label]
    lengths = [d ** len(block) for block in splits[0]]
    count = len(seeds)
    cuts = np.empty((count, members - 1))
    picks = np.empty((count, members), dtype=np.intp)
    uniforms = np.empty((count, members, 2 * sum(lengths)))
    for row, seed in enumerate(seeds):
        rng = _philox(seed)
        cuts[row] = rng.random(members - 1)
        for m in range(members):
            picks[row, m] = rng.integers(len(splits))
            uniforms[row, m] = rng.random(uniforms.shape[-1])
    weights = np.diff(np.sort(cuts, axis=-1), prepend=0.0, append=1.0, axis=-1)
    blocks = []
    start = 0
    for length in lengths:
        radius = np.sqrt(-2.0 * np.log(1.0 - uniforms[..., start : start + length]))
        angle = 2.0 * np.pi * uniforms[..., start + length : start + 2 * length]
        block = radius * np.cos(angle) + 1j * (radius * np.sin(angle))
        blocks.append(block / np.linalg.norm(block, axis=-1, keepdims=True))
        start += 2 * length
    return weights, picks, blocks


def separable_densities(d, label, seeds, members=8):
    """The dense separable mixtures of the library's member draw, one per seed.

    Every member's product vector is formed in party order and the
    weighted projectors are summed into a ``(B, d^4, d^4)`` stack.
    """
    weights, picks, blocks = _separable_members(d, label, seeds, members)
    vectors = blocks[0]
    for block in blocks[1:]:
        vectors = (vectors[..., :, None] * block[..., None, :]).reshape(len(seeds), members, -1)
    vectors = np.take_along_axis(vectors, _split_layout(d, label)[2][picks], axis=-1)
    return (vectors.swapaxes(-1, -2) * weights[:, None, :]) @ vectors.conj()


def oracle_check_value(rho, name):
    """One sweep check's observed value on one state, from the public single-state functions."""
    d, n = rho.local_dim, rho.num_parties
    decomp = full_decomposition(rho)
    norms = {s: tensor_norm_sq(decomp.tensor(s)) for s in decomp.subsets()}
    orders = {
        "ball-radius": 1,
        "bipartite-norm-bound": 2,
        "tripartite-norm-bound": 3,
        "fourpartite-norm-bound": 4,
    }
    if name in orders:
        return max(v for s, v in norms.items() if len(s) == orders[name])
    if name == "triple-norm-tradeoff":
        return norms_by_order(decomp)[3]
    if name == "purity-identity":
        return abs(purity_from_decomposition(decomp) - purity(rho))
    if name == "marginal-purity":
        parties = range(1, n + 1)
        gaps = []
        for i in parties:
            rest = [p for p in parties if p != i]
            gaps.append(abs(purity(partial_trace(rho, (i,))) - purity(partial_trace(rho, rest))))
        return max(gaps)
    if name == "pure-pair-sum-rule":
        return abs(pure_pair_sum_residual(decomp))
    if name == "pure-triple-sum-rule":
        return abs(pure_triple_sum_residual(decomp))
    if name == "reconstruction-round-trip":
        return float(np.linalg.norm(reconstruct(decomp).matrix - rho.matrix))
    raise KeyError(name)


def oracle_sample_value(spec, name, index):
    """A sweep check's value on sample ``index`` of ``spec``, drawn one state at a time."""
    d, n = spec.local_dim, spec.num_parties
    seed = sample_seed(spec.base_seed, index)
    if name.startswith("separable-"):
        return tensor_norm_sq(separable_tensor(d, name[len("separable-"):], seed))
    if spec.kind == PURE_HAAR:
        rho = from_pure(haar_random_pure(d, n, seed))
    else:
        assert spec.kind == MIXED_GINIBRE
        rho = random_mixed(d, n, spec.rank or d**n, seed)
    return oracle_check_value(rho, name)


#: State documents whose complex entries are not [re, im] pairs of JSON numbers.
MALFORMED_COMPLEX_DOCS = {
    "bool": {"d": 2, "parties": 1, "kind": "pure", "amplitudes": [[True, False], [False, False]]},
    "string": {"d": 2, "parties": 1, "kind": "pure", "amplitudes": [["1", "0"], ["0", "0"]]},
    "ragged": {"d": 2, "parties": 1, "kind": "matrix", "matrix": [[[1, 0], [0, 0]], [[0, 0]]]},
    "huge": {"d": 2, "parties": 1, "kind": "pure", "amplitudes": [[10**400, 0], [0, 0]]},
}


#: State documents with a field of the wrong JSON type, each with the field its refusal names.
MALFORMED_SHAPE_DOCS = {
    "params-array": (
        {"kind": "builtin", "name": "ghz", "d": 2, "parties": 3, "params": [1]},
        "params",
    ),
    "members-object": (
        {"d": 2, "parties": 1, "kind": "ensemble", "members": {"amplitudes": 1}},
        "members",
    ),
    "members-of-numbers": (
        {"d": 2, "parties": 1, "kind": "ensemble", "members": [5]},
        "members",
    ),
}
