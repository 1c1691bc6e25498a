"""Deterministic random state generation.

Every draw keys a Philox counter-based bit generator with a 64-bit seed,
per-sample seeds derive from a base seed through a splitmix64-style hash,
and normal variates come from an explicit Box-Muller transform on the
generator's uniforms. Identical seeds therefore reproduce identical states
bit for bit, independent of how calls are scheduled.

The draws are batched: each private ``_ginibre_densities`` /
``_haar_amplitudes`` / ``_separable_members`` function takes a sequence of
seeds, reads every seed's stream in the same order a single draw does, and
transforms the whole stack at once into raw arrays. They validate nothing:
a public single-draw function is the same code at one seed, and its
state's constructor validates the result, while a sweep validates each
chunk's draw where it draws it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .states import MAX_DENSE_BYTES, DensityMatrix, PureState, _check_dims, _check_int

__all__ = [
    "splitmix64",
    "sample_seed",
    "haar_random_pure",
    "random_mixed",
    "haar_random_unitary",
    "random_separable",
    "SEPARABLE_SPLITS",
    "SEPARABLE_MEMBERS",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Pure members of each constructed separable mixture, unless a caller asks otherwise.
SEPARABLE_MEMBERS = 8

#: Partitions of the four parties allowed within each separability class.
#: Within a class every split lists its blocks in the same size order.
SEPARABLE_SPLITS = {
    "1-3": (
        ((1,), (2, 3, 4)),
        ((2,), (1, 3, 4)),
        ((3,), (1, 2, 4)),
        ((4,), (1, 2, 3)),
    ),
    "2-2": (
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ),
    "1-1-2": (
        ((1,), (2,), (3, 4)),
        ((1,), (3,), (2, 4)),
        ((1,), (4,), (2, 3)),
        ((2,), (3,), (1, 4)),
        ((2,), (4,), (1, 3)),
        ((3,), (4,), (1, 2)),
    ),
    "1-1-1-1": (((1,), (2,), (3,), (4,)),),
}


def splitmix64(value: int) -> int:
    """One splitmix64 finalization round of a 64-bit value."""
    z = (_check_seed(value, "value") + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def sample_seed(base_seed: int, index: int) -> int:
    """Per-sample seed: hash of the base seed advanced by the sample index."""
    base_seed = _check_seed(base_seed)
    index = _check_seed(index, "sample index")
    return splitmix64((base_seed + (index + 1) * _GOLDEN) & _MASK64)


def _check_seed(seed, what="seed"):
    """``seed`` as an int in 0..2**64 - 1, a Philox key: the one validator of every seed."""
    seed = _check_int(seed, what)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"{what} must be an integer in 0..2**64 - 1, got {seed}")
    return seed


def _generator(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _box_muller(u1, u2):
    """Complex normals ``r cos(a) + i r sin(a)`` from uniforms, elementwise.

    ``u1`` must lie in (0, 1] so that the log stays finite.
    """
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle) + 1j * (radius * np.sin(angle))


def _complex_normals(seeds, count) -> np.ndarray:
    """``(len(seeds), count)`` complex normals; row i holds the first draws of seed i's stream.

    Each row reads ``count`` uniforms for the radii, then ``count`` for the
    angles, and all rows go through one Box-Muller transform.
    """
    u1 = np.empty((len(seeds), count))
    u2 = np.empty((len(seeds), count))
    for row, seed in enumerate(seeds):
        rng = _generator(seed)
        u1[row] = 1.0 - rng.random(count)
        u2[row] = rng.random(count)
    return _box_muller(u1, u2)


def _haar_amplitudes(d, n, seeds) -> np.ndarray:
    """Haar state vectors, one row per seed."""
    amps = _complex_normals(seeds, d**n)
    for row in amps:
        # np.linalg.norm of each row alone keeps a row bit-identical to a one-seed draw
        row /= np.linalg.norm(row)
    return amps


def haar_random_pure(d, n, seed) -> PureState:
    """Haar-distributed pure state: normalized i.i.d. complex Gaussian amplitudes."""
    d, n = _check_dims(d, n)
    return PureState(_haar_amplitudes(d, n, [_check_seed(seed)])[0], d, n)


def _ginibre_densities(d, n, rank, seeds) -> np.ndarray:
    """``G G^dagger / Tr(G G^dagger)`` matrices, one per seed."""
    dim = d**n
    g = _complex_normals(seeds, dim * rank).reshape(-1, dim, rank)
    mats = g @ g.conj().swapaxes(-1, -2)
    mats /= np.trace(mats, axis1=-2, axis2=-1).real[:, None, None]
    return mats


def random_mixed(d, n, rank, seed) -> DensityMatrix:
    """Random density matrix G G^dagger / Tr(G G^dagger) with Gaussian G.

    ``rank`` columns of G cap the numerical rank of the result; rank 1 gives
    pure states, rank d^n the unconstrained ensemble.
    """
    d, n = _check_dims(d, n)
    dim = d**n
    rank = _check_int(rank, "rank")
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank}")
    return DensityMatrix(_ginibre_densities(d, n, rank, [_check_seed(seed)])[0], d, n)


def haar_random_unitary(dim, seed) -> np.ndarray:
    """Haar-distributed unitary: QR of a Gaussian matrix with phases fixed."""
    dim = _check_int(dim, "dimension")
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    if 16 * dim**2 > MAX_DENSE_BYTES:
        raise ValueError(
            f"a {dim} x {dim} unitary needs {16 * dim**2} bytes, "
            f"above the cap of {MAX_DENSE_BYTES} bytes"
        )
    g = _complex_normals([_check_seed(seed)], dim * dim).reshape(dim, dim)
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


@lru_cache(maxsize=None)
def _split_layout(d, label):
    """Block party counts of one class's members, and each split's party order.

    ``orders[s]`` is the axis permutation that takes a four-party array
    built block by block in split ``s`` (one axis per party) to party
    order, and ``perms[s]`` is the same permutation on the flat indices of
    a four-party vector of ``d`` entries per party, so that
    ``outer[..., perms[s]]`` reorders a product vector built block by block.
    """
    splits = SEPARABLE_SPLITS[label]
    orders = tuple(
        tuple(map(int, np.argsort([p for block in split for p in block]))) for split in splits
    )
    block_index = np.arange(d**4).reshape((d,) * 4)
    perms = np.stack([block_index.transpose(order).reshape(-1) for order in orders])
    perms.setflags(write=False)
    return tuple(len(block) for block in splits[0]), orders, perms


def _separable_members(d, label, seeds, members):
    """The members of separable mixtures, one mixture per seed; see ``random_separable``.

    Returns the ``(B, members)`` weights, each member's split index into
    ``SEPARABLE_SPLITS[label]`` and its normalized block vectors: one
    ``(B, members, d**k)`` array per block, in block order. Per seed the
    stream gives the simplex cuts, then per member the split and the
    uniforms of its blocks in block order (radii, then angles, per block).
    """
    lengths = [d**k for k in _split_layout(d, label)[0]]
    count = len(seeds)
    cuts = np.empty((count, members - 1))
    picks = np.empty((count, members), dtype=np.intp)
    uniforms = np.empty((count, members, 2 * sum(lengths)))
    for row, seed in enumerate(seeds):
        rng = _generator(seed)
        cuts[row] = rng.random(members - 1)
        for m in range(members):
            picks[row, m] = rng.integers(len(SEPARABLE_SPLITS[label]))
            uniforms[row, m] = rng.random(uniforms.shape[-1])
    weights = np.diff(np.sort(cuts, axis=-1), prepend=0.0, append=1.0, axis=-1)
    blocks = []
    start = 0
    for length in lengths:
        u1 = 1.0 - uniforms[..., start : start + length]
        block = _box_muller(u1, uniforms[..., start + length : start + 2 * length])
        blocks.append(block / np.linalg.norm(block, axis=-1, keepdims=True))
        start += 2 * length
    return weights, picks, blocks


def _check_separable(d, label, seed, members):
    """``(d, seed, members)`` of one separable draw, validated; see ``random_separable``."""
    if label not in SEPARABLE_SPLITS:
        raise ValueError(f"unknown separability class {label!r}")
    members = _check_int(members, "members")
    if members < 1:
        raise ValueError("members must be at least 1")
    d, _ = _check_dims(d, 4)
    return d, _check_seed(seed), members


def random_separable(d, label, seed, members: int = SEPARABLE_MEMBERS) -> DensityMatrix:
    """Random four-party mixture of product states from one separability class.

    Each of the ``members`` pure members picks one partition allowed by the
    class (see ``SEPARABLE_SPLITS``) and independent Haar factors on its
    blocks; the mixture weights are uniform on the simplex. The result is a
    genuinely mixed member of the class, not just a pure product state.
    ``sweeps.separable_tensor`` gives the four-party tensor of the same
    draw without forming the matrix.
    """
    d, seed, members = _check_separable(d, label, seed, members)
    weights, picks, blocks = _separable_members(d, label, [seed], members)
    vectors = blocks[0]
    for block in blocks[1:]:
        vectors = (vectors[..., :, None] * block[..., None, :]).reshape(1, members, -1)
    vectors = np.take_along_axis(vectors, _split_layout(d, label)[2][picks], axis=-1)
    mixture = (vectors.swapaxes(-1, -2) * weights[:, None, :]) @ vectors.conj()
    return DensityMatrix(mixture[0], d, 4)
