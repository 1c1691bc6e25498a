"""Deterministic random state generation.

Every draw reads the stream of one 64-bit seed: the raw 64-bit words of a
Philox4x64-10 bit generator keyed by the seed, counter from 0
(``np.random.Philox(key=seed).random_raw``). Per-sample seeds derive from
a base seed through a splitmix64-style hash. The words are decoded
explicitly, bit for bit as ``np.random.Generator`` would read them:

- a uniform in [0, 1) is one word ``w``, as ``(w >> 11) * 2**-53``;
- a normal is ``r cos(a) + i r sin(a)`` with ``r = sqrt(-2 log(1 - u1))``
  and ``a = 2 pi u2`` (Box-Muller), ``count`` normals reading ``count``
  uniforms ``u1`` and then ``count`` uniforms ``u2``;
- a pick among ``k`` choices takes the next 32-bit half, the low half of
  a new word and then its high half, and returns ``(h * k) >> 32``
  (Lemire's rule); ``k = 1`` reads nothing. When the low 32 bits of
  ``h * k`` fall below ``(2**32 - k) % k``, the rule rejects ``h`` and
  reads another half; that happens with probability under ``k * 2**-32``.

Identical seeds therefore reproduce identical states bit for bit,
independent of how calls are scheduled.

The draws are batched: each private ``_ginibre_densities`` /
``_haar_amplitudes`` / ``_separable_draws`` function takes a sequence of
seeds, reads every seed's stream once and transforms the whole stack at
once into raw arrays. The Haar and Ginibre draws read their uniforms with
``Generator.random``, two calls per seed; the separable draws decode the
raw words themselves through a cached layout, since their split picks and
block uniforms would take two ``Generator`` calls per member. They
validate nothing: a public single-draw function is the same code at one
seed, and its state's constructor validates the result, while a sweep
validates each chunk's draw where it draws it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

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
_MASK32 = np.uint64(0xFFFFFFFF)
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


def _uniforms(words) -> np.ndarray:
    """Uniforms in [0, 1) of raw words, as ``Generator.random`` reads them."""
    return (words >> np.uint64(11)) * 2.0**-53


def _box_muller(u1, u2):
    """Complex normals ``r cos(a) + i r sin(a)`` from uniforms, elementwise.

    ``u1`` must lie in (0, 1] so that the log stays finite; ``u2`` has its shape.
    """
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(radius.shape, complex)
    np.multiply(radius, np.cos(angle), out=out.real)
    np.multiply(radius, np.sin(angle), out=out.imag)
    return out


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


class _DrawLayout(NamedTuple):
    """Where the separable draws of some classes read a seed's stream; see ``_draw_layout``."""

    width: int
    picks: np.ndarray
    shifts: np.ndarray
    splits: np.ndarray
    thresholds: np.ndarray
    reads: np.ndarray
    spans: tuple
    order: np.ndarray
    sizes: tuple
    slots: tuple


# keyed by a caller's ``members`` too, so bounded: a sweep needs one layout per (d, classes)
@lru_cache(maxsize=16)
def _draw_layout(d, labels, members):
    """Word indices of the separable draws of ``labels`` (a tuple of classes) on one stream.

    Each class reads the stream from its start: the ``members - 1`` simplex
    cuts (words ``0`` to ``members - 2``, the same for every class), then
    per member its split pick and the uniforms of its blocks in block order
    (per block the radii, then the angles). Per class ``c``:

    - ``picks[c]``, ``shifts[c]``: the word of each member's pick and the
      shift (0 or 32) of its half; a class with one split reads no word,
      and its picks point at word 0, which gives 0;
    - ``splits[c]``, ``thresholds[c]``: its split count ``k`` and Lemire's
      rejection threshold ``(2**32 - k) % k``;
    - ``reads[spans[c]]``: the words of its members' uniforms, in stream
      order, ``(members, 2 * sum of d**k)`` when reshaped.

    ``order`` regroups ``reads`` by block party count ``k`` (ascending),
    then class, block, member and entry: row 0 holds the radii, row 1 the
    angles, and ``sizes`` lists each ``(k, rows)``, ``rows`` blocks of
    ``d**k`` entries. ``slots[c]`` gives ``(k, start)`` per block of class
    ``c``: its members are rows ``start`` to ``start + members`` of the
    k-party blocks. ``width`` is the number of words the longest class
    reads.
    """
    picks, shifts, splits, streams, spans, slots, groups = [], [], [], [], [], [], {}
    width = start = 0
    for label in labels:
        count = len(SEPARABLE_SPLITS[label])
        parties = _split_layout(d, label)[0]
        reads = 2 * sum(d**k for k in parties)
        position = members - 1
        word = 0
        pick = []
        for m in range(members):
            if count > 1 and m % 2 == 0:
                # a new word: its low half picks now, its high half for the next member
                word = position
                position += 1
            pick.append(word)
            streams.append(np.arange(position, position + reads))
            position += reads
        width = max(width, position)
        picks.append(pick)
        shifts.append([32 * (m % 2) for m in range(members)])
        splits.append(count)
        # this class's reads are start..start + members * reads of the concatenation
        at = start + np.arange(members * reads).reshape(members, reads)
        offset = 0
        class_slots = []
        for k in parties:
            group = groups.setdefault(k, [])
            class_slots.append((k, members * len(group)))
            group.append(at[:, offset : offset + 2 * d**k].reshape(members, 2, d**k))
            offset += 2 * d**k
        slots.append(tuple(class_slots))
        spans.append(slice(start, start + members * reads))
        start += members * reads
    layout = _DrawLayout(
        width=width,
        picks=np.array(picks, dtype=np.intp),
        shifts=np.array(shifts, dtype=np.uint64),
        splits=np.array(splits, dtype=np.uint64)[:, None],
        thresholds=np.array([(2**32 - k) % k for k in splits], dtype=np.uint64)[:, None],
        reads=np.concatenate(streams),
        spans=tuple(spans),
        order=np.concatenate(
            [np.concatenate(groups[k]).transpose(1, 0, 2).reshape(2, -1) for k in sorted(groups)],
            axis=1,
        ),
        sizes=tuple((k, members * len(groups[k])) for k in sorted(groups)),
        slots=tuple(slots),
    )
    for field in layout:
        if isinstance(field, np.ndarray):
            field.setflags(write=False)
    return layout


def _lemire_picks(halves, splits, thresholds):
    """Picks among ``splits`` choices from 32-bit halves, as ``Generator.integers`` makes them.

    Returns the picks and a mask of the halves that Lemire's rule rejects:
    there numpy reads another half, so the stream no longer follows the
    layout.
    """
    scaled = halves * splits
    return (scaled >> np.uint64(32)).astype(np.intp), (scaled & _MASK32) < thresholds


def _read_members(d, label, seed, members):
    """One class's member picks and uniforms from one stream, read call by call.

    The reference of the layout decode, through ``np.random.Generator``; a
    draw whose pick Lemire's rule rejects is read this way. Returns the
    ``(members,)`` picks and the ``(members, 2 * sum of d**k)`` uniforms.
    """
    rng = _generator(seed)
    rng.random(members - 1)
    reads = 2 * sum(d**k for k in _split_layout(d, label)[0])
    picks = np.empty(members, dtype=np.intp)
    uniforms = np.empty((members, reads))
    for m in range(members):
        picks[m] = rng.integers(len(SEPARABLE_SPLITS[label]))
        uniforms[m] = rng.random(reads)
    return picks, uniforms


def _separable_draws(d, labels, seeds, members):
    """The members of separable mixtures of each class in ``labels``, one mixture per seed.

    Reads each seed's stream once and decodes every class from it through
    ``_draw_layout(d, labels, members)``; a class whose pick Lemire's rule
    rejects on some seed is read again there by ``_read_members``. All
    block uniforms go through one Box-Muller transform, and the vectors of
    all k-party blocks are normalized as one stack per ``k``.

    Returns the ``(B, members)`` weights, which every class reads from the
    same first words of a stream, the ``(B, len(labels), members)`` split
    picks (an index into ``SEPARABLE_SPLITS[label]``), and per block party
    count ``k`` the normalized block vectors of every class's k-party
    blocks as one ``(B, rows, d**k)`` stack; ``_draw_layout(...).slots``
    names the rows of each class's blocks. See ``random_separable``.
    """
    layout = _draw_layout(d, labels, members)
    words = np.stack([np.random.Philox(key=seed).random_raw(layout.width) for seed in seeds])
    uniforms = _uniforms(words)
    halves = (np.take(words, layout.picks, axis=1) >> layout.shifts) & _MASK32
    picks, rejected = _lemire_picks(halves, layout.splits, layout.thresholds)
    # np.take gathers C-contiguous, unlike uniforms[:, index]: then the normals come out
    # C-contiguous too, and each block's norm sums its row as a draw of one class does
    reads = np.take(uniforms, layout.reads, axis=1)
    for row, c in zip(*np.nonzero(rejected.any(axis=-1))):
        picks[row, c], redone = _read_members(d, labels[c], seeds[row], members)
        reads[row, layout.spans[c]] = redone.reshape(-1)
    block_uniforms = np.take(reads, layout.order, axis=1)
    cuts = np.sort(uniforms[:, : members - 1], axis=-1)
    weights = np.diff(cuts, prepend=0.0, append=1.0, axis=-1)
    normals = _box_muller(1.0 - block_uniforms[:, 0], block_uniforms[:, 1])
    stacks = {}
    start = 0
    for k, rows in layout.sizes:
        block = normals[:, start : start + rows * d**k].reshape(len(seeds), rows, d**k)
        stacks[k] = block / np.linalg.norm(block, axis=-1, keepdims=True)
        start += rows * d**k
    return weights, picks, stacks


def _separable_members(d, label, seeds, members):
    """One class's members: ``(B, members)`` weights and picks, and its blocks' vectors.

    The blocks come as one ``(B, members, d**k)`` array per block, in
    block order; see ``_separable_draws``.
    """
    weights, picks, stacks = _separable_draws(d, (label,), seeds, members)
    slots = _draw_layout(d, (label,), members).slots[0]
    return weights, picks[:, 0], [stacks[k][:, start : start + members] for k, start in slots]


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
