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
once into raw arrays. A draw call builds one Philox and re-keys it for each
seed (``_streams``), which reads the same words as a fresh
``Philox(key=seed)`` per seed. The Haar and Ginibre draws read their
uniforms with ``Generator.random``, one call per seed; the separable
draws decode the raw words themselves, since the split picks and block
uniforms of a mixture's ``SEPARABLE_MEMBERS`` members would take two
``Generator`` calls per member. Each class's stream has a fixed period (see
``_separable_draws``), so plain reshapes of the words find every value.
They validate nothing: a public single-draw function is the same code at
one seed, and its state's constructor validates the result, while a sweep
validates each chunk's draw where it draws it.
"""

from __future__ import annotations

import itertools

import numpy as np

from .states import MAX_DENSE_BYTES, MAX_PARTIES, DensityMatrix, PureState, _check_dims, _check_int

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

#: Pure members of each constructed separable mixture: an even count, since
#: one pick word holds the split picks of two members (see ``_separable_draws``).
SEPARABLE_MEMBERS = 8


def _split_classes(n):
    """``(label, splits)`` of each separability class of ``n`` parties, by one set-partition rule.

    A class writes ``n`` as two or more block sizes, labelled ascending
    (``1-1-2``); classes go by block count, then sizes. Its splits are the
    set partitions of ``1..n`` into such blocks, each sorted by (size,
    parties), in lexicographic order.
    """
    for count in range(2, n + 1):
        for sizes in itertools.combinations_with_replacement(range(1, n), count):
            if sum(sizes) == n:
                cuts = tuple(itertools.pairwise((0, *itertools.accumulate(sizes))))
                splits = {
                    tuple(sorted((tuple(sorted(order[a:b])) for a, b in cuts), key=lambda b: (len(b), b)))
                    for order in itertools.permutations(range(1, n + 1))
                }
                yield "-".join(map(str, sizes)), tuple(sorted(splits))


#: The four-party classes of ``_split_classes``: label -> the partitions the class allows.
SEPARABLE_SPLITS = dict(_split_classes(4))

#: Per class of 2..4 parties, its members' block sizes, and per split the axis permutation
#: that takes an n-party array built block by block in that split to party order.
_SPLIT_LAYOUTS = {
    label: (
        tuple(len(block) for block in splits[0]),
        tuple(tuple(np.argsort([p for block in split for p in block]).tolist()) for split in splits),
    )
    for n in range(2, MAX_PARTIES + 1) for label, splits in _split_classes(n)
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


def _sample_seeds(base_seed, start, stop) -> np.ndarray:
    """``sample_seed(base_seed, i)`` for ``i`` in ``range(start, stop)``, as one uint64 array.

    ``base_seed`` and the indices must be valid; the uint64 arithmetic wraps
    modulo 2**64 as ``sample_seed`` masks.
    """
    z = np.arange(start, stop, dtype=np.uint64) + np.uint64(1)
    z *= np.uint64(_GOLDEN)
    z += np.uint64((base_seed + _GOLDEN) & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _check_seed(seed, what="seed"):
    """``seed`` as an int in 0..2**64 - 1, a Philox key: the one validator of every seed."""
    seed = _check_int(seed, what)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"{what} must be an integer in 0..2**64 - 1, got {seed}")
    return seed


def _streams(seeds):
    """A generator at the start of each seed's stream, in turn: one Philox, re-keyed per seed.

    ``Philox(key=seed)`` is its key with the counter, the buffered words and
    the pending 32-bit half all reset, so setting that state reads the words
    a fresh ``Philox(key=seed)`` would, without constructing one per seed.
    A caller finishes one seed's reads before it asks for the next.
    """
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    key = [0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for seed in seeds:
        key[0] = seed
        bits.state = state
        yield rng


def _uniforms(words) -> np.ndarray:
    """Uniforms in [0, 1) of raw words, as ``Generator.random`` reads them."""
    return (words >> np.uint64(11)) * 2.0**-53


def _box_muller(uniforms):
    """Complex normals ``r cos(a) + i r sin(a)`` from a ``(..., 2, m)`` block of uniforms.

    Row 0 holds the ``u1`` of the radii ``sqrt(-2 log(1 - u1))``, row 1 the ``u2`` of the angles.
    """
    radius = np.sqrt(-2.0 * np.log(1.0 - uniforms[..., 0, :]))
    angle = 2.0 * np.pi * uniforms[..., 1, :]
    out = np.empty(radius.shape, complex)
    np.multiply(radius, np.cos(angle), out=out.real)
    np.multiply(radius, np.sin(angle), out=out.imag)
    return out


def _complex_normals(seeds, count) -> np.ndarray:
    """``(len(seeds), count)`` complex normals; row i holds the first draws of seed i's stream.

    Each seed fills its ``(2, count)`` block of uniforms, radii then angles, in one
    read, and all blocks go through one Box-Muller transform.
    """
    uniforms = np.empty((len(seeds), 2, count))
    for rng, block in zip(_streams(seeds), uniforms):
        rng.random(out=block)
    return _box_muller(uniforms)


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


def _check_rank(rank, dim):
    """``rank`` as an int in 1..dim, the ranks a Ginibre draw of ``dim`` rows takes."""
    rank = _check_int(rank, "rank")
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank}")
    return rank


def random_mixed(d, n, rank, seed) -> DensityMatrix:
    """Random density matrix G G^dagger / Tr(G G^dagger) with Gaussian G.

    ``rank`` columns of G cap the numerical rank of the result; rank 1 gives
    pure states, rank d^n the unconstrained ensemble.
    """
    d, n = _check_dims(d, n)
    rank = _check_rank(rank, d**n)
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


def _lemire_picks(halves, splits):
    """Picks among ``splits`` choices from 32-bit halves, as ``Generator.integers`` makes them.

    Returns the picks and a mask of the halves that Lemire's rule rejects
    (the low 32 bits of ``h * splits`` below ``(2**32 - splits) % splits``):
    there numpy reads another half, so the stream leaves its fixed period.
    """
    scaled = halves * np.uint64(splits)
    threshold = np.uint64((2**32 - splits) % splits)
    return (scaled >> np.uint64(32)).astype(np.intp), (scaled & _MASK32) < threshold


def _read_members(d, label, seed):
    """One class's member picks and uniforms from one stream, read call by call.

    The reference of the decode in ``_separable_draws``, through
    ``np.random.Generator``; a draw whose pick Lemire's rule rejects leaves
    the stream's fixed period and is read this way. Returns the
    ``(SEPARABLE_MEMBERS,)`` picks and the ``(SEPARABLE_MEMBERS, 2 * sum of
    d**k)`` uniforms.
    """
    (rng,) = _streams([seed])
    rng.random(SEPARABLE_MEMBERS - 1)
    reads = 2 * sum(d**k for k in _SPLIT_LAYOUTS[label][0])
    picks = np.empty(SEPARABLE_MEMBERS, dtype=np.intp)
    uniforms = np.empty((SEPARABLE_MEMBERS, reads))
    for m in range(SEPARABLE_MEMBERS):
        picks[m] = rng.integers(len(_SPLIT_LAYOUTS[label][1]))
        uniforms[m] = rng.random(reads)
    return picks, uniforms


def _separable_draws(d, labels, seeds):
    """The members of separable mixtures of each class in ``labels``, one mixture per seed.

    ``labels`` may name classes of 2..4 parties. Each class reads a seed's
    stream from its start: the ``M - 1`` simplex cuts of its
    ``M = SEPARABLE_MEMBERS`` members, the same for every class, then per
    member ``R = 2 * sum of d**k`` uniforms (per block the radii, then the
    angles). A class of one split reads no pick; any other class reads
    ``M / 2`` periods of ``1 + 2 R`` words, a pick word (its low half for
    an even member, its high half for the next) and two members' uniforms.
    A class whose pick Lemire's rule rejects on some seed is read again
    there by ``_read_members``. All k-party blocks go through one
    Box-Muller transform and are normalized as one stack per ``k``.

    Returns the ``(B, M)`` weights, the ``(B, len(labels), M)`` split picks
    (an index into the class's splits), per ``k`` the normalized vectors of
    every class's k-party blocks as one ``(B, rows, d**k)`` stack, and per
    class the ``(k, start)`` of each block: its members are rows ``start``
    to ``start + M`` of the k-party stack. See ``random_separable``.
    """
    count, members = len(seeds), SEPARABLE_MEMBERS
    periods = members // 2
    reads = [2 * sum(d**k for k in _SPLIT_LAYOUTS[label][0]) for label in labels]
    # a class without picks reads members * r < periods * (1 + 2 * r) words
    width = members - 1 + periods * (1 + 2 * max(reads))
    words = np.stack([rng.bit_generator.random_raw(width) for rng in _streams(seeds)])
    cuts = np.sort(_uniforms(words[:, : members - 1]), axis=-1)
    weights = np.diff(cuts, prepend=0.0, append=1.0, axis=-1)
    body = words[:, members - 1 :]
    picks = np.zeros((count, len(labels), members), dtype=np.intp)
    groups, slots = {}, []
    for c, (label, r) in enumerate(zip(labels, reads)):
        splits = len(_SPLIT_LAYOUTS[label][1])
        if splits > 1:
            period = body[:, : periods * (1 + 2 * r)].reshape(count, periods, 1 + 2 * r)
            halves = np.stack([period[..., 0] & _MASK32, period[..., 0] >> np.uint64(32)], axis=-1)
            picks[:, c], rejected = _lemire_picks(halves.reshape(count, members), splits)
            uniforms = _uniforms(period[..., 1:]).reshape(count, members, r)
            for row in np.nonzero(rejected.any(axis=-1))[0]:
                picks[row, c], uniforms[row] = _read_members(d, label, seeds[row])
        else:
            uniforms = _uniforms(body[:, : members * r]).reshape(count, members, r)
        offset = 0
        class_slots = []
        for k in _SPLIT_LAYOUTS[label][0]:
            group = groups.setdefault(k, [])
            class_slots.append((k, members * len(group)))
            group.append(uniforms[..., offset : offset + 2 * d**k].reshape(count, members, 2, d**k))
            offset += 2 * d**k
        slots.append(tuple(class_slots))
    stacks = {}
    for k in sorted(groups):
        block = np.concatenate(groups[k], axis=1)
        # _box_muller allocates C-contiguous normals, so each row's norm sums as one draw's does
        normals = _box_muller(block)
        stacks[k] = normals / np.linalg.norm(normals, axis=-1, keepdims=True)
    return weights, picks, stacks, tuple(slots)


def _check_separable(d, label, seed):
    """``(d, n, seed)`` of one separable draw, validated, with ``n`` the class's party count."""
    if not isinstance(label, str) or label not in _SPLIT_LAYOUTS:
        raise ValueError(f"unknown separability class {label!r}")
    d, n = _check_dims(d, sum(_SPLIT_LAYOUTS[label][0]))
    return d, n, _check_seed(seed)


def random_separable(d, label, seed) -> DensityMatrix:
    """Random mixture of product states from one separability class of n = 2..4 parties.

    ``label`` is a class of ``_split_classes``, ``1-1`` to ``1-1-1-1``.
    Each of the ``SEPARABLE_MEMBERS`` pure members picks one partition
    allowed by the class and independent Haar factors on its blocks; the
    mixture weights are uniform on the simplex. The result is a genuinely
    mixed member of the class, not just a pure product state.
    ``sweeps.separable_tensor`` gives ``T^(1..n)`` of the same draw.
    """
    d, n, seed = _check_separable(d, label, seed)
    weights, picks, stacks, slots = _separable_draws(d, (label,), [seed])
    blocks = [stacks[k][0, start : start + SEPARABLE_MEMBERS] for k, start in slots[0]]
    vectors = blocks[0]
    for block in blocks[1:]:
        vectors = (vectors[:, :, None] * block[:, None, :]).reshape(SEPARABLE_MEMBERS, -1)
    # each member's product vector, built block by block, in party order
    orders = _SPLIT_LAYOUTS[label][1]
    vectors = np.stack(
        [v.reshape((d,) * n).transpose(orders[s]).reshape(-1) for v, s in zip(vectors, picks[0, 0])]
    )
    return DensityMatrix((vectors.T * weights[0]) @ vectors.conj(), d, n)
