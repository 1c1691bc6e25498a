"""Seeded verification sweeps over random states.

A sweep draws ``count`` states from one sample specification and evaluates a
set of named checks on every state, recording the worst case per check and
the sample that produced it. Samples are processed in chunks, as many as
fit the peak of ``CHUNK_BYTES`` (3.75 MiB: 10 samples at d=3, n=4 with
every check): a chunk's states are drawn, validated and decomposed as one
stack, and each check maps the chunk to one value per sample. A chunk runs
its ``separable-*`` checks first, so their stage is freed before the
samples' stack is drawn. All reductions are max/all-of over samples drawn
from their own seeds, so a report is the same bytes for a fixed spec
whatever the chunking and the order the checks run in. A NaN observation
makes its check's maximum NaN, and a NaN maximum fails the check.

A chunk validates what it draws, once, where it draws it: the amplitude
rows of pure samples, the matrices of mixed ones, and the
``SEPARABLE_MEMBERS`` members of each ``separable-*`` class's mixtures
(their weights, and their block vectors as one stack per block size for
all classes). What the sweep derives from them (marginals,
reconstructions) is measured by its check and never validated again: a
derived value that breaks shows as a failing or NaN check value naming
its sample, not as an input error.
Separable mixtures are never formed as matrices; their ``T^(1..n)`` is
assembled from the members' block tensors (``separable_tensor``), and a
chunk keeps only the squared norms of the four-party classes' tensors.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

import numpy as np

from .bloch import (
    BlochTensor,
    _coefficients,
    _pair_rule_residual,
    _purity_from_norms,
    _rebuild,
    _squared_norms,
    _subset_norms,
    _sums_by_order,
    _triple_rule_residual,
)
from .bounds import _NORM_CAPS, separability_thresholds, triple_sum_bound
from .sampling import (
    SEPARABLE_MEMBERS,
    SEPARABLE_SPLITS,
    _SPLIT_LAYOUTS,
    _check_rank,
    _check_separable,
    _check_seed,
    _ginibre_densities,
    _haar_amplitudes,
    _sample_seeds,
    _separable_draws,
)
from .states import (
    DensityMatrix,
    _check_amplitudes,
    _check_densities,
    _check_dims,
    _check_int,
    _check_tol,
    _check_weights,
    _dense_bytes,
    _partial_trace,
    _projectors,
    _purities,
)

__all__ = [
    "PURE_HAAR",
    "MIXED_GINIBRE",
    "BOUND_TOL",
    "ROUND_TRIP_TOL",
    "CHUNK_BYTES",
    "SampleSpec",
    "CheckOutcome",
    "SweepReport",
    "available_checks",
    "run_sweep",
    "separable_tensor",
]

PURE_HAAR = "pure-haar"
MIXED_GINIBRE = "mixed-ginibre"

BOUND_TOL = 1e-9
ROUND_TRIP_TOL = 1e-10

#: Bytes a sweep chunk may peak at (``tracemalloc``), so the memory a sweep
#: needs does not grow with ``count``. A chunk holds as many samples as the
#: per-sample peak of the larger stage its checks build allows (see
#: ``_chunk_size``), and at least one: with every check, pure or mixed, 10
#: samples at d=3, n=4 and 114 at d=2, n=4 (pure ones peak at 0.94 and 0.95
#: of the budget), 1 at d=4, n=4 (0.94). A sample whose stage alone is
#: larger than the budget makes a one-sample chunk that peaks above it:
#: every one from d=5 on. The budget is well under the thresholds the block
#: below sets, so a chunk's freed arrays stay in the heap for the next one.
CHUNK_BYTES = 30 << 17

# Freeing this untouched 16 MiB block raises glibc's mmap threshold to 16 MiB
# and its trim threshold to 32 MiB, by the dynamic rule of mallopt(3), for
# library and CLI sweeps alike. It runs at import, so the CLI's d=4 state-file
# buffers stay in the heap too and no call's tracemalloc peak counts the block.
# glibc leaves its thresholds alone once MALLOC_*, GLIBC_TUNABLES or mallopt has
# tuned them; other C libraries just free the block.
np.empty(16 << 20, np.uint8)

#: Dense arrays (``states._dense_bytes``) per sample at the peak of the
#: stages a chunk builds from its samples' states, pure or mixed: 3.5. Pure,
#: in the round trip (the states, their compact coefficients and the pass's
#: two work arrays); mixed, in the validation's positivity gate (the
#: matrices, their adjoint and its Hermitian deviation; then the shifted
#: Hermitian part in the adjoint's buffer and the Cholesky factor). Measured
#: as the per-sample ``tracemalloc`` slope of full chunks at d=2..4, n=1..4,
#: the largest is 3.498 for either kind (d=4, n=3).
_DENSE_ARRAYS = 3.5


@dataclass(frozen=True)
class SampleSpec:
    """What to sample: dimensions, ensemble kind, count and base seed."""

    local_dim: int
    num_parties: int
    kind: str = PURE_HAAR
    count: int = 100
    base_seed: int = 0
    rank: int | None = None

    def __post_init__(self):
        if self.kind not in (PURE_HAAR, MIXED_GINIBRE):
            raise ValueError(f"unknown sample kind {self.kind!r}")
        # sample indices 0..count - 1 must be valid ``sample_seed`` indices
        if not 1 <= _check_int(self.count, "count") <= 2**64:
            raise ValueError(f"count must lie in 1..2**64, got {self.count}")
        _check_seed(self.base_seed)
        d, n = _check_dims(self.local_dim, self.num_parties)
        if self.rank is not None:
            if self.kind == PURE_HAAR:
                raise ValueError("rank applies to mixed-ginibre sampling only")
            _check_rank(self.rank, d**n)

    def draw(self, index) -> DensityMatrix:
        """Sample ``index`` of this spec, drawn by the code a sweep's chunk draws it with.

        Replaying by construction costs a second validation: the chunk checks
        a pure sample's amplitudes or a mixed one's matrix, then
        ``DensityMatrix`` checks the matrix.
        """
        if not 0 <= _check_int(index, "sample index") < self.count:
            raise ValueError(f"sample index must lie in 0..{self.count - 1}, got {index}")
        seeds = _sample_seeds(self.base_seed, index, index + 1).tolist()
        chunk = _Chunk(self, seeds, (), _StageClock(_STAGES))
        return DensityMatrix(chunk.rho[0], self.local_dim, self.num_parties)


@dataclass(frozen=True)
class CheckOutcome:
    """Worst case of one check over a sweep.

    ``worst_index`` is the first sample attaining ``max_observed`` (the
    first NaN, if any) and ``worst_seed`` the seed its chunk drew it with:
    for a per-sample check ``spec.draw(worst_index)`` replays the state
    through the chunk's own draw code, and for a ``separable-*`` check
    ``tensor_norm_sq(separable_tensor(d, label, worst_seed))`` replays
    ``max_observed`` bit for bit. A failed outcome may come from a derived
    value (a marginal or reconstruction) that broke; it is reported here,
    never raised.
    """

    name: str
    samples: int
    max_observed: float
    bound: float
    worst_margin: float
    tolerance: float
    passed: bool
    worst_index: int
    worst_seed: int


@dataclass(frozen=True)
class SweepReport:
    """Outcomes of a sweep's checks, in the order selected.

    ``timings`` maps each stage of a chunk (``rho``: the draw and its
    validation, ``coeffs``, ``norms``, ``separable``) and then each check's
    own evaluation, by name, to the seconds spent in it over the sweep, not
    counting the stages it started. A stage no selected check needs reads
    0.0. Reports compare equal whatever their timings.
    """

    spec: SampleSpec
    checks: tuple
    passed: bool
    timings: dict = field(compare=False)

    def outcome(self, name) -> CheckOutcome:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)


class _StageClock:
    """Seconds per sweep stage, each stage's own: time spent in a stage it starts is that stage's.

    ``seconds`` holds every stage in ``names`` from 0.0, in that order; no other stage runs.
    """

    def __init__(self, names):
        self.seconds = dict.fromkeys(names, 0.0)
        self._inner = [0.0]  # per open stage, the seconds of the stages it started

    def run(self, stage, build, *args):
        self._inner.append(0.0)
        start = perf_counter()
        try:
            return build(*args)
        finally:
            elapsed = perf_counter() - start
            inner = self._inner.pop()
            self._inner[-1] += elapsed
            self.seconds[stage] += elapsed - inner


#: A chunk's timed stages, each built once per chunk by the cached property of its name.
_STAGES = ("rho", "coeffs", "norms", "separable")


def _stage(name):
    """A chunk's cached property whose build runs on the chunk's clock as stage ``name``."""

    def wrap(build):
        return cached_property(lambda chunk: chunk.clock.run(name, build, chunk))

    return wrap


class _Chunk:
    """A chunk of consecutive samples; its states and their Bloch data are built on first use.

    Building ``rho`` validates what the chunk draws, once: the amplitude
    rows of a pure-haar chunk (the projectors of valid vectors are valid
    states), the matrices of a mixed one. Nothing derived from ``rho``
    (``purities`` among it) is validated again.
    ``separable`` holds the four-party squared norms of the constructed
    mixtures of every class in ``labels``, drawn together, not their tensors.
    Each stage in ``_STAGES`` is built on ``clock``.
    """

    def __init__(self, spec, seeds, labels, clock):
        self.spec = spec
        self.seeds = seeds
        self.labels = labels
        self.clock = clock

    @_stage("rho")
    def rho(self):
        d, n = self.spec.local_dim, self.spec.num_parties
        if self.spec.kind == PURE_HAAR:
            amps = _haar_amplitudes(d, n, self.seeds)
            _check_amplitudes(amps)
            return _projectors(amps)
        rho = _ginibre_densities(d, n, self.spec.rank or d**n, self.seeds)
        _check_densities(rho)
        return rho

    @cached_property
    def purities(self):
        return _purities(self.rho)

    @_stage("coeffs")
    def coeffs(self):
        return _coefficients(self.rho, self.spec.local_dim, self.spec.num_parties)

    @_stage("norms")
    def norms(self):
        return _subset_norms(self.coeffs, self.spec.num_parties)

    @_stage("norms")
    def order_sums(self):
        return _sums_by_order(self.norms, self.spec.num_parties)

    @_stage("separable")
    def separable(self):
        return _separable_tensors(self.spec.local_dim, self.labels, self.seeds, _squared_norms)


def _max_order_norm(ctx, size):
    return np.max([norm_sq for s, norm_sq in ctx.norms.items() if len(s) == size], axis=0)


def _purity_gap(ctx):
    d, n = ctx.spec.local_dim, ctx.spec.num_parties
    return np.abs(_purity_from_norms(d, n, ctx.norms) - ctx.purities)


def _marginal_purity_gap(ctx):
    """Largest purity gap between a one-party marginal and its complement.

    The marginals of validated states are measured, not validated: a wrong
    marginal shows as a gap.
    """
    d, n = ctx.spec.local_dim, ctx.spec.num_parties
    parties = range(1, n + 1)
    # party -> the marginal on every other party
    rests = {i: _partial_trace(ctx.rho, d, n, tuple(p for p in parties if p != i)) for i in parties}
    gap = np.zeros(len(ctx.rho))
    for i in parties:
        # ``_partial_trace`` traces the highest party first, so party i's marginal is
        # traced on from the marginal without the highest other party (in which party n
        # sits at n - 1): the same steps on the same values, so the same bits
        top = n if i < n else n - 1
        one = _purities(_partial_trace(rests[top], d, n - 1, (min(i, n - 1),)))
        gap = np.maximum(gap, np.abs(one - _purities(rests[i])))
    return gap


def _round_trip_error(ctx):
    """Frobenius distance between each rebuilt state and its validated sample.

    The rebuilt matrices are not validated: by Weyl's inequality a result
    within ``ROUND_TRIP_TOL`` of a state is a state within that distance,
    and a non-finite one gives NaN, which fails the check.
    """
    d, n = ctx.spec.local_dim, ctx.spec.num_parties
    rebuilt = _rebuild(ctx.coeffs, d, n)
    rebuilt -= ctx.rho  # in place: the chunk holds no second stack of its size
    return np.linalg.norm(rebuilt, axis=(-2, -1))


def _separable_tensors(d, labels, seeds, reduce=lambda tensor: tensor):
    """Flat ``T^(1..n)`` of constructed separable mixtures: class -> ``reduce`` of a row per seed.

    The members of all classes in ``labels`` are drawn together and
    validated where they are drawn, once per stack: their weights (the
    same for every class) on the simplex, and per block party count ``k``
    the finite, normalized vectors of every class's k-party blocks, which
    one generator-only ``_coefficients`` pass turns into block tensors. A
    member's tensor is the party-permuted outer product of its blocks'
    tensors, so a mixture's tensor is ``sum_s perm_s((A w_s)^T @ B)`` with
    ``A`` the outer product of all blocks but the last, ``B`` the last
    block's tensor and ``w_s`` the weights of the members that picked split
    ``s``. No ``d^n x d^n`` matrix is formed. The sum starts as the first
    split's product, in party order for every class (``_SPLIT_LAYOUTS``),
    and adds the others in split order: every entry is the same sum as in a
    zero-filled total, but for the sign an exact zero of the first product
    keeps. Each class's tensor is reduced before the next class is
    assembled, so a chunk that keeps only norms holds one tensor at a time.
    """
    weights, picks, stacks, slots = _separable_draws(d, labels, seeds)
    _check_weights(weights)
    count, members = len(seeds), SEPARABLE_MEMBERS
    block_tensors = {}
    for k, stack in stacks.items():
        _check_amplitudes(stack.reshape(-1, d**k))
        block_tensors[k] = _coefficients(_projectors(stack), d, k, generators=True).reshape(
            count, stack.shape[1], -1
        )
    out = {}
    for c, label in enumerate(labels):
        blocks = [block_tensors[k][:, start : start + members] for k, start in slots[c]]
        head = blocks[0]
        for block in blocks[1:-1]:
            # the same products as a broadcast multiply, in about half its time
            head = np.einsum("bmi,bmj->bmij", head, block).reshape(count, members, -1)
        orders = _SPLIT_LAYOUTS[label][1]
        # per split, the weights of the members that picked it, and 0 elsewhere
        picked = np.where(picks[:, c] == np.arange(len(orders))[:, None, None], weights, 0.0)
        total = None
        for split, order in enumerate(orders):
            mixed = (head * picked[split, ..., None]).swapaxes(-1, -2) @ blocks[-1]
            mixed = mixed.reshape((count,) + (d * d - 1,) * len(order)).transpose(
                0, *(1 + axis for axis in order)
            )
            if total is None:
                # the first split is in party order, so this keeps its product uncopied
                total = np.ascontiguousarray(mixed)
            else:
                total += mixed
            del mixed  # freed before the next split's product is formed
        out[label] = reduce(total.reshape(count, -1))
    return out


def separable_tensor(d, label, seed) -> BlochTensor:
    """``T^(1..n)`` of ``random_separable(d, label, seed)``, n = 2..4, from its member blocks.

    The same code the ``separable-*`` sweep checks run on a chunk, at one
    seed and one class: ``tensor_norm_sq(separable_tensor(d, label,
    worst_seed))`` is such a check's ``max_observed``, bit for bit.
    """
    d, n, seed = _check_separable(d, label, seed)
    row = _separable_tensors(d, (label,), [seed])[label][0]
    return BlochTensor(tuple(range(1, n + 1)), d, row)


@dataclass(frozen=True)
class _Check:
    name: str
    arities: tuple
    pure_only: bool
    tol: float
    evaluate: object  # chunk -> observed value per sample
    bound: object  # spec -> bound the value must stay below
    separable: str | None = None  # the class whose mixtures the check draws, if any


_CHECKS = (
    *(
        _Check(
            name,
            tuple(range(k, 5)),
            False,
            BOUND_TOL,
            evaluate=lambda ctx, k=k: _max_order_norm(ctx, k),
            bound=lambda spec, k=k: _NORM_CAPS[k](spec.local_dim),
        )
        for k, name in zip(
            _NORM_CAPS,
            ("ball-radius", "bipartite-norm-bound", "tripartite-norm-bound",
             "fourpartite-norm-bound"),
            strict=True,
        )
    ),
    _Check(
        "triple-norm-tradeoff",
        (4,),
        False,
        BOUND_TOL,
        evaluate=lambda ctx: ctx.order_sums[3],
        bound=lambda spec: triple_sum_bound(spec.local_dim),
    ),
    _Check(
        "purity-identity",
        (1, 2, 3, 4),
        False,
        BOUND_TOL,
        evaluate=_purity_gap,
        bound=lambda spec: 0.0,
    ),
    _Check(
        "marginal-purity",
        (3, 4),
        True,
        BOUND_TOL,
        evaluate=_marginal_purity_gap,
        bound=lambda spec: 0.0,
    ),
    _Check(
        "pure-pair-sum-rule",
        (3,),
        True,
        BOUND_TOL,
        evaluate=lambda ctx: np.abs(_pair_rule_residual(ctx.spec.local_dim, ctx.order_sums)),
        bound=lambda spec: 0.0,
    ),
    _Check(
        "pure-triple-sum-rule",
        (4,),
        True,
        BOUND_TOL,
        evaluate=lambda ctx: np.abs(_triple_rule_residual(ctx.spec.local_dim, ctx.order_sums)),
        bound=lambda spec: 0.0,
    ),
    _Check(
        "reconstruction-round-trip",
        (1, 2, 3, 4),
        False,
        ROUND_TRIP_TOL,
        evaluate=_round_trip_error,
        bound=lambda spec: 0.0,
    ),
    *(
        _Check(
            f"separable-{label}",
            (4,),
            False,
            BOUND_TOL,
            evaluate=lambda ctx, label=label: ctx.separable[label],
            bound=lambda spec, label=label: (
                separability_thresholds(spec.local_dim).for_class(label)
            ),
            separable=label,
        )
        for label in SEPARABLE_SPLITS
    ),
)

_BY_NAME = {check.name: check for check in _CHECKS}


def _applicable(check, spec):
    if spec.num_parties not in check.arities:
        return False
    if check.pure_only and spec.kind != PURE_HAAR:
        return False
    return True


def available_checks(spec: SampleSpec | None = None):
    """Names of all checks, or of those applicable to the given spec."""
    if spec is None:
        return [check.name for check in _CHECKS]
    return [check.name for check in _CHECKS if _applicable(check, spec)]


def _separable_bytes(d):
    """Bytes one sample adds to a chunk's ``separable`` stage that draws all four classes, at most.

    The stage peaks in the Bloch pass of the largest blocks: their
    projectors and the pass's two work arrays, counted as three complex
    arrays of ``rows * d^(2k)`` entries, while the block vectors and the
    smaller blocks' compact tensors are held. The generator-only pass's
    second array holds ``(d^2 - 1) / d^2`` of that, so the count is an upper
    bound: per-sample ``tracemalloc`` slopes are 30.3 KB / 295.4 KB /
    1.61 MB at d = 2 / 3 / 4, against 33.8 KB / 309.1 KB / 1.65 MB here. At
    d <= 4 the assembly of a class holds less (every block's tensor, the
    outer product of all blocks but the last twice and two ``T^(1234)``
    arrays); from d = 5 on, one sample fills a chunk either way. Fewer
    classes draw fewer blocks and peak lower.
    """
    # block party count -> blocks per member over the classes, then block rows per sample
    per_member = Counter(k for label in SEPARABLE_SPLITS for k in _SPLIT_LAYOUTS[label][0])
    rows = {k: SEPARABLE_MEMBERS * count for k, count in per_member.items()}
    top = max(rows)
    vectors = sum(16 * r * d**k for k, r in rows.items())
    tensors = sum(8 * r * d ** (2 * k) for k, r in rows.items() if k < top)
    return vectors + tensors + 3 * 16 * rows[top] * d ** (2 * top)


def _chunk_size(spec, checks):
    """Samples per chunk: as many as ``CHUNK_BYTES`` holds, and at least one.

    A sample costs the peak of the larger of the two stages the selected
    ``checks`` build, which never exist at once: the separable stage
    (``_separable_bytes``) and the stage of its own state
    (``_DENSE_ARRAYS``), plus its per-subset values.
    """
    stages = []
    if any(check.separable for check in checks):
        stages.append(_separable_bytes(spec.local_dim))
    if not all(check.separable for check in checks):
        stages.append(_DENSE_ARRAYS * _dense_bytes(spec.local_dim, spec.num_parties))
    # four floats per subset: the norms, their sums and maxima, and each check's values
    values = 32 * 2**spec.num_parties
    return max(1, int(CHUNK_BYTES // (max(stages) + values)))


def run_sweep(spec: SampleSpec, checks=None, tol: float | None = None) -> SweepReport:
    """Evaluate the requested checks on ``spec.count`` seeded samples.

    ``checks=None`` selects every check applicable to the spec; a string, no
    check, a name that is no check's (a non-string included), a check that does
    not apply or a check twice raises ValueError.
    A given ``tol``, positive and finite, overrides every check's own tolerance.
    The ``separable-*`` checks draw their own class-constrained mixtures
    (same count and seed schedule, all selected classes from one read of
    each stream) instead of using the spec's ensemble kind. A drawn sample or member
    that fails validation raises ValueError; a derived value that breaks
    fails its check instead.
    """
    if tol is not None:
        tol = _check_tol(tol)
    if isinstance(checks, str):
        raise ValueError("checks must be a sequence of check names, not a string")
    selected = []
    for name in available_checks(spec) if checks is None else checks:
        check = _BY_NAME.get(name) if isinstance(name, str) else None
        if check is None:
            raise ValueError(f"unknown check {name!r}; available: {', '.join(_BY_NAME)}")
        if not _applicable(check, spec):
            raise ValueError(
                f"check {name!r} does not apply to kind={spec.kind!r}, n={spec.num_parties}"
            )
        if check in selected:
            raise ValueError(f"check {name!r} is requested more than once")
        selected.append(check)
    if not selected:
        raise ValueError("no checks requested")
    labels = tuple(check.separable for check in selected if check.separable)

    # check name -> (index, seed, value) of its worst sample so far
    worst = {}
    clock = _StageClock((*_STAGES, *(check.name for check in selected)))
    # a chunk's separable stage frees its arrays before the samples' stack is drawn
    ordered = sorted(selected, key=lambda check: check.separable is None)
    size = _chunk_size(spec, selected)
    for start in range(0, spec.count, size):
        indices = range(start, min(start + size, spec.count))
        seeds = _sample_seeds(spec.base_seed, indices.start, indices.stop).tolist()
        ctx = _Chunk(spec, seeds, labels, clock)
        for check in ordered:
            values = clock.run(check.name, check.evaluate, ctx)
            i = int(np.argmax(values))  # the first NaN, else the first maximum
            value = float(values[i])
            best = worst.get(check.name)
            # the first chunk sets it; then a NaN found earlier stays, and otherwise
            # a NaN or a strictly larger value replaces it
            if best is None or (not math.isnan(best[2]) and not value <= best[2]):
                worst[check.name] = (indices[i], seeds[i], value)

    outcomes = []
    for check in selected:
        check_tol = tol if tol is not None else check.tol
        index, seed, value = worst[check.name]
        bound = check.bound(spec)
        margin = value - bound
        outcomes.append(
            CheckOutcome(
                check.name,
                spec.count,
                value,
                bound,
                margin,
                check_tol,
                margin <= check_tol,
                index,
                seed,
            )
        )
    return SweepReport(spec, tuple(outcomes), all(o.passed for o in outcomes), clock.seconds)
