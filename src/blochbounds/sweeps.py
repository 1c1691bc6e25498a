"""Seeded verification sweeps over random states.

A sweep draws ``count`` states from one sample specification and evaluates a
set of named checks on every state, recording the worst case per check and
the sample that produced it. Samples are processed in chunks sized by
``CHUNK_BYTES`` (640 KiB of dense arrays: 6 samples at d=3, n=4): a
chunk's states are drawn, validated and decomposed as one stack, and each
check maps the chunk to one value per sample. All reductions are
max/all-of over samples drawn from their own seeds, so a report is the
same bytes for a fixed spec whatever the chunking. A NaN observation makes
its check's maximum NaN, and a NaN maximum fails the check.

A chunk validates what it draws, once, where it draws it: the amplitude
rows of pure samples, the matrices of mixed ones, and the members of the
``separable-*`` classes (their weights, and their block vectors as one
stack per block size for all classes). What the sweep derives from them
(marginals, reconstructions) is measured by its check and never
validated again: a derived value that breaks shows as a failing or NaN
check value naming its sample, not as an input error.
Separable mixtures are never formed as matrices; their four-party tensor
is assembled from the members' block tensors (``separable_tensor``), and a
chunk keeps only its squared norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
from .bounds import (
    bipartite_norm_bound,
    fourpartite_norm_bound,
    separability_thresholds,
    triple_sum_bound,
    tripartite_norm_bound,
)
from .sampling import (
    SEPARABLE_MEMBERS,
    _check_separable,
    _check_seed,
    _ginibre_densities,
    _haar_amplitudes,
    _separable_draws,
    _split_layout,
    sample_seed,
)
from .states import (
    DensityMatrix,
    _check_amplitudes,
    _check_densities,
    _check_dims,
    _check_int,
    _check_real,
    _check_weights,
    _dense_bytes,
    _partial_trace,
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

#: Byte budget of one sweep chunk, in the units of ``states.MAX_DENSE_BYTES``:
#: a chunk holds as many samples as this many bytes of their dense arrays
#: allow, and at least one. That is 6 samples at d=3, n=4, 56 at d=3, n=3,
#: 160 at d=2, n=4 and 1 at d=4, n=4. The transient arrays of a chunk take a
#: small multiple of the budget, so the memory a sweep needs does not grow
#: with ``count``: a d=3, n=4 pure sweep with every check peaks at 5.8 times
#: the budget (``tracemalloc``), where the separable members' three-party
#: blocks are contracted while the samples' stack and coefficients are held.
CHUNK_BYTES = 5 << 17


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
            rank = _check_int(self.rank, "rank")
            if not 1 <= rank <= d**n:
                raise ValueError(f"rank must lie in 1..{d**n}, got {rank}")

    def draw(self, index) -> DensityMatrix:
        """Sample ``index`` of this spec, the state the sweep checks under that index."""
        return DensityMatrix(
            self._draw([sample_seed(self.base_seed, index)])[0],
            self.local_dim,
            self.num_parties,
        )

    def _draw(self, seeds) -> np.ndarray:
        """Density matrices of the given per-sample seeds, as one unvalidated stack."""
        d, n = self.local_dim, self.num_parties
        if self.kind == PURE_HAAR:
            return _projectors(_haar_amplitudes(d, n, seeds))
        return _ginibre_densities(d, n, self.rank or d**n, seeds)


def _projectors(vectors):
    """``|v><v|`` of every vector of a stack, over its last axis."""
    return vectors[..., :, None] * vectors.conj()[..., None, :]


@dataclass(frozen=True)
class CheckOutcome:
    """Worst case of one check over a sweep.

    ``worst_index`` is the first sample attaining ``max_observed`` (the
    first NaN, if any) and ``worst_seed`` its per-sample seed: for a
    per-sample check ``spec.draw(worst_index)`` replays the state, and for
    a ``separable-*`` check
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
    spec: SampleSpec
    checks: tuple
    passed: bool

    def outcome(self, name) -> CheckOutcome:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)


class _Chunk:
    """A chunk of consecutive samples; its states and their Bloch data are built on first use.

    Building ``rho`` validates what the chunk draws, once: the amplitude
    rows of a pure-haar chunk (the projectors of valid vectors are valid
    states), the matrices of a mixed one. It keeps the purities of the
    stack as ``purities``. Nothing derived from ``rho`` is validated again.
    ``separable`` holds the four-party squared norms of the constructed
    mixtures of every class in ``labels``, drawn together, not their tensors.
    """

    def __init__(self, spec, seeds, labels):
        self.spec = spec
        self.seeds = seeds
        self.labels = labels

    @cached_property
    def rho(self):
        d, n = self.spec.local_dim, self.spec.num_parties
        if self.spec.kind == PURE_HAAR:
            amps = _haar_amplitudes(d, n, self.seeds)
            _check_amplitudes(amps)
            rho = _projectors(amps)
            self.purities = _purities(rho)
        else:
            rho = self.spec._draw(self.seeds)
            self.purities = _check_densities(rho)
        return rho

    @cached_property
    def coeffs(self):
        return _coefficients(self.rho, self.spec.local_dim, self.spec.num_parties)

    @cached_property
    def norms(self):
        return _subset_norms(self.coeffs, self.spec.num_parties)

    @cached_property
    def order_sums(self):
        return _sums_by_order(self.norms, self.spec.num_parties)

    @cached_property
    def separable(self):
        tensors = _separable_tensors(self.spec.local_dim, self.labels, self.seeds, SEPARABLE_MEMBERS)
        return {label: _squared_norms(tensor) for label, tensor in tensors.items()}


def _max_order_norm(ctx, size):
    return np.max([norm_sq for s, norm_sq in ctx.norms.items() if len(s) == size], axis=0)


def _purity_gap(ctx):
    d, n = ctx.spec.local_dim, ctx.spec.num_parties
    # ctx.norms builds and validates ctx.rho, which sets ctx.purities
    return np.abs(_purity_from_norms(d, n, ctx.norms) - ctx.purities)


def _marginal_purity_gap(ctx):
    """Largest purity gap between a one-party marginal and its complement.

    The marginals of validated states are measured, not validated: a wrong
    marginal shows as a gap.
    """
    d, n = ctx.spec.local_dim, ctx.spec.num_parties
    gap = np.zeros(len(ctx.rho))
    for i in range(1, n + 1):
        rest = tuple(p for p in range(1, n + 1) if p != i)
        one = _purities(_partial_trace(ctx.rho, d, n, (i,)))
        others = _purities(_partial_trace(ctx.rho, d, n, rest))
        gap = np.maximum(gap, np.abs(one - others))
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


def _separable_tensors(d, labels, seeds, members):
    """Flat ``T^(1234)`` of constructed separable mixtures: class -> one row per seed.

    The members of all classes in ``labels`` are drawn together and
    validated where they are drawn, once per stack: their weights (the
    same for every class) on the simplex, and per block party count ``k``
    the finite, normalized vectors of every class's k-party blocks, which
    one ``_coefficients`` pass turns into block tensors. A member's tensor is the party-permuted outer
    product of its blocks' tensors, so a mixture's tensor is
    ``sum_s perm_s((A w_s)^T @ B)`` with ``A`` the outer product of all
    blocks but the last, ``B`` the last block's tensor and ``w_s`` the
    weights of the members that picked split ``s``. No ``d^4 x d^4``
    matrix is formed.
    """
    weights, picks, stacks, slots = _separable_draws(d, labels, seeds, members)
    _check_weights(weights)
    count = len(seeds)
    block_tensors = {}
    for k, stack in stacks.items():
        _check_amplitudes(stack.reshape(-1, d**k))
        coeffs = _coefficients(_projectors(stack), d, k)[(slice(None),) + (slice(1, None),) * k]
        block_tensors[k] = coeffs.reshape(count, stack.shape[1], -1)
    tensors = {}
    for c, label in enumerate(labels):
        blocks = [block_tensors[k][:, start : start + members] for k, start in slots[c]]
        head = blocks[0]
        for block in blocks[1:-1]:
            head = (head[..., :, None] * block[..., None, :]).reshape(count, members, -1)
        total = np.zeros((count,) + (d * d - 1,) * 4)
        for split, order in enumerate(_split_layout(d, label)[1]):
            picked = np.where(picks[:, c] == split, weights, 0.0)
            mixed = (head * picked[..., None]).swapaxes(-1, -2) @ blocks[-1]
            total += mixed.reshape(total.shape).transpose(0, *(1 + axis for axis in order))
        tensors[label] = total.reshape(count, -1)
    return tensors


def separable_tensor(d, label, seed, members: int = SEPARABLE_MEMBERS) -> BlochTensor:
    """``T^(1234)`` of ``random_separable(d, label, seed, members)``, from its member blocks.

    The same code the ``separable-*`` sweep checks run on a chunk, at one
    seed and one class: ``tensor_norm_sq(separable_tensor(d, label,
    worst_seed))`` is such a check's ``max_observed``, bit for bit.
    """
    d, seed, members = _check_separable(d, label, seed, members)
    row = _separable_tensors(d, (label,), [seed], members)[label][0]
    return BlochTensor((1, 2, 3, 4), d, row)


@dataclass(frozen=True)
class _Check:
    name: str
    description: str
    arities: tuple
    pure_only: bool
    tol: float
    evaluate: object  # chunk -> observed value per sample
    bound: object  # spec -> bound the value must stay below
    separable: str | None = None  # the class whose mixtures the check draws, if any


_CHECKS = (
    _Check(
        "ball-radius",
        "largest one-party squared norm stays within the outer Bloch radius",
        (1, 2, 3, 4),
        False,
        BOUND_TOL,
        evaluate=lambda ctx: _max_order_norm(ctx, 1),
        bound=lambda spec: 2.0 * (1.0 - 1.0 / spec.local_dim),
    ),
    _Check(
        "bipartite-norm-bound",
        "largest two-party squared norm respects the bipartite cap",
        (2, 3, 4),
        False,
        BOUND_TOL,
        evaluate=lambda ctx: _max_order_norm(ctx, 2),
        bound=lambda spec: bipartite_norm_bound(spec.local_dim),
    ),
    _Check(
        "tripartite-norm-bound",
        "largest three-party squared norm respects the tripartite cap",
        (3, 4),
        False,
        BOUND_TOL,
        evaluate=lambda ctx: _max_order_norm(ctx, 3),
        bound=lambda spec: tripartite_norm_bound(spec.local_dim),
    ),
    _Check(
        "fourpartite-norm-bound",
        "the four-party squared norm respects the four-party cap",
        (4,),
        False,
        BOUND_TOL,
        evaluate=lambda ctx: _max_order_norm(ctx, 4),
        bound=lambda spec: fourpartite_norm_bound(spec.local_dim),
    ),
    _Check(
        "triple-norm-tradeoff",
        "the summed three-party squared norms respect their joint cap",
        (4,),
        False,
        BOUND_TOL,
        evaluate=lambda ctx: ctx.order_sums[3],
        bound=lambda spec: triple_sum_bound(spec.local_dim),
    ),
    _Check(
        "purity-identity",
        "purity recomputed from tensor norms matches the direct trace",
        (1, 2, 3, 4),
        False,
        BOUND_TOL,
        evaluate=_purity_gap,
        bound=lambda spec: 0.0,
    ),
    _Check(
        "marginal-purity",
        "one-party and complementary marginals of a pure state share purity",
        (3, 4),
        True,
        BOUND_TOL,
        evaluate=_marginal_purity_gap,
        bound=lambda spec: 0.0,
    ),
    _Check(
        "pure-pair-sum-rule",
        "pure three-party states satisfy the one/two-party norm sum rule",
        (3,),
        True,
        BOUND_TOL,
        evaluate=lambda ctx: np.abs(_pair_rule_residual(ctx.spec.local_dim, ctx.order_sums)),
        bound=lambda spec: 0.0,
    ),
    _Check(
        "pure-triple-sum-rule",
        "pure four-party states satisfy the one/two/three-party norm sum rule",
        (4,),
        True,
        BOUND_TOL,
        evaluate=lambda ctx: np.abs(_triple_rule_residual(ctx.spec.local_dim, ctx.order_sums)),
        bound=lambda spec: 0.0,
    ),
    _Check(
        "reconstruction-round-trip",
        "decompose-then-reconstruct reproduces the state",
        (1, 2, 3, 4),
        False,
        ROUND_TRIP_TOL,
        evaluate=_round_trip_error,
        bound=lambda spec: 0.0,
    ),
    *(
        _Check(
            f"separable-{label}",
            f"constructed {label} separable mixtures stay below their threshold",
            (4,),
            False,
            BOUND_TOL,
            evaluate=lambda ctx, label=label: ctx.separable[label],
            bound=lambda spec, label=label: (
                separability_thresholds(spec.local_dim).for_class(label)
            ),
            separable=label,
        )
        for label in ("1-3", "2-2", "1-1-2", "1-1-1-1")
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


def _chunk_size(spec):
    """Samples per chunk: as many as ``CHUNK_BYTES`` holds dense arrays of the spec's size."""
    return max(1, CHUNK_BYTES // _dense_bytes(spec.local_dim, spec.num_parties))


def run_sweep(spec: SampleSpec, checks=None, tol: float | None = None) -> SweepReport:
    """Evaluate the requested checks on ``spec.count`` seeded samples.

    ``checks=None`` selects every check applicable to the spec; requesting
    no check, a check by name that does not apply or a check twice raises
    ValueError. ``tol``, a finite real number, overrides every check's own
    tolerance when given.
    The ``separable-*`` checks draw their own class-constrained mixtures
    (same count and seed schedule, all selected classes from one read of
    each stream) instead of using the spec's ensemble kind. A drawn sample or member
    that fails validation raises ValueError; a derived value that breaks
    fails its check instead.
    """
    if tol is not None:
        tol = _check_real(tol, "comparison tolerance")
    if checks is None:
        selected = [check for check in _CHECKS if _applicable(check, spec)]
    else:
        selected = []
        for name in checks:
            check = _BY_NAME.get(name)
            if check is None:
                raise ValueError(
                    f"unknown check {name!r}; available: {', '.join(_BY_NAME)}"
                )
            if not _applicable(check, spec):
                raise ValueError(
                    f"check {name!r} does not apply to kind={spec.kind!r}, "
                    f"n={spec.num_parties}"
                )
            if check in selected:
                raise ValueError(f"check {name!r} is requested more than once")
            selected.append(check)
        if not selected:
            raise ValueError("no checks requested")
    if not selected:
        raise ValueError("no applicable checks for this sample spec")
    labels = tuple(check.separable for check in selected if check.separable)

    # check name -> (index, value) of its worst sample so far
    worst = {check.name: (0, -math.inf) for check in selected}
    size = _chunk_size(spec)
    for start in range(0, spec.count, size):
        indices = range(start, min(start + size, spec.count))
        ctx = _Chunk(spec, [sample_seed(spec.base_seed, i) for i in indices], labels)
        for check in selected:
            values = check.evaluate(ctx)
            i = int(np.argmax(values))  # the first NaN, else the first maximum
            value = float(values[i])
            best = worst[check.name][1]
            # a NaN found earlier stays; otherwise a NaN or a strictly larger value replaces it
            if not math.isnan(best) and not value <= best:
                worst[check.name] = (indices[i], value)

    outcomes = []
    for check in selected:
        check_tol = tol if tol is not None else check.tol
        index, value = worst[check.name]
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
                sample_seed(spec.base_seed, index),
            )
        )
    return SweepReport(spec, tuple(outcomes), all(o.passed for o in outcomes))
