"""Seeded verification sweeps over random states.

A sweep draws ``count`` states from one sample specification and evaluates a
set of named checks on every state, recording the worst case per check. All
reductions are max/all-of, so reports are deterministic for a fixed spec
regardless of evaluation order. A NaN observation makes its check's maximum
NaN, and a NaN maximum fails the check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import (
    bloch_tensor,
    full_decomposition,
    norms_by_order,
    pure_pair_sum_residual,
    pure_triple_sum_residual,
    purity_from_decomposition,
    reconstruct,
    tensor_norm_sq,
)
from .bounds import (
    bipartite_norm_bound,
    fourpartite_norm_bound,
    separability_thresholds,
    triple_sum_bound,
    tripartite_norm_bound,
)
from .sampling import haar_random_pure, random_mixed, random_separable, sample_seed
from .states import _check_dims, from_pure, partial_trace, purity

__all__ = [
    "PURE_HAAR",
    "MIXED_GINIBRE",
    "BOUND_TOL",
    "ROUND_TRIP_TOL",
    "SampleSpec",
    "CheckOutcome",
    "SweepReport",
    "available_checks",
    "run_sweep",
]

PURE_HAAR = "pure-haar"
MIXED_GINIBRE = "mixed-ginibre"

BOUND_TOL = 1e-9
ROUND_TRIP_TOL = 1e-10


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
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")
        _check_dims(self.local_dim, self.num_parties)
        if self.rank is not None:
            if self.kind == PURE_HAAR:
                raise ValueError("rank applies to mixed-ginibre sampling only")
            dim = self.local_dim**self.num_parties
            if not 1 <= self.rank <= dim:
                raise ValueError(f"rank must lie in 1..{dim}, got {self.rank}")

    def draw(self, index):
        seed = sample_seed(self.base_seed, index)
        if self.kind == PURE_HAAR:
            return from_pure(haar_random_pure(self.local_dim, self.num_parties, seed))
        rank = self.rank or self.local_dim**self.num_parties
        return random_mixed(self.local_dim, self.num_parties, rank, seed)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    samples: int
    max_observed: float
    bound: float
    worst_margin: float
    tolerance: float
    passed: bool


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


class _SampleContext:
    """One sampled state plus its lazily computed decomposition."""

    def __init__(self, rho, spec):
        self.rho = rho
        self.spec = spec
        self._decomp = None

    @property
    def decomp(self):
        if self._decomp is None:
            self._decomp = full_decomposition(self.rho)
        return self._decomp


def _nan_max(a, b):
    """``max`` that keeps NaN (built-in ``max`` may drop it), so NaN fails its check."""
    return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)


def _max_order_norm(ctx, size):
    n = ctx.spec.num_parties
    return max(
        tensor_norm_sq(ctx.decomp.tensors[s])
        for s in itertools.combinations(range(1, n + 1), size)
    )


def _marginal_purity_gap(ctx):
    n = ctx.spec.num_parties
    gap = 0.0
    for i in range(1, n + 1):
        rest = tuple(p for p in range(1, n + 1) if p != i)
        gap = max(
            gap,
            abs(
                purity(partial_trace(ctx.rho, (i,)))
                - purity(partial_trace(ctx.rho, rest))
            ),
        )
    return gap


def _round_trip_error(ctx):
    rebuilt = reconstruct(ctx.decomp)
    return float(np.linalg.norm(rebuilt.matrix - ctx.rho.matrix))


@dataclass(frozen=True)
class _Check:
    name: str
    description: str
    arities: tuple
    pure_only: bool
    tol: float
    evaluate: object = None  # ctx -> observed value
    bound: object = None  # spec -> bound the value must stay below
    separable_class: str | None = None


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
        evaluate=lambda ctx: norms_by_order(ctx.decomp)[3],
        bound=lambda spec: triple_sum_bound(spec.local_dim),
    ),
    _Check(
        "purity-identity",
        "purity recomputed from tensor norms matches the direct trace",
        (1, 2, 3, 4),
        False,
        BOUND_TOL,
        evaluate=lambda ctx: abs(purity_from_decomposition(ctx.decomp) - purity(ctx.rho)),
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
        evaluate=lambda ctx: abs(pure_pair_sum_residual(ctx.decomp)),
        bound=lambda spec: 0.0,
    ),
    _Check(
        "pure-triple-sum-rule",
        "pure four-party states satisfy the one/two/three-party norm sum rule",
        (4,),
        True,
        BOUND_TOL,
        evaluate=lambda ctx: abs(pure_triple_sum_residual(ctx.decomp)),
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
    _Check(
        "separable-1-3",
        "constructed 1-3 separable mixtures stay below their threshold",
        (4,),
        False,
        BOUND_TOL,
        separable_class="1-3",
    ),
    _Check(
        "separable-2-2",
        "constructed 2-2 separable mixtures stay below their threshold",
        (4,),
        False,
        BOUND_TOL,
        separable_class="2-2",
    ),
    _Check(
        "separable-1-1-2",
        "constructed 1-1-2 separable mixtures stay below their threshold",
        (4,),
        False,
        BOUND_TOL,
        separable_class="1-1-2",
    ),
    _Check(
        "separable-1-1-1-1",
        "constructed 1-1-1-1 separable mixtures stay below their threshold",
        (4,),
        False,
        BOUND_TOL,
        separable_class="1-1-1-1",
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


def _run_separable(check, spec, tol):
    threshold = separability_thresholds(spec.local_dim).for_class(check.separable_class)
    worst = float("-inf")
    for i in range(spec.count):
        rho = random_separable(
            spec.local_dim, check.separable_class, sample_seed(spec.base_seed, i)
        )
        worst = _nan_max(worst, tensor_norm_sq(bloch_tensor(rho, (1, 2, 3, 4))))
    margin = worst - threshold
    return CheckOutcome(
        check.name, spec.count, worst, threshold, margin, tol, margin <= tol
    )


def run_sweep(spec: SampleSpec, checks=None, tol: float | None = None) -> SweepReport:
    """Evaluate the requested checks on ``spec.count`` seeded samples.

    ``checks=None`` selects every check applicable to the spec; requesting
    a check by name that does not apply raises ValueError. ``tol`` overrides
    every check's own tolerance when given. The ``separable-*`` checks draw
    their own class-constrained mixtures (same count and seed schedule)
    instead of using the spec's ensemble kind.
    """
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
            selected.append(check)
    if not selected:
        raise ValueError("no applicable checks for this sample spec")

    per_sample = [check for check in selected if check.separable_class is None]
    worst = {check.name: float("-inf") for check in per_sample}
    if per_sample:
        for i in range(spec.count):
            ctx = _SampleContext(spec.draw(i), spec)
            for check in per_sample:
                worst[check.name] = _nan_max(worst[check.name], check.evaluate(ctx))

    outcomes = []
    for check in selected:
        check_tol = tol if tol is not None else check.tol
        if check.separable_class is not None:
            outcomes.append(_run_separable(check, spec, check_tol))
            continue
        bound = check.bound(spec)
        margin = worst[check.name] - bound
        outcomes.append(
            CheckOutcome(
                check.name,
                spec.count,
                worst[check.name],
                bound,
                margin,
                check_tol,
                margin <= check_tol,
            )
        )
    return SweepReport(spec, tuple(outcomes), all(o.passed for o in outcomes))
