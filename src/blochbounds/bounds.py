"""Closed-form norm bounds, separability thresholds, classification, and the
tensor-norm entanglement measure.

All bounds refer to the squared Frobenius norm of correlation tensors in the
generator normalization Tr(G_i G_j) = 2 delta_ij. The thresholds give
necessary conditions only: a state whose norm exceeds a class threshold
cannot belong to that class, but staying below every threshold proves
nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .bloch import _subset_norms, _sums_by_order, bloch_tensor, full_decomposition, tensor_norm_sq
from .states import DensityMatrix, PureState, _check_local_dim, _check_tol, from_pure

__all__ = [
    "COMPARISON_TOL",
    "CLASS_LABELS",
    "NECESSARY_ONLY_NOTE",
    "ball_radii",
    "bipartite_norm_bound",
    "tripartite_norm_bound",
    "fourpartite_norm_bound",
    "triple_sum_bound",
    "BoundTable",
    "bound_table",
    "separability_thresholds",
    "ClassificationReport",
    "classify",
    "et_measure",
    "et_upper_bound",
    "et_upper_bound_via_norm_bound",
    "et_bound_audit",
    "TradeoffResult",
    "tradeoff_check",
]

COMPARISON_TOL = 1e-9

NECESSARY_ONLY_NOTE = (
    "Norm thresholds are necessary conditions only: exceeding a class bound "
    "excludes that class, but staying below it never certifies separability."
)


def _closed_form(formula):
    """``formula`` at a checked ``d``; ValueError naming ``d`` if its value is not a finite float."""

    @functools.wraps(formula)
    def evaluate(d, *args, **kwargs):
        d = _check_local_dim(d)
        try:
            value = formula(d, *args, **kwargs)
        except OverflowError:
            value = math.inf
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"d={d} is too large: {formula.__name__} is not a finite float there")
        return value

    return evaluate


@_closed_form
def _one_party_cap(d) -> float:
    """Largest possible squared norm of a one-party tensor (a Bloch vector): 2(1 - 1/d)."""
    return 2.0 * (1.0 - 1.0 / d)


@_closed_form
def ball_radii(d):
    """Inner and outer radii (r, R) of the single-qudit Bloch body.

    Every valid Bloch vector has norm at most R = sqrt(2(1 - 1/d)), and
    every vector of norm at most r = sqrt(2/(d(d-1))) yields a valid state.
    """
    return math.sqrt(2.0 / (d * (d - 1))), math.sqrt(_one_party_cap(d))


@_closed_form
def bipartite_norm_bound(d) -> float:
    """Largest possible squared norm of a two-party tensor: 4(d^2 - 1)/d^2."""
    return 4.0 * (d * d - 1) / (d * d)


@_closed_form
def tripartite_norm_bound(d) -> float:
    """Largest possible squared norm of a three-party tensor: (8d^3 - 24d + 16)/d^3."""
    return (8.0 * d**3 - 24.0 * d + 16.0) / d**3


@_closed_form
def fourpartite_norm_bound(d) -> float:
    """Largest possible squared norm of a four-party tensor: 16(d^2 - 1)^2/d^4."""
    return 16.0 * (d * d - 1) ** 2 / d**4


#: k -> the closed form of the largest squared norm of a k-party tensor, k = 1..4.
_NORM_CAPS = {
    1: _one_party_cap,
    2: bipartite_norm_bound,
    3: tripartite_norm_bound,
    4: fourpartite_norm_bound,
}


#: Four-party separability class -> the closed form of its cap on the four-party squared
#: norm, in ascending-cap order. Each cap is the largest, over the class's splits, of the
#: product of the block caps ``_NORM_CAPS[|B|]``; the closed forms differ from those
#: products in the last bits. The 2-2 cap is the unconditional four-party cap itself.
_CLASS_CAPS = {
    "1-1-1-1": lambda d: 16.0 / d**4 * (d - 1) ** 4,
    "1-1-2": lambda d: 16.0 / d**4 * (d * d - 1) * (d - 1) ** 2,
    "1-3": lambda d: 16.0 / d**4 * (d - 1) * (d**3 - 3 * d + 2),
    "2-2": fourpartite_norm_bound,
}

#: Separability class labels in ascending threshold order.
CLASS_LABELS = tuple(_CLASS_CAPS)


@_closed_form
def separability_thresholds(d) -> dict:
    """Class label -> cap on the four-party squared norm of the class's separable states,
    in ``CLASS_LABELS`` order."""
    return {label: cap(d) for label, cap in _CLASS_CAPS.items()}


@_closed_form
def triple_sum_bound(d) -> float:
    """Joint cap on the four three-party squared norms of a four-party state.

    The sum over all triples is at most 8(d^2 - 1)^3 / (d^3 (d^2 - 2)). Only at
    d = 2 and 3 is that below four times the single-triple bound; from d = 4 on
    it exceeds that sum (30.13 against 27.0 at d = 4) and adds no constraint.

    The largest sums known are well below the cap: 8 at d = 2 (the
    Higuchi-Sudbery state, 13.5 allowed) and ``32 (d - 1)^3 / d^3`` from a
    pure product state at d >= 3 (256/27 at d = 3, which AME(4,3) ties).
    Whether the cap is tight, or the state that reaches it exists, is open.
    """
    return 8.0 * (d * d - 1) ** 3 / (d**3 * (d * d - 2))


@dataclass(frozen=True)
class BoundTable:
    """All closed-form bounds for one local dimension."""

    local_dim: int
    bipartite_bound: float
    tripartite_bound: float
    fourpartite_bound: float
    tradeoff_bound: float
    ball_radii: tuple


def bound_table(d) -> BoundTable:
    d = _check_local_dim(d)
    return BoundTable(
        local_dim=d,
        bipartite_bound=bipartite_norm_bound(d),
        tripartite_bound=tripartite_norm_bound(d),
        fourpartite_bound=fourpartite_norm_bound(d),
        tradeoff_bound=triple_sum_bound(d),
        ball_radii=ball_radii(d),
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of the four-party norm classification.

    ``thresholds`` is ``separability_thresholds(d)``, class label -> cap.
    ``margins`` holds the unclipped difference norm - threshold per class,
    in ``CLASS_LABELS`` order; ``excluded`` contains exactly the classes
    whose margin exceeds the comparison tolerance.
    """

    local_dim: int
    norm_sq_1234: float
    thresholds: dict
    margins: dict
    excluded: frozenset
    verdict_note: str = field(default=NECESSARY_ONLY_NOTE)


def classify(rho: DensityMatrix, tol: float = COMPARISON_TOL) -> ClassificationReport:
    """Rule out every separability class whose threshold the norm exceeds.

    Raises ValueError unless ``rho`` has exactly four parties and ``tol`` is
    positive and finite. Nothing is ever reported as separable; see ``NECESSARY_ONLY_NOTE``.
    Nor is 2-2 ever excluded: its threshold is the unconditional four-party cap
    ``fourpartite_norm_bound(d)``, which no state's norm exceeds.
    """
    if rho.num_parties != 4:
        raise ValueError(
            f"classification needs a four-party state, got n={rho.num_parties}"
        )
    tol = _check_tol(tol)
    norm_sq = tensor_norm_sq(bloch_tensor(rho, (1, 2, 3, 4)))
    thresholds = separability_thresholds(rho.local_dim)
    margins = {label: norm_sq - cap for label, cap in thresholds.items()}
    excluded = frozenset(label for label, margin in margins.items() if margin > tol)
    return ClassificationReport(rho.local_dim, norm_sq, thresholds, margins, excluded)


def et_measure(psi: PureState) -> float:
    """Tensor-norm entanglement measure of a pure n-party state.

    Evaluates ``(d^n / 2^n) ||T|| - (d(d-1)/2)^(n/2)`` with T the full
    n-party tensor. The raw value is returned; it can be negative for weakly
    correlated states, and callers wanting a floor should clamp at zero.

    Raises TypeError for density-matrix input (the measure is defined for
    pure states) and ValueError for single-party states.
    """
    if isinstance(psi, DensityMatrix):
        raise TypeError("mixed states are not supported; pass a PureState")
    if not isinstance(psi, PureState):
        raise TypeError(f"expected a PureState, got {type(psi).__name__}")
    d, n = psi.local_dim, psi.num_parties
    full = tuple(range(1, n + 1))
    return _measure_from_norm_sq(d, n, tensor_norm_sq(bloch_tensor(from_pure(psi), full)))


def _measure_from_norm_sq(d, n, norm_sq):
    """``(d^n / 2^n) sqrt(norm_sq) - (d(d-1)/2)^(n/2)``, shared by every measure route."""
    if n < 2:
        raise ValueError("the measure needs at least two parties")
    return (d**n / 2**n) * math.sqrt(norm_sq) - (d * (d - 1) / 2.0) ** (n / 2.0)


@_closed_form
def et_upper_bound(d, n) -> float:
    """Largest measure value attainable by a pure state, in closed form.

    Defined for n = 3 and n = 4:
    ``sqrt(d^3 (d-1)^2 / 8) (sqrt(d+2) - sqrt(d-1))`` and ``d^2 (d-1)/2``.
    """
    if n == 3:
        return math.sqrt(d**3 * (d - 1) ** 2 / 8.0) * (
            math.sqrt(d + 2) - math.sqrt(d - 1)
        )
    if n == 4:
        return d * d * (d - 1) / 2.0
    raise ValueError(f"the measure bound is defined for n in (3, 4), got {n}")


@_closed_form
def et_upper_bound_via_norm_bound(d, n) -> float:
    """The same bound obtained by feeding the norm cap through the measure.

    Evaluates ``(d^n / 2^n) sqrt(cap) - (d(d-1)/2)^(n/2)`` with the three-
    or four-party norm cap. Algebraically identical to ``et_upper_bound``
    for every d; both routes are kept so reports can show the agreement
    instead of asserting it silently.
    """
    if n not in (3, 4):
        raise ValueError(f"the measure bound is defined for n in (3, 4), got {n}")
    return _measure_from_norm_sq(d, n, _NORM_CAPS[n](d))


def et_bound_audit(d) -> dict:
    """Both evaluation routes of the measure bounds, with their differences.

    Keys are the party counts 3 and 4; each value reports the closed form,
    the norm-cap route and their (tiny) difference.
    """
    d = _check_local_dim(d)
    audit = {}
    for n in (3, 4):
        closed = et_upper_bound(d, n)
        via = et_upper_bound_via_norm_bound(d, n)
        audit[n] = {
            "closed_form": closed,
            "via_norm_bound": via,
            "difference": closed - via,
        }
    return audit


class TradeoffResult(NamedTuple):
    sum_sq: float
    bound: float
    satisfied: bool
    per_triple: dict  # party triple -> its squared norm, in ascending triple order


def tradeoff_check(rho: DensityMatrix, tol: float = COMPARISON_TOL) -> TradeoffResult:
    """Sum of the four three-party squared norms against their joint cap.

    All four norms come from one decomposition of ``rho`` and are returned
    in ``per_triple``. Raises ValueError unless ``rho`` has four parties and
    ``tol`` is positive and finite.
    """
    if rho.num_parties != 4:
        raise ValueError(
            f"the trade-off applies to four-party states, got n={rho.num_parties}"
        )
    tol = _check_tol(tol)
    norms = _subset_norms(full_decomposition(rho).coefficients[None], 4)
    per_triple = {t: float(norm_sq[0]) for t, norm_sq in norms.items() if len(t) == 3}
    total = float(_sums_by_order(norms, 4)[3][0])
    bound = triple_sum_bound(rho.local_dim)
    return TradeoffResult(total, bound, total - bound <= tol, per_triple)
