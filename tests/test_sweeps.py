import math

import pytest

from blochbounds import sweeps
from blochbounds import (
    MIXED_GINIBRE,
    PURE_HAAR,
    SampleSpec,
    available_checks,
    run_sweep,
)


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(2, 3, "haphazard", 10, 0)
    with pytest.raises(ValueError):
        SampleSpec(2, 3, PURE_HAAR, 0, 0)
    with pytest.raises(ValueError):
        SampleSpec(1, 3, PURE_HAAR, 10, 0)
    with pytest.raises(ValueError):
        SampleSpec(2, 5, PURE_HAAR, 10, 0)
    with pytest.raises(ValueError):
        SampleSpec(2, 3, PURE_HAAR, 10, 0, rank=4)  # rank is mixed-only
    with pytest.raises(ValueError):
        SampleSpec(2, 3, MIXED_GINIBRE, 10, 0, rank=9)  # above d^n


@pytest.mark.parametrize("d,n", [(2.5, 2), (True, 2), (2, 2.0)])
def test_sample_spec_rejects_non_integer_dimensions(d, n):
    with pytest.raises(ValueError, match="must be an integer"):
        SampleSpec(d, n, PURE_HAAR, 10, 0)


def test_nan_observation_fails_its_check(monkeypatch):
    # a NaN on a middle sample must survive the max reduction over samples
    original = sweeps._max_order_norm
    calls = []

    def flaky(ctx, size):
        calls.append(size)
        return math.nan if len(calls) == 2 else original(ctx, size)

    monkeypatch.setattr(sweeps, "_max_order_norm", flaky)
    report = run_sweep(SampleSpec(2, 3, PURE_HAAR, 5, 0), checks=["ball-radius"])
    outcome = report.outcome("ball-radius")
    assert len(calls) == 5
    assert math.isnan(outcome.max_observed)
    assert not outcome.passed
    assert not report.passed


def test_available_checks_filtering():
    pure3 = available_checks(SampleSpec(2, 3, PURE_HAAR, 10, 0))
    mixed3 = available_checks(SampleSpec(2, 3, MIXED_GINIBRE, 10, 0))
    assert "marginal-purity" in pure3 and "pure-pair-sum-rule" in pure3
    assert "marginal-purity" not in mixed3 and "pure-pair-sum-rule" not in mixed3
    assert "fourpartite-norm-bound" not in pure3
    pure2 = available_checks(SampleSpec(2, 2, PURE_HAAR, 10, 0))
    assert "tripartite-norm-bound" not in pure2
    assert "bipartite-norm-bound" in pure2
    assert set(mixed3) <= set(available_checks())


def test_unknown_or_inapplicable_checks_rejected():
    spec = SampleSpec(2, 3, PURE_HAAR, 5, 0)
    with pytest.raises(ValueError, match="unknown check"):
        run_sweep(spec, checks=["perpetual-motion"])
    with pytest.raises(ValueError, match="does not apply"):
        run_sweep(spec, checks=["fourpartite-norm-bound"])
    mixed = SampleSpec(2, 3, MIXED_GINIBRE, 5, 0)
    with pytest.raises(ValueError, match="does not apply"):
        run_sweep(mixed, checks=["marginal-purity"])


def test_sweep_determinism():
    spec = SampleSpec(2, 3, PURE_HAAR, 40, base_seed=123)
    first = run_sweep(spec)
    second = run_sweep(spec)
    assert first == second
    shifted = run_sweep(SampleSpec(2, 3, PURE_HAAR, 40, base_seed=124))
    assert shifted != first


@pytest.mark.parametrize(
    "spec",
    [
        SampleSpec(2, 2, PURE_HAAR, 50, 1),
        SampleSpec(2, 3, PURE_HAAR, 50, 2),
        SampleSpec(2, 3, MIXED_GINIBRE, 50, 3),
        SampleSpec(3, 3, PURE_HAAR, 30, 4),
        SampleSpec(2, 4, PURE_HAAR, 30, 5),
        SampleSpec(2, 4, MIXED_GINIBRE, 30, 6, rank=5),
        SampleSpec(3, 4, PURE_HAAR, 10, 7),
        SampleSpec(3, 1, MIXED_GINIBRE, 50, 8),
    ],
)
def test_default_sweeps_pass(spec):
    report = run_sweep(spec)
    assert report.passed
    for outcome in report.checks:
        assert outcome.samples == spec.count
        assert outcome.worst_margin <= outcome.tolerance


@pytest.mark.parametrize("label", ["1-3", "2-2", "1-1-2", "1-1-1-1"])
def test_separable_class_checks_pass(label):
    spec = SampleSpec(2, 4, PURE_HAAR, 30, base_seed=11)
    report = run_sweep(spec, checks=[f"separable-{label}"])
    assert report.passed
    outcome = report.outcome(f"separable-{label}")
    assert outcome.max_observed <= outcome.bound + 1e-9


def test_separable_checks_pass_for_qutrits():
    spec = SampleSpec(3, 4, PURE_HAAR, 10, base_seed=12)
    report = run_sweep(spec, checks=["separable-2-2", "separable-1-3"])
    assert report.passed


def test_tolerance_override_can_fail_identity_checks():
    # residuals of the identity checks are tiny but nonzero, so an absurdly
    # small tolerance turns them into honest failures
    spec = SampleSpec(2, 3, PURE_HAAR, 10, base_seed=5)
    report = run_sweep(spec, checks=["purity-identity"], tol=1e-30)
    assert not report.passed


def test_outcome_lookup():
    spec = SampleSpec(2, 2, PURE_HAAR, 10, base_seed=9)
    report = run_sweep(spec)
    assert report.outcome("bipartite-norm-bound").name == "bipartite-norm-bound"
    with pytest.raises(KeyError):
        report.outcome("no-such-check")


def test_round_trip_check_uses_tighter_tolerance():
    spec = SampleSpec(2, 2, PURE_HAAR, 5, base_seed=13)
    report = run_sweep(spec, checks=["reconstruction-round-trip"])
    assert report.outcome("reconstruction-round-trip").tolerance == 1e-10
    assert report.passed
