import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from blochbounds import sweeps
from blochbounds import (
    MIXED_GINIBRE,
    PURE_HAAR,
    SEPARABLE_SPLITS,
    DensityMatrix,
    SampleSpec,
    available_checks,
    bloch_tensor,
    from_pure,
    ghz,
    haar_random_pure,
    product_state,
    random_separable,
    run_sweep,
    sample_seed,
    separable_tensor,
    tensor_norm_sq,
)
from blochbounds.bounds import _NORM_CAPS
from blochbounds.cli import main
from conftest import (
    CLASS_SPLITS,
    SMALL_CLASSES,
    oracle_check_value,
    oracle_sample_value,
    party_count,
    same_bytes,
    separable_densities,
    separable_tensors_by_slice,
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


@pytest.mark.parametrize(
    "field,value",
    [
        ("count", 2.5),
        ("count", True),
        ("base_seed", 1.5),
        ("base_seed", "7"),
        ("base_seed", -1),
        ("base_seed", 2**64),
        ("rank", 2.5),
        ("rank", True),
    ],
)
def test_sample_spec_rejects_non_integer_counts_seeds_and_ranks(field, value):
    fields = {"count": 10, "base_seed": 0, "rank": 2}
    fields[field] = value
    with pytest.raises(ValueError, match="must be an integer"):
        SampleSpec(2, 2, MIXED_GINIBRE, **fields)


def test_sample_spec_refuses_sizes_over_the_dense_cap():
    with pytest.raises(ValueError, match="above the cap"):
        SampleSpec(1000, 4, PURE_HAAR, 1, 0)


def _chunk_size(spec, names=None):
    """Samples per chunk of ``run_sweep(spec, names)``; ``None`` selects every applicable check."""
    names = available_checks(spec) if names is None else names
    return sweeps._chunk_size(spec, [sweeps._BY_NAME[name] for name in names])


def test_nan_observation_fails_its_check(monkeypatch):
    # a NaN on one sample must survive the max within its chunk and across chunks:
    # on a middle sample of the first chunk, and on the first sample of the second
    size = _chunk_size(SampleSpec(2, 3, PURE_HAAR, 1, 0), ["ball-radius"])
    spec = SampleSpec(2, 3, PURE_HAAR, size + 3, 0)
    original = sweeps._max_order_norm
    for target in (size // 2, size):
        target_seed = sample_seed(spec.base_seed, target)
        chunks = []

        def flaky(ctx, order):
            chunks.append(len(ctx.seeds))
            values = original(ctx, order).copy()
            if target_seed in ctx.seeds:
                values[ctx.seeds.index(target_seed)] = math.nan
            return values

        monkeypatch.setattr(sweeps, "_max_order_norm", flaky)
        report = run_sweep(spec, checks=["ball-radius"])
        outcome = report.outcome("ball-radius")
        assert chunks == [size, 3]
        assert math.isnan(outcome.max_observed)
        assert outcome.worst_index == target and outcome.worst_seed == target_seed
        assert not outcome.passed
        assert not report.passed


def test_sweep_validates_every_state_it_builds(monkeypatch):
    # per chunk the sweep validates what it draws, once: the separable members of all
    # four classes (the weights they share, and their block vectors as one stack per
    # block size), then the pure samples' amplitude rows (or the mixed samples'
    # matrices). Marginals and reconstructions are measured by their checks, and no dense
    # separable mixture is formed: the only d^4 x d^4 stack contracted is the samples.
    # The block passes keep only the generator entries
    from blochbounds import sampling

    assert not hasattr(sampling, "_check_amplitudes")
    assert not hasattr(sampling, "_check_densities")
    seen = []
    for name in ("_check_densities", "_check_amplitudes", "_check_weights", "_coefficients"):
        original = getattr(sweeps, name)

        def recording(stack, *args, _original=original, _name=name, **kwargs):
            seen.append((_name, stack.shape, kwargs))
            return _original(stack, *args, **kwargs)

        monkeypatch.setattr(sweeps, name, recording)

    size = _chunk_size(SampleSpec(2, 4, PURE_HAAR, 1, 0))
    # 8 members of each class: k-party blocks per member summed over the four classes
    rows = {k: 8 * sum(
        [len(block) for block in splits[0]].count(k) for splits in SEPARABLE_SPLITS.values()
    ) for k in (1, 2, 3)}
    assert rows == {1: 56, 2: 24, 3: 8}

    def calls(samples):
        # per chunk of b samples: the separable stage, then the samples' own stack
        return [
            call
            for b in (size, 3)
            for call in [("_check_weights", (b, 8), {})]
            + [
                block
                for k in (1, 2, 3)
                for block in [
                    ("_check_amplitudes", (b * rows[k], 2**k), {}),
                    ("_coefficients", (b, rows[k], 2**k, 2**k), {"generators": True}),
                ]
            ]
            + samples(b)
        ]

    run_sweep(SampleSpec(2, 4, PURE_HAAR, size + 3, 41))
    pure = calls(
        lambda b: [("_check_amplitudes", (b, 16), {}), ("_coefficients", (b, 16, 16), {})]
    )
    assert seen == pure

    seen.clear()
    run_sweep(SampleSpec(2, 4, MIXED_GINIBRE, size + 3, 41))
    mixed = calls(
        lambda b: [("_check_densities", (b, 16, 16), {}), ("_coefficients", (b, 16, 16), {})]
    )
    assert seen == mixed


@pytest.mark.parametrize(
    "checks",
    [None, ["separable-2-2", "ball-radius"], ["ball-radius", "separable-2-2"]],
    ids=["all", "separable-listed-first", "separable-listed-last"],
)
def test_a_chunk_builds_its_separable_stage_before_its_states(monkeypatch, checks):
    # the separable stage's arrays are freed before the samples' stack is drawn, so a
    # chunk peaks at the larger of the two stages, not at their sum; the report and
    # its timings keep the order the checks were selected in
    built = []
    original = sweeps._StageClock.run

    def run(clock, stage, build, *args):
        if stage == "separable":
            (chunk,) = args
            built.append("rho" in vars(chunk))
        return original(clock, stage, build, *args)

    monkeypatch.setattr(sweeps._StageClock, "run", run)
    spec = SampleSpec(3, 4, PURE_HAAR, 12, 3)
    report = run_sweep(spec, checks)
    names = available_checks(spec) if checks is None else checks
    assert built == [False] * len(range(0, 12, _chunk_size(spec, names)))
    assert [outcome.name for outcome in report.checks] == names
    assert list(report.timings) == ["rho", "coeffs", "norms", "separable", *names]


def _replays(name, observed, expected):
    """Bit for bit, except the round trip, whose oracle takes a 2-D Frobenius norm."""
    if name == "reconstruction-round-trip":
        return abs(observed - expected) <= 1e-12
    return observed == expected


def _chunk_counts(spec):
    size = _chunk_size(spec)
    return sorted({1, max(size - 1, 1), size, size + 1})


@pytest.mark.parametrize(
    "spec",
    [SampleSpec(3, 4, PURE_HAAR, 1, 21), SampleSpec(2, 3, MIXED_GINIBRE, 1, 22, rank=3)],
    ids=["d3n4-pure", "d2n3-mixed"],
)
def test_sweep_matches_per_sample_oracle_across_chunk_edges(spec):
    for count in _chunk_counts(spec):
        sized = SampleSpec(
            spec.local_dim, spec.num_parties, spec.kind, count, spec.base_seed, spec.rank
        )
        report = run_sweep(sized)
        assert [o.name for o in report.checks] == available_checks(sized)
        for outcome in report.checks:
            values = [oracle_sample_value(sized, outcome.name, i) for i in range(count)]
            assert outcome.samples == count
            assert _replays(outcome.name, outcome.max_observed, max(values)), (count, outcome.name)
            assert _replays(outcome.name, values[outcome.worst_index], max(values))
            assert outcome.worst_seed == sample_seed(spec.base_seed, outcome.worst_index)


def _replayed(spec, outcome):
    """``outcome``'s check value on its worst sample, replayed from its index or its seed."""
    if outcome.name.startswith("separable-"):
        label = outcome.name[len("separable-"):]
        return tensor_norm_sq(separable_tensor(spec.local_dim, label, outcome.worst_seed))
    return oracle_check_value(spec.draw(outcome.worst_index), outcome.name)


@pytest.mark.parametrize("kind", [PURE_HAAR, MIXED_GINIBRE])
def test_worst_sample_replays_its_maximum(kind):
    spec = SampleSpec(2, 4, kind, 40, 31)
    report = run_sweep(spec)
    for outcome in report.checks:
        assert _replays(outcome.name, _replayed(spec, outcome), outcome.max_observed), outcome.name


@pytest.mark.parametrize("kind", [PURE_HAAR, MIXED_GINIBRE])
def test_the_worst_seed_is_the_seed_its_chunk_drew(monkeypatch, kind):
    # chunks and draw hash their seeds in one place; with other seeds there, the report
    # names the seed each worst sample was drawn with, and draw replays it
    original = sweeps._sample_seeds
    monkeypatch.setattr(
        sweeps, "_sample_seeds", lambda base_seed, start, stop: original(base_seed + 1, start, stop)
    )
    spec = SampleSpec(2, 4, kind, 40, 31)
    for outcome in run_sweep(spec).checks:
        assert outcome.worst_seed == sample_seed(spec.base_seed + 1, outcome.worst_index)
        assert _replays(outcome.name, _replayed(spec, outcome), outcome.max_observed), outcome.name


@pytest.mark.parametrize(
    "index, message",
    [
        (5, r"sample index must lie in 0\.\.4, got 5"),
        (-1, r"sample index must lie in 0\.\.4, got -1"),
        (True, "sample index must be an integer, got True"),
        (2.0, "sample index must be an integer, got 2.0"),
    ],
    ids=["past-count", "negative", "bool", "float"],
)
def test_draw_refuses_indices_no_sweep_of_the_spec_checks(index, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SampleSpec(2, 3, PURE_HAAR, 5, 0).draw(index)


def test_draw_accepts_the_last_swept_index():
    state = SampleSpec(2, 3, PURE_HAAR, 5, 0).draw(4)
    expected = from_pure(haar_random_pure(2, 3, sample_seed(0, 4)))
    np.testing.assert_array_equal(state.matrix, expected.matrix)


#: Every default check list, by party count: the checks of a pure sweep, then those of a
#: mixed one. ``bench/run.py`` reads the four-party separable checks in this order.
DEFAULT_CHECKS = {
    1: (
        ["ball-radius", "purity-identity", "reconstruction-round-trip"],
        ["ball-radius", "purity-identity", "reconstruction-round-trip"],
    ),
    2: (
        ["ball-radius", "bipartite-norm-bound", "purity-identity", "reconstruction-round-trip"],
        ["ball-radius", "bipartite-norm-bound", "purity-identity", "reconstruction-round-trip"],
    ),
    3: (
        ["ball-radius", "bipartite-norm-bound", "tripartite-norm-bound", "purity-identity",
         "marginal-purity", "pure-pair-sum-rule", "reconstruction-round-trip"],
        ["ball-radius", "bipartite-norm-bound", "tripartite-norm-bound", "purity-identity",
         "reconstruction-round-trip"],
    ),
    4: (
        ["ball-radius", "bipartite-norm-bound", "tripartite-norm-bound",
         "fourpartite-norm-bound", "triple-norm-tradeoff", "purity-identity",
         "marginal-purity", "pure-triple-sum-rule", "reconstruction-round-trip",
         "separable-1-3", "separable-2-2", "separable-1-1-2", "separable-1-1-1-1"],
        ["ball-radius", "bipartite-norm-bound", "tripartite-norm-bound",
         "fourpartite-norm-bound", "triple-norm-tradeoff", "purity-identity",
         "reconstruction-round-trip",
         "separable-1-3", "separable-2-2", "separable-1-1-2", "separable-1-1-1-1"],
    ),
}


def test_available_checks_filtering():
    for n, lists in DEFAULT_CHECKS.items():
        for kind, expected in zip((PURE_HAAR, MIXED_GINIBRE), lists):
            assert available_checks(SampleSpec(2, n, kind)) == expected
    pure3 = available_checks(SampleSpec(2, 3, PURE_HAAR, 10, 0))
    mixed3 = available_checks(SampleSpec(2, 3, MIXED_GINIBRE, 10, 0))
    assert "marginal-purity" in pure3 and "pure-pair-sum-rule" in pure3
    assert "marginal-purity" not in mixed3 and "pure-pair-sum-rule" not in mixed3
    assert "fourpartite-norm-bound" not in pure3
    pure2 = available_checks(SampleSpec(2, 2, PURE_HAAR, 10, 0))
    assert "tripartite-norm-bound" not in pure2
    assert "bipartite-norm-bound" in pure2
    assert set(mixed3) <= set(available_checks())


@pytest.mark.parametrize("kind", [PURE_HAAR, MIXED_GINIBRE])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
def test_every_spec_has_applicable_checks(d, n, kind):
    # run_sweep has no guard for an empty default selection, which would pass over zero checks
    always = {"ball-radius", "purity-identity", "reconstruction-round-trip"}
    assert always <= set(available_checks(SampleSpec(d, n, kind, 1, 0)))


def test_unknown_or_inapplicable_checks_rejected():
    spec = SampleSpec(2, 3, PURE_HAAR, 5, 0)
    with pytest.raises(ValueError, match="unknown check"):
        run_sweep(spec, checks=["perpetual-motion"])
    with pytest.raises(ValueError, match="does not apply"):
        run_sweep(spec, checks=["fourpartite-norm-bound"])
    mixed = SampleSpec(2, 3, MIXED_GINIBRE, 5, 0)
    with pytest.raises(ValueError, match="does not apply"):
        run_sweep(mixed, checks=["marginal-purity"])


@pytest.mark.parametrize("name", [["ball-radius"], None, 3, b"ball-radius"])
def test_a_check_name_that_is_not_a_string_is_an_unknown_check(name):
    # an unhashable name used to raise TypeError from the name lookup
    with pytest.raises(ValueError, match="^unknown check "):
        run_sweep(SampleSpec(2, 3, PURE_HAAR, 2, 0), checks=[name])


@pytest.mark.parametrize(
    "checks",
    [
        ["ball-radius", "ball-radius"],
        ["ball-radius", "purity-identity", "ball-radius"],
        iter(["purity-identity", "purity-identity"]),
    ],
)
def test_duplicate_checks_rejected(checks):
    # a repeated check used to be evaluated and reported twice
    with pytest.raises(ValueError, match="requested more than once"):
        run_sweep(SampleSpec(2, 3, PURE_HAAR, 5, 0), checks=checks)


@pytest.mark.parametrize("checks", ["ball-radius", "b"])
def test_a_string_of_checks_is_refused_by_name(checks):
    # a string used to be read one character at a time: "unknown check 'b'"
    message = "^checks must be a sequence of check names, not a string$"
    with pytest.raises(ValueError, match=message):
        run_sweep(SampleSpec(2, 3, PURE_HAAR, 2, 0), checks=checks)


@pytest.mark.parametrize(
    "checks",
    [["ball-radius"], ("ball-radius",), iter(["ball-radius"])],
    ids=["list", "tuple", "iterator"],
)
def test_check_sequences_and_iterators_select_the_same_checks(checks):
    report = run_sweep(SampleSpec(2, 3, PURE_HAAR, 2, 0), checks=checks)
    assert [c.name for c in report.checks] == ["ball-radius"] and report.passed


def test_empty_check_selection_has_its_own_message():
    with pytest.raises(ValueError, match="^no checks requested$"):
        run_sweep(SampleSpec(2, 3, PURE_HAAR, 5, 0), checks=[])


def test_sample_spec_refuses_counts_past_the_seed_indices():
    # sample indices 0..count - 1 must be valid sample_seed indices; refused when built
    assert SampleSpec(2, 2, PURE_HAAR, 2**64, 0).count == 2**64
    for count in (2**64 + 1, 10**20):
        with pytest.raises(ValueError, match=r"count must lie in 1\.\.2\*\*64"):
            SampleSpec(2, 2, PURE_HAAR, count, 0)


def test_stage_clock_counts_each_stage_once(monkeypatch):
    ticks = iter(range(10))
    monkeypatch.setattr(sweeps, "perf_counter", lambda: next(ticks))
    clock = sweeps._StageClock(("outer", "inner"))
    # outer starts at 0, inner runs from 1 to 2, outer ends at 3
    assert clock.run("outer", clock.run, "inner", lambda: 7) == 7
    assert clock.seconds == {"inner": 1, "outer": 2}


def test_stage_timings_are_always_reported():
    spec = SampleSpec(3, 4, PURE_HAAR, 8, 5)  # two chunks
    start = time.perf_counter()
    timed = run_sweep(spec)
    elapsed = time.perf_counter() - start
    stages = ["rho", "coeffs", "norms", "separable"]
    assert list(timed.timings) == stages + available_checks(spec)
    assert all(timed.timings[stage] > 0 for stage in stages)
    assert all(seconds >= 0 for seconds in timed.timings.values())
    assert sum(timed.timings.values()) <= elapsed  # no stage is counted inside another
    assert run_sweep(spec) == timed  # reports compare equal whatever their timings
    checks = ["separable-1-3", "ball-radius"]
    assert list(run_sweep(spec, checks=checks).timings) == stages + checks
    # a sweep with no separable check lists every stage too, its own first
    assert list(run_sweep(SampleSpec(2, 3, count=4)).timings)[:4] == stages


def test_stages_no_check_needs_read_zero():
    spec = SampleSpec(2, 4, MIXED_GINIBRE, 5, 1)
    timings = run_sweep(spec, checks=["ball-radius"]).timings
    assert timings["separable"] == 0.0
    assert list(timings) == ["rho", "coeffs", "norms", "separable", "ball-radius"]


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


@pytest.mark.parametrize("tol", ["1e-9", float("nan"), True])
def test_tolerance_override_must_be_a_finite_real(tol):
    spec = SampleSpec(2, 2, PURE_HAAR, 1, base_seed=3)
    with pytest.raises(ValueError, match="comparison tolerance must be a finite real number"):
        run_sweep(spec, checks=["ball-radius"], tol=tol)


def test_integer_tolerance_override_is_reported_as_a_float():
    report = run_sweep(SampleSpec(2, 2, PURE_HAAR, 1, base_seed=3), tol=1)
    assert {type(check.tolerance) for check in report.checks} == {float}
    assert {check.tolerance for check in report.checks} == {1.0}


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


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("label", sorted(CLASS_SPLITS))
def test_separable_tensor_matches_the_dense_mixture(d, label):
    # the block route against the d^n x d^n mixtures of the same draw, contracted densely:
    # the conftest oracle and the public draw
    seeds = [sample_seed(8, i) for i in range(3)]
    dense = separable_densities(d, label, seeds)
    n = party_count(label)
    parties = tuple(range(1, n + 1))
    for mat, seed in zip(dense, seeds):
        tensor = separable_tensor(d, label, seed)
        assert tensor.subset == parties and tensor.local_dim == d
        scale = np.abs(tensor.coefficients).max()
        for rho in (DensityMatrix(mat, d, n), random_separable(d, label, seed)):
            reference = bloch_tensor(rho, parties).coefficients
            assert np.abs(tensor.coefficients - reference).max() <= 1e-13 * scale


def _product_cap(d, label):
    """The product rule's cap on ``T^(1..n)`` of a class: the k-party caps of its blocks, multiplied."""
    return math.prod(_NORM_CAPS[int(size)](d) for size in label.split("-"))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("label", SMALL_CLASSES)
def test_separable_draws_obey_the_product_rule(d, label):
    # a product across blocks has the tensor product of their tensors, and the norm is convex
    cap = _product_cap(d, label)
    for seed in range(40):
        assert tensor_norm_sq(separable_tensor(d, label, seed)) <= cap


@pytest.mark.parametrize("d", [2, 3, 4])
def test_the_product_rule_is_attained(d):
    # pure products attain it: one-party pure states on every party, and a one-party
    # pure state beside a maximally entangled pair
    ones = [haar_random_pure(d, 1, seed).amplitudes for seed in range(4)]
    cases = {
        label: product_state([((p,), ones[p - 1]) for p in range(1, party_count(label) + 1)], d)
        for label in ("1-1", "1-1-1", "1-1-1-1")
    }
    cases["1-2"] = product_state([((1,), ones[0]), ((2, 3), ghz(d, 2).amplitudes)], d)
    for label, state in cases.items():
        parties = tuple(range(1, party_count(label) + 1))
        value = tensor_norm_sq(bloch_tensor(from_pure(state), parties))
        assert abs(value - _product_cap(d, label)) <= 1e-12 * _product_cap(d, label)


def test_separable_tensor_is_the_batched_row():
    # the sweep draws all four classes of a chunk together; each row replays alone
    seeds = [sample_seed(9, i) for i in range(5)]
    tensors = sweeps._separable_tensors(3, tuple(SEPARABLE_SPLITS), seeds)
    for label, rows in tensors.items():
        for row, seed in zip(rows, seeds):
            np.testing.assert_array_equal(row, separable_tensor(3, label, seed).coefficients)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "sweep"])
@pytest.mark.parametrize(
    "labels",
    [tuple(SEPARABLE_SPLITS)] + [(label,) for label in (*SEPARABLE_SPLITS, *SMALL_CLASSES)],
)
def test_separable_stage_matches_the_full_pass_route_bit_for_bit(d, chunk, labels):
    # generator-only block passes and totals that start from the first split give the
    # bytes of full passes sliced and zero-filled totals: the same sums, in the same order;
    # ``None`` is the chunk a default n=4 pure sweep runs, 114, 10 and 1 samples at d = 2, 3, 4
    if chunk is None:
        chunk = _chunk_size(SampleSpec(d, 4))
    seeds = [sample_seed(12, i) for i in range(chunk)]
    expected = separable_tensors_by_slice(d, labels, seeds)
    tensors = sweeps._separable_tensors(d, labels, seeds)
    norms = sweeps._separable_tensors(d, labels, seeds, sweeps._squared_norms)
    assert list(tensors) == list(norms) == list(labels)
    for label in labels:
        assert same_bytes(tensors[label], expected[label])
        assert same_bytes(norms[label], sweeps._squared_norms(expected[label]))


@pytest.mark.parametrize(
    "args, match",
    [
        ((2, "3-1", 0), "unknown separability class"),
        ((2, {}, 0), "unknown separability class"),
        ((2, "1-3", 2**64), "must be an integer in 0.."),
        ((2, "1-3", 2.5), "seed must be an integer, got 2.5"),
        ((2, "1-3", -1), "seed must be an integer"),
        ((2.5, "1-3", 0), "must be an integer"),
        ((1000, "1-3", 0), "above the cap"),
    ],
)
def test_separable_tensor_rejects_bad_arguments(args, match):
    with pytest.raises(ValueError, match=match):
        separable_tensor(*args)


@pytest.mark.parametrize(
    "broken, match",
    [
        ("weights", "weights sum to"),
        ("blocks", "not 1 within"),
        ("nan", "non-finite"),
        ("nan-weights", "weights contain non-finite values"),
    ],
)
def test_separable_members_are_validated_where_drawn(monkeypatch, broken, match):
    original = sweeps._separable_draws

    def drawing(*args):
        weights, picks, stacks, slots = original(*args)
        if broken == "weights":
            weights = 2.0 * weights
        elif broken == "nan-weights":
            # NaN passes the range and sum comparisons; only the finiteness test refuses it
            weights = np.full_like(weights, np.nan)
        elif broken == "blocks":
            first = min(stacks)
            stacks = {**stacks, first: 1.5 * stacks[first]}
        else:
            last = max(stacks)
            stacks = {**stacks, last: np.full_like(stacks[last], np.nan)}
        return weights, picks, stacks, slots

    monkeypatch.setattr(sweeps, "_separable_draws", drawing)
    with pytest.raises(ValueError, match=match):
        run_sweep(SampleSpec(2, 4, PURE_HAAR, 3, 0), checks=["separable-2-2"])


@pytest.mark.parametrize(
    "d, n, kind, count",
    [(3, 4, PURE_HAAR, 9), (3, 4, MIXED_GINIBRE, 9), (2, 4, MIXED_GINIBRE, 300)],
)
def test_reports_do_not_depend_on_chunking(capsys, monkeypatch, d, n, kind, count):
    # every reduction is a max or all-of over samples drawn from their own seeds, so the
    # report is the same bytes whatever the chunk size; each run here ends in a partial chunk
    argv = ["verify", "--d", str(d), "--parties", str(n), "--kind", kind,
            "--samples", str(count), "--seed", "11", "--format", "json"]
    sizes, outputs = [], []
    for budget in (3 << 19, 5 << 19):
        monkeypatch.setattr(sweeps, "CHUNK_BYTES", budget)
        sizes.append(_chunk_size(SampleSpec(d, n, kind, count, 11)))
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert sizes[0] < sizes[1] and all(count % size for size in sizes)
    assert outputs[0] == outputs[1]


def _peak_specs():
    # d = 2..4 at n = 4, pure, with every check, the separable checks only and the others
    # only; at n = 1..3 both kinds with every check; and the mixed kind at n = 4 with the
    # checks that build its stack
    for d in (2, 3, 4):
        spec = SampleSpec(d, 4, PURE_HAAR, 1, 5)
        names = available_checks(spec)
        yield spec, names
        yield spec, [name for name in names if name.startswith("separable-")]
        yield spec, [name for name in names if not name.startswith("separable-")]
        for kind in (PURE_HAAR, MIXED_GINIBRE):
            for n in (1, 2, 3):
                spec = SampleSpec(d, n, kind, 1, 5)
                yield spec, available_checks(spec)
        spec = SampleSpec(d, 4, MIXED_GINIBRE, 1, 5)
        yield spec, [name for name in available_checks(spec) if not name.startswith("separable-")]


def test_a_chunk_peaks_within_the_chunk_budget():
    assert _chunk_size(SampleSpec(3, 4, PURE_HAAR, 1, 0)) == 10
    for base, names in _peak_specs():
        size = _chunk_size(base, names)
        spec = SampleSpec(base.local_dim, base.num_parties, base.kind, size, base.base_seed)
        run_sweep(spec, names)  # the cached bases are not part of a chunk
        tracemalloc.start()
        try:
            run_sweep(spec, names)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if peak > sweeps.CHUNK_BYTES:
            # the one allowed excess: a d=4 sample whose stage alone is larger than the budget
            assert size == 1 and spec.local_dim == 4, (spec, names, peak)
            warnings.warn(f"a one-sample chunk of {spec} peaks at {peak} bytes, above the budget")
