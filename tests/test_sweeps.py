import math
import tracemalloc

import numpy as np
import pytest

from blochbounds import sweeps
from blochbounds import (
    MIXED_GINIBRE,
    PURE_HAAR,
    SEPARABLE_MEMBERS,
    SEPARABLE_SPLITS,
    DensityMatrix,
    SampleSpec,
    available_checks,
    bloch_tensor,
    random_separable,
    run_sweep,
    sample_seed,
    separable_tensor,
    tensor_norm_sq,
)
from blochbounds.cli import main
from conftest import oracle_check_value, oracle_sample_value, separable_densities


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


def test_nan_observation_fails_its_check(monkeypatch):
    # a NaN on one sample must survive the max within its chunk and across chunks:
    # on a middle sample of the first chunk, and on the first sample of the second
    size = sweeps._chunk_size(SampleSpec(2, 3, PURE_HAAR, 1, 0))
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
    # per chunk the sweep validates what it draws, once: the pure samples' amplitude
    # rows (or the mixed samples' matrices) and the separable members of all four
    # classes (the weights they share, and their block vectors as one stack per
    # block size). Marginals and reconstructions are measured by their checks, and no dense
    # separable mixture is formed: the only d^4 x d^4 stack contracted is the samples
    from blochbounds import sampling

    assert not hasattr(sampling, "_check_amplitudes")
    assert not hasattr(sampling, "_check_densities")
    seen = []
    for name in ("_check_densities", "_check_amplitudes", "_check_weights", "_coefficients"):
        original = getattr(sweeps, name)

        def recording(stack, *args, _original=original, _name=name):
            seen.append((_name, stack.shape))
            return _original(stack, *args)

        monkeypatch.setattr(sweeps, name, recording)

    def shapes(name):
        return [shape for seen_name, shape in seen if seen_name == name]

    size = sweeps._chunk_size(SampleSpec(2, 4, PURE_HAAR, 1, 0))
    # 8 members of each class: k-party blocks per member summed over the four classes
    rows = {k: 8 * sum(
        [len(block) for block in splits[0]].count(k) for splits in SEPARABLE_SPLITS.values()
    ) for k in (1, 2, 3)}
    assert rows == {1: 56, 2: 24, 3: 8}
    run_sweep(SampleSpec(2, 4, PURE_HAAR, size + 3, 41))
    assert shapes("_check_densities") == []
    assert shapes("_check_weights") == [(size, 8), (3, 8)]
    assert shapes("_check_amplitudes") == [
        shape
        for b in (size, 3)
        for shape in [(b, 16)] + [(b * rows[k], 2**k) for k in (1, 2, 3)]
    ]
    contracted = shapes("_coefficients")
    assert [shape for shape in contracted if shape[-1] == 16] == [(size, 16, 16), (3, 16, 16)]
    assert len(contracted) == 2 * (1 + len(rows))

    seen.clear()
    run_sweep(SampleSpec(2, 4, MIXED_GINIBRE, size + 3, 41))
    assert shapes("_check_densities") == [(size, 16, 16), (3, 16, 16)]
    assert shapes("_check_weights") == [(size, 8), (3, 8)]
    assert shapes("_check_amplitudes") == [
        (b * rows[k], 2**k) for b in (size, 3) for k in (1, 2, 3)
    ]


def _replays(name, observed, expected):
    """Bit for bit, except the round trip, whose oracle takes a 2-D Frobenius norm."""
    if name == "reconstruction-round-trip":
        return abs(observed - expected) <= 1e-12
    return observed == expected


def _chunk_counts(spec):
    size = sweeps._chunk_size(spec)
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


def test_worst_sample_replays_its_maximum():
    spec = SampleSpec(2, 4, PURE_HAAR, 40, 31)
    report = run_sweep(spec)
    for outcome in report.checks:
        if outcome.name.startswith("separable-"):
            label = outcome.name[len("separable-"):]
            value = tensor_norm_sq(separable_tensor(spec.local_dim, label, outcome.worst_seed))
        else:
            value = oracle_check_value(spec.draw(outcome.worst_index), outcome.name)
        assert _replays(outcome.name, value, outcome.max_observed), outcome.name


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


def test_empty_check_selection_has_its_own_message():
    with pytest.raises(ValueError, match="^no checks requested$"):
        run_sweep(SampleSpec(2, 3, PURE_HAAR, 5, 0), checks=[])


def test_sample_spec_refuses_counts_past_the_seed_indices():
    # sample indices 0..count - 1 must be valid sample_seed indices; refused when built
    assert SampleSpec(2, 2, PURE_HAAR, 2**64, 0).count == 2**64
    for count in (2**64 + 1, 10**20):
        with pytest.raises(ValueError, match=r"count must lie in 1\.\.2\*\*64"):
            SampleSpec(2, 2, PURE_HAAR, count, 0)


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
@pytest.mark.parametrize("label", sorted(SEPARABLE_SPLITS))
def test_separable_tensor_matches_the_dense_mixture(d, label):
    # the block route against the d^4 x d^4 mixtures of the same draw, contracted densely:
    # the conftest oracle and the public draw
    seeds = [sample_seed(8, i) for i in range(3)]
    dense = separable_densities(d, label, seeds)
    for mat, seed in zip(dense, seeds):
        tensor = separable_tensor(d, label, seed)
        assert tensor.subset == (1, 2, 3, 4) and tensor.local_dim == d
        scale = np.abs(tensor.coefficients).max()
        for rho in (DensityMatrix(mat, d, 4), random_separable(d, label, seed)):
            reference = bloch_tensor(rho, (1, 2, 3, 4)).coefficients
            assert np.abs(tensor.coefficients - reference).max() <= 1e-13 * scale


def test_separable_tensor_is_the_batched_row():
    # the sweep draws all four classes of a chunk together; each row replays alone
    seeds = [sample_seed(9, i) for i in range(5)]
    tensors = sweeps._separable_tensors(3, tuple(SEPARABLE_SPLITS), seeds, SEPARABLE_MEMBERS)
    for label, rows in tensors.items():
        for row, seed in zip(rows, seeds):
            np.testing.assert_array_equal(row, separable_tensor(3, label, seed).coefficients)


@pytest.mark.parametrize(
    "args, match",
    [
        ((2, "3-1", 0), "unknown separability class"),
        ((2, "1-3", 0, 0), "members must be at least 1"),
        ((2, "1-3", 0, 2.5), "must be an integer"),
        ((2, "1-3", -1), "seed must be an integer"),
        ((2.5, "1-3", 0), "must be an integer"),
        ((1000, "1-3", 0), "above the cap"),
        ((2, "1-3", 0, 2**40), "members=1099511627776 at d=2 .* above the cap"),
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
    ],
)
def test_separable_members_are_validated_where_drawn(monkeypatch, broken, match):
    original = sweeps._separable_draws

    def drawing(*args):
        weights, picks, stacks, slots = original(*args)
        if broken == "weights":
            weights = 2.0 * weights
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
    for budget in (1 << 18, 5 << 17):
        monkeypatch.setattr(sweeps, "CHUNK_BYTES", budget)
        sizes.append(sweeps._chunk_size(SampleSpec(d, n, kind, count, 11)))
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert sizes[0] < sizes[1] and all(count % size for size in sizes)
    assert outputs[0] == outputs[1]


def test_working_set_stays_a_small_multiple_of_the_chunk_budget():
    # a d=3, n=4 pure sweep with every check peaks at about 5.8 x CHUNK_BYTES (see its
    # comment), in the separable members' block contraction. Another array of half the
    # samples' stack held at that point, such as a copy of their coefficients, pushes it
    # past this multiple.
    spec = SampleSpec(3, 4, PURE_HAAR, 8, 5)
    assert sweeps._chunk_size(spec) == 6
    run_sweep(spec)  # the cached bases and split orders are not part of a chunk
    tracemalloc.start()
    try:
        run_sweep(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.25 * sweeps.CHUNK_BYTES
