import math
import re
from functools import partial

import numpy as np
import pytest

from blochbounds import (
    CLASS_LABELS,
    NECESSARY_ONLY_NOTE,
    ball_radii,
    bipartite_norm_bound,
    bloch_tensor,
    bound_table,
    classify,
    et_bound_audit,
    et_measure,
    et_upper_bound,
    et_upper_bound_via_norm_bound,
    from_pure,
    fourpartite_norm_bound,
    ghz,
    haar_random_pure,
    isotropic_ghz4,
    product_max_entangled,
    product_state,
    random_mixed,
    random_separable,
    run_sweep,
    separability_thresholds,
    tensor_norm_sq,
    tradeoff_check,
    tripartite_norm_bound,
    triple_sum_bound,
    DensityMatrix,
    PureState,
    SampleSpec,
)
from blochbounds import sweeps
from conftest import ghz_norm_sq, single_separable_matrix


def test_bound_table_d2():
    table = bound_table(2)
    assert table.bipartite_bound == 3.0
    assert table.tripartite_bound == 4.0
    assert table.fourpartite_bound == 9.0
    assert table.tradeoff_bound == 13.5
    assert table.ball_radii == (1.0, 1.0)


def test_bound_table_d3():
    table = bound_table(3)
    assert abs(table.bipartite_bound - 32 / 9) < 1e-14
    assert abs(table.tripartite_bound - 160 / 27) < 1e-14
    assert abs(table.fourpartite_bound - 1024 / 81) < 1e-14
    assert abs(table.tradeoff_bound - 8 * 512 / (27 * 7)) < 1e-12
    r, big_r = table.ball_radii
    assert abs(r - math.sqrt(1 / 3)) < 1e-14
    assert abs(big_r - math.sqrt(4 / 3)) < 1e-14


@pytest.mark.parametrize("d", range(2, 11))
def test_bound_table_entries_positive(d):
    table = bound_table(d)
    assert table.bipartite_bound > 0
    assert table.tripartite_bound > 0
    assert table.fourpartite_bound > 0
    assert table.tradeoff_bound > 0
    assert table.ball_radii[0] > 0 and table.ball_radii[1] > 0


@pytest.mark.parametrize("d", range(2, 11))
def test_fourpartite_bound_equals_22_threshold(d):
    assert bound_table(d).fourpartite_bound == separability_thresholds(d).t22


def test_thresholds_d2():
    t = separability_thresholds(2)
    assert (t.t13, t.t22, t.t112, t.t1111) == (4.0, 9.0, 3.0, 1.0)


@pytest.mark.parametrize("d", range(2, 11))
def test_threshold_nesting(d):
    t = separability_thresholds(d)
    assert t.t1111 <= t.t112 <= t.t13 <= t.t22


def test_thresholds_approach_sixteen_from_below():
    previous = separability_thresholds(10)
    for d in (100, 10_000, 1_000_000):
        current = separability_thresholds(d)
        for label in CLASS_LABELS:
            assert previous.as_dict()[label] < current.as_dict()[label] < 16.0
        previous = current


@pytest.mark.parametrize("d", range(2, 9))
def test_thresholds_factor_into_marginal_maxima(d):
    t = separability_thresholds(d)
    single_max = 2.0 * (d - 1) / d  # squared outer Bloch radius
    pair_max = bipartite_norm_bound(d)
    assert abs(t.t13 - single_max * tripartite_norm_bound(d)) < 1e-12
    assert abs(t.t22 - pair_max**2) < 1e-12
    assert abs(t.t112 - single_max**2 * pair_max) < 1e-12
    assert abs(t.t1111 - single_max**4) < 1e-12


@pytest.mark.parametrize("d", range(2, 51))
def test_onethree_polynomial_identity(d):
    assert (d - 1) * (d**3 - 3 * d + 2) == (d - 1) ** 3 * (d + 2)


def test_invalid_dimension_rejected():
    for fn in (bound_table, separability_thresholds, ball_radii):
        with pytest.raises(ValueError):
            fn(1)
    # a d whose closed form leaves float range, by overflow or as an infinite value
    too_large = [
        (triple_sum_bound, 10**52),
        (bound_table, 10**52),
        (fourpartite_norm_bound, 6 * 10**76),
        (separability_thresholds, 10**80),
        (et_bound_audit, 10**80),
        (tripartite_norm_bound, 3 * 10**102),
        (bipartite_norm_bound, 7 * 10**153),
        (ball_radii, 10**160),
        (partial(et_upper_bound, n=3), 10**62),
        (partial(et_upper_bound, n=4), 10**103),
        (partial(et_upper_bound_via_norm_bound, n=3), 3 * 10**102),
        (partial(et_upper_bound_via_norm_bound, n=4), 6 * 10**76),
    ]
    for fn, d in too_large:
        with pytest.raises(ValueError, match=f"d={d} is too large"):
            fn(d)


def test_classify_noisy_ghz_history():
    report = classify(isotropic_ghz4(0.7, 2))
    assert abs(report.norm_sq_1234 - 4.41) < 1e-9
    assert report.excluded == frozenset({"1-3", "1-1-2", "1-1-1-1"})
    assert report.verdict_note == NECESSARY_ONLY_NOTE

    quiet = classify(isotropic_ghz4(0.3, 2))
    assert abs(quiet.norm_sq_1234 - 0.81) < 1e-9
    assert quiet.excluded == frozenset()


def test_classify_margins_are_unclipped():
    report = classify(isotropic_ghz4(0.3, 2))
    thresholds = report.thresholds.as_dict()
    for label in CLASS_LABELS:
        assert report.margins[label] == report.norm_sq_1234 - thresholds[label]
        assert report.margins[label] < 0


@pytest.mark.parametrize("d", [2, 3])
def test_classify_paired_entanglement_saturates_22(d):
    report = classify(from_pure(product_max_entangled(d)))
    assert abs(report.margins["2-2"]) < 1e-9
    assert report.excluded == frozenset({"1-3", "1-1-2", "1-1-1-1"})


def test_classify_excluded_set_is_upward_closed():
    ordered = list(CLASS_LABELS)  # ascending thresholds
    for x in np.linspace(0.0, 1.0, 21):
        report = classify(isotropic_ghz4(float(x), 2))
        flags = [label in report.excluded for label in ordered]
        # once a larger-threshold class is excluded, all smaller ones must be
        assert flags == sorted(flags, reverse=True)


def test_classify_rejects_other_arities():
    with pytest.raises(ValueError):
        classify(from_pure(ghz(2, 3)))


def test_measure_ghz_checkpoints():
    assert abs(et_measure(ghz(2, 4)) - 2.0) < 1e-9
    exact = (27 / 8) * math.sqrt(160 / 27) - 3**1.5
    assert abs(et_measure(ghz(3, 3)) - exact) < 1e-12
    assert abs(et_measure(ghz(2, 3)) - 1.0) < 1e-9
    bell_value = math.sqrt(3) - 1.0
    assert abs(et_measure(ghz(2, 2)) - bell_value) < 1e-9


def test_measure_of_full_product_state_is_zero():
    basis_state = product_state([((p,), [1, 0]) for p in (1, 2, 3, 4)], 2)
    assert abs(et_measure(basis_state)) < 1e-9


def test_measure_input_validation():
    with pytest.raises(TypeError):
        et_measure(isotropic_ghz4(0.5, 2))
    with pytest.raises(TypeError):
        et_measure(np.zeros(4))
    with pytest.raises(ValueError):
        et_measure(haar_random_pure(3, 1, seed=1))


def test_measure_upper_bounds():
    assert abs(et_upper_bound(3, 3) - 3.01969) < 1e-4
    assert et_upper_bound(2, 4) == 2.0
    # both routes agree everywhere, including d=2 where each gives exactly 1
    assert abs(et_upper_bound(2, 3) - 1.0) < 1e-12
    assert abs(et_upper_bound_via_norm_bound(2, 3) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        et_upper_bound(2, 5)
    with pytest.raises(ValueError):
        et_upper_bound_via_norm_bound(2, 2)


@pytest.mark.parametrize("route", [et_upper_bound, et_upper_bound_via_norm_bound])
@pytest.mark.parametrize("n", [2, 5])
def test_measure_bound_routes_refuse_other_party_counts(route, n):
    message = rf"^the measure bound is defined for n in \(3, 4\), got {n}$"
    with pytest.raises(ValueError, match=message):
        route(2, n)


@pytest.mark.parametrize("d", range(2, 9))
def test_each_norm_cap_check_bounds_by_the_cap_of_its_order(d):
    caps = {
        "ball-radius": (1, 2.0 * (1.0 - 1.0 / d)),
        "bipartite-norm-bound": (2, bipartite_norm_bound(d)),
        "tripartite-norm-bound": (3, tripartite_norm_bound(d)),
        "fourpartite-norm-bound": (4, fourpartite_norm_bound(d)),
    }
    assert math.sqrt(caps["ball-radius"][1]) == ball_radii(d)[1]
    for name, (k, cap) in caps.items():
        check = sweeps._BY_NAME[name]
        assert check.arities == tuple(range(k, 5))
        assert check.bound(SampleSpec(d, 4)) == cap
    # the one- and two-party caps do not feed the measure bound
    for n in (1, 2):
        message = rf"^the measure bound is defined for n in \(3, 4\), got {n}$"
        with pytest.raises(ValueError, match=message):
            et_upper_bound_via_norm_bound(d, n)


@pytest.mark.parametrize(
    "label, message",
    [
        ("3-1", "unknown separability class '3-1'"),
        (["1-3"], "unknown separability class ['1-3']"),
        ("1-2", "separability class '1-2' has no four-party threshold"),
    ],
)
def test_unknown_separability_class_is_refused(label, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        separability_thresholds(2).for_class(label)


@pytest.mark.parametrize("d", range(2, 7))
def test_measure_bound_routes_agree(d):
    audit = et_bound_audit(d)
    for n in (3, 4):
        assert abs(audit[n]["difference"]) < 1e-12
        assert audit[n]["closed_form"] == et_upper_bound(d, n)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_measure_never_exceeds_bound_on_samples(d, n):
    cap = et_upper_bound(d, n)
    for seed in range(30):
        value = et_measure(haar_random_pure(d, n, seed=800 + seed))
        assert value <= cap + 1e-9


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 4)])
def test_ghz_saturates_measure_bound(d, n):
    norm = math.sqrt(ghz_norm_sq(d, n))
    direct = (d**n / 2**n) * norm - (d * (d - 1) / 2) ** (n / 2)
    assert abs(direct - et_upper_bound(d, n)) < 1e-12
    assert abs(et_measure(ghz(d, n)) - et_upper_bound(d, n)) < 1e-9


def _haar_factor(dim, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


@pytest.mark.parametrize(
    "blocks",
    [
        ((1,), (2, 3, 4)),
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1,), (2,), (3, 4)),
        ((1,), (2,), (3,), (4,)),
    ],
)
def test_product_states_factor_the_full_norm(blocks):
    d = 2
    factors = [
        (parties, _haar_factor(d ** len(parties), seed=900 + i))
        for i, parties in enumerate(blocks)
    ]
    psi = product_state(factors, d)
    full = tensor_norm_sq(bloch_tensor(from_pure(psi), (1, 2, 3, 4)))
    split = 1.0
    for parties, amp in factors:
        factor_rho = from_pure(
            product_state([(tuple(range(1, len(parties) + 1)), amp)], d)
        )
        split *= tensor_norm_sq(
            bloch_tensor(factor_rho, tuple(range(1, len(parties) + 1)))
        )
    assert abs(full - split) < 1e-9


def test_tradeoff_maximally_mixed():
    rho = DensityMatrix(np.eye(16) / 16, 2, 4)
    result = tradeoff_check(rho)
    assert result.sum_sq == 0.0
    assert result.bound == 13.5
    assert result.satisfied


def test_tradeoff_ghz4():
    # all four three-party marginals of the 4-qubit GHZ state carry zero
    # correlation tensors, so the sum sits far below the cap
    rho = from_pure(ghz(2, 4))
    result = tradeoff_check(rho)
    assert abs(result.sum_sq) < 1e-12
    assert result.satisfied
    triples = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert list(result.per_triple) == triples
    for triple in triples:
        assert tensor_norm_sq(bloch_tensor(rho, triple)) < 1e-12
        assert result.per_triple[triple] < 1e-12


def test_tradeoff_per_triple_sums_to_total():
    rho = random_mixed(3, 4, 81, seed=17)
    result = tradeoff_check(rho)
    total = 0.0
    for triple, norm_sq in result.per_triple.items():
        assert norm_sq == tensor_norm_sq(bloch_tensor(rho, triple))
        total += norm_sq
    assert result.sum_sq == total


def test_tradeoff_judges_its_cap_as_classify_does(monkeypatch):
    # at a cap one tolerance below the sum, ``total <= bound + tol`` can round to true
    # while ``total - bound <= tol``, the rule of classify and every sweep check, is false
    from blochbounds import bounds

    rho = from_pure(haar_random_pure(2, 4, 1))
    total = tradeoff_check(rho).sum_sq
    near = total - 1e-9
    caps = (near + k * np.spacing(near) for k in range(-4, 5))
    edges = [cap for cap in caps if total <= cap + 1e-9 and not total - cap <= 1e-9]
    assert edges  # 6.175770732518634 among them, for a sum of 6.175770733518634
    for bound in edges:
        monkeypatch.setattr(bounds, "triple_sum_bound", lambda d: float(bound))
        result = tradeoff_check(rho)
        assert (result.sum_sq, result.bound) == (total, bound)
        assert not result.satisfied


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), True, "1e-9"])
def test_non_finite_tolerance_rejected(tol):
    rho = isotropic_ghz4(0.7, 2)
    with pytest.raises(ValueError, match="finite"):
        classify(rho, tol)
    with pytest.raises(ValueError, match="finite"):
        tradeoff_check(rho, tol)


@pytest.mark.parametrize("tol", [0, 0.0, -0.0, -1.0])
def test_non_positive_tolerance_rejected(tol):
    # a negative tolerance would exclude 2-2 and fail the trade-off of every state
    rho = from_pure(ghz(2, 4))
    spec = SampleSpec(2, 4, count=1)
    for check in (partial(classify, rho), partial(tradeoff_check, rho), partial(run_sweep, spec)):
        with pytest.raises(ValueError, match="comparison tolerance must be positive and finite"):
            check(tol=tol)


def test_tradeoff_bound_value_d3():
    assert abs(triple_sum_bound(3) - 4096 / 189) < 1e-12
    # the joint cap undercuts four single-triple caps at d = 2 and 3 only
    for d in range(2, 9):
        assert (triple_sum_bound(d) < 4 * tripartite_norm_bound(d)) == (d <= 3), d


def test_tradeoff_sum_of_the_higuchi_sudbery_state():
    # every pair purity is 1/3: the best sum known at d = 2, 8 against the cap of 13.5
    omega = np.exp(2j * np.pi / 3)
    amps = np.zeros(16, dtype=complex)
    pairs = {(0b0011, 0b1100): 1, (0b1010, 0b0101): omega, (0b1001, 0b0110): omega**2}
    for (a, b), phase in pairs.items():
        amps[a] = amps[b] = phase / math.sqrt(6)
    result = tradeoff_check(from_pure(PureState(amps, 2, 4)))
    assert abs(result.sum_sq - 8) < 1e-12
    assert result.satisfied


def test_tradeoff_sum_of_ame_4_3():
    # sum over i, j of |i, j, i + j, i + 2j> / 3 (mod 3) ties a product state at d = 3
    amps = np.zeros((3,) * 4, dtype=complex)
    for i in range(3):
        for j in range(3):
            amps[i, j, (i + j) % 3, (i + 2 * j) % 3] = 1 / 3
    result = tradeoff_check(from_pure(PureState(amps, 3, 4)))
    assert abs(result.sum_sq - 256 / 27) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_tradeoff_sum_of_a_product_state(d):
    # each pure factor carries a squared Bloch norm of 2(d - 1)/d, so each triple 8(d - 1)^3/d^3
    factors = [((p,), haar_random_pure(d, 1, seed=40 + p).amplitudes) for p in range(1, 5)]
    result = tradeoff_check(from_pure(product_state(factors, d)))
    assert abs(result.sum_sq - 32 * (d - 1) ** 3 / d**3) < 1e-12


def test_tradeoff_rejects_other_arities():
    with pytest.raises(ValueError):
        tradeoff_check(from_pure(ghz(2, 3)))


def test_tradeoff_on_haar_samples():
    cap = triple_sum_bound(2)
    for seed in range(40):
        rho = from_pure(haar_random_pure(2, 4, seed=950 + seed))
        result = tradeoff_check(rho)
        assert result.satisfied
        assert result.sum_sq <= cap + 1e-9


@pytest.mark.parametrize("label", CLASS_LABELS)
def test_separable_samples_respect_their_threshold(label):
    threshold = separability_thresholds(2).for_class(label)
    for seed in range(25):
        rho = random_separable(2, label, seed=1000 + seed)
        norm_sq = tensor_norm_sq(bloch_tensor(rho, (1, 2, 3, 4)))
        assert norm_sq <= threshold + 1e-9


@pytest.mark.parametrize("label", CLASS_LABELS)
def test_pure_products_respect_their_threshold(label):
    # single-member mixtures are pure product states of the class
    threshold = separability_thresholds(2).for_class(label)
    for seed in range(25):
        rho = DensityMatrix(single_separable_matrix(2, label, 1300 + seed, members=1), 2, 4)
        norm_sq = tensor_norm_sq(bloch_tensor(rho, (1, 2, 3, 4)))
        assert norm_sq <= threshold + 1e-9


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3)])
def test_tripartite_bound_on_haar_samples(d, n):
    cap = tripartite_norm_bound(d)
    for seed in range(30):
        rho = from_pure(haar_random_pure(d, n, seed=1100 + seed))
        assert tensor_norm_sq(bloch_tensor(rho, (1, 2, 3))) <= cap + 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_fourpartite_bound_on_haar_samples(d):
    cap = fourpartite_norm_bound(d)
    for seed in range(20):
        rho = from_pure(haar_random_pure(d, 4, seed=1200 + seed))
        assert tensor_norm_sq(bloch_tensor(rho, (1, 2, 3, 4))) <= cap + 1e-9
