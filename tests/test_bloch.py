import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochbounds import (
    BlochDecomposition,
    BlochTensor,
    DensityMatrix,
    all_subsets,
    bloch_tensor,
    from_ensemble,
    from_pure,
    full_decomposition,
    generate_basis,
    ghz,
    haar_random_pure,
    haar_random_unitary,
    isotropic_ghz4,
    norms_by_order,
    partial_trace,
    product_max_entangled,
    pure_pair_sum_residual,
    pure_triple_sum_residual,
    purity,
    purity_from_decomposition,
    random_mixed,
    reconstruct,
    tensor_norm_sq,
    Ensemble,
    classify,
    tradeoff_check,
)
from blochbounds.bloch import _coefficients, _rebuild
from blochbounds.sampling import _ginibre_densities, _haar_amplitudes
from conftest import (
    ghz_norm_sq,
    kron_bloch_tensor,
    loop_bloch_coefficient,
    same_bytes,
    tensordot_coefficients,
    tensordot_rebuild,
)


def maximally_mixed(d, n):
    dim = d**n
    return DensityMatrix(np.eye(dim) / dim, d, n)


def test_maximally_mixed_has_zero_tensors():
    rho = maximally_mixed(2, 3)
    for subset in all_subsets(3):
        assert tensor_norm_sq(bloch_tensor(rho, subset)) == 0.0


def test_single_qubit_bloch_vector_ordering():
    rho = DensityMatrix(np.diag([1.0, 0.0]), 2, 1)
    vec = bloch_tensor(rho, (1,)).coefficients
    np.testing.assert_allclose(vec, [0.0, 0.0, 1.0], atol=1e-14)


def test_ghz4_full_norm():
    rho = from_pure(ghz(2, 4))
    assert abs(tensor_norm_sq(bloch_tensor(rho, (1, 2, 3, 4))) - 9.0) < 1e-12


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 7), (4, 15)])
def test_full_decomposition_subset_count(n, expected):
    rho = maximally_mixed(2, n)
    decomp = full_decomposition(rho)
    assert len(decomp.subsets()) == expected


def test_ghz4_marginal_norms():
    decomp = full_decomposition(from_pure(ghz(2, 4)))
    for single in itertools.combinations(range(1, 5), 1):
        assert tensor_norm_sq(decomp.tensor(single)) < 1e-12
    for pair in itertools.combinations(range(1, 5), 2):
        assert abs(tensor_norm_sq(decomp.tensor(pair)) - 1.0) < 1e-12


def test_isotropic_family_scales_every_tensor():
    x = 0.37
    noisy = full_decomposition(isotropic_ghz4(x, 2))
    clean = full_decomposition(isotropic_ghz4(1.0, 2))
    for subset in all_subsets(4):
        np.testing.assert_allclose(
            noisy.tensor(subset).coefficients,
            x * clean.tensor(subset).coefficients,
            atol=1e-12,
        )


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_isotropic_full_norm_is_quadratic_in_weight(x):
    rho = isotropic_ghz4(x, 2)
    norm_sq = tensor_norm_sq(bloch_tensor(rho, (1, 2, 3, 4)))
    assert abs(norm_sq - 9.0 * x * x) < 1e-9


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_ghz_full_norm_matches_closed_form(d, n):
    rho = from_pure(ghz(d, n))
    norm_sq = tensor_norm_sq(bloch_tensor(rho, tuple(range(1, n + 1))))
    assert abs(norm_sq - ghz_norm_sq(d, n)) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_paired_entanglement_saturates_fourparty_norm(d):
    rho = from_pure(product_max_entangled(d))
    norm_sq = tensor_norm_sq(bloch_tensor(rho, (1, 2, 3, 4)))
    assert abs(norm_sq - 16.0 * (d * d - 1) ** 2 / d**4) < 1e-9


@pytest.mark.parametrize(
    "d,n,seed",
    [(2, 2, 1), (2, 3, 2), (3, 2, 3), (2, 1, 4), (2, 4, 5), (4, 2, 6)],
)
def test_coefficients_match_loop_oracle(d, n, seed):
    rho = random_mixed(d, n, d**n, seed=seed)
    generators = list(generate_basis(d))
    rng = np.random.default_rng(seed)
    for subset in all_subsets(n):
        tensor = bloch_tensor(rho, subset).as_array()
        m = d * d - 1
        for _ in range(4):
            idx = tuple(int(i) for i in rng.integers(0, m, size=len(subset)))
            expected = loop_bloch_coefficient(rho.matrix, subset, idx, generators, d, n)
            assert abs(expected.imag) < 1e-10
            assert abs(tensor[idx] - expected.real) < 1e-12


@pytest.mark.parametrize(
    "d,n,seed",
    [(2, 3, 7), (3, 2, 8), (2, 4, 9), (3, 3, 10)],
)
def test_contract_and_kron_paths_agree(d, n, seed):
    rho = random_mixed(d, n, d**n, seed=seed)
    generators = list(generate_basis(d))
    decomp = full_decomposition(rho)
    for subset in all_subsets(n):
        slow = kron_bloch_tensor(rho.matrix, subset, generators, d, n)
        assert np.abs(slow.imag).max() < 1e-10
        np.testing.assert_allclose(
            decomp.tensor(subset).as_array(), slow.real, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            bloch_tensor(rho, subset).as_array(), slow.real, rtol=0, atol=1e-12
        )


def _read_only(array):
    array.setflags(write=False)
    return array


def _assert_pass_matches_oracle(mats, d, n):
    """The gemm pass and the rebuild equal the tensordot oracles; returns the pass and the oracle.

    The generator-only pass holds the oracle's generator entries to
    rounding: with fewer columns and rows a gemm may run other kernel code,
    which on some OpenBLAS cores moves a last bit or the sign of a zero.
    Its one user, the separable stage, is pinned bit for bit in
    ``test_sweeps.py``.
    """
    coeffs = _coefficients(mats, d, n)
    expected = tensordot_coefficients(mats, d, n)
    assert same_bytes(coeffs, expected)
    generators = (slice(None),) + (slice(1, None),) * n
    np.testing.assert_allclose(
        _coefficients(mats, d, n, generators=True),
        expected[generators],
        rtol=0,
        atol=16 * np.finfo(float).eps,
    )
    assert same_bytes(_rebuild(_read_only(coeffs), d, n), tensordot_rebuild(expected, d, n))
    return coeffs, expected


@pytest.mark.parametrize(
    "d,n", [(2, 1), (3, 1), (2, 2), (5, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]
)
@pytest.mark.parametrize("kind", ["pure", "ginibre"])
def test_gemm_pass_matches_tensordot_oracle_bit_for_bit(d, n, kind):
    # both directions read their input and never write it: the inputs are read-only,
    # and the rebuild is handed trace entries that are not 1
    seeds = [11, 12, 13]
    if kind == "pure":
        amps = _haar_amplitudes(d, n, seeds)
        mats = amps[:, :, None] * amps[:, None, :].conj()
    else:
        mats = _ginibre_densities(d, n, d**n, seeds)
    coeffs, expected = _assert_pass_matches_oracle(_read_only(mats), d, n)
    assert coeffs.shape == (3,) + (d * d,) * n
    skewed = expected.copy()
    skewed[(slice(None),) + (0,) * n] = 0.5
    skewed = _read_only(skewed)
    assert same_bytes(_rebuild(skewed, d, n), tensordot_rebuild(skewed, d, n))


@pytest.mark.parametrize(
    "rho",
    [pytest.param(lambda d=d, n=n: from_pure(ghz(d, n)), id=f"ghz-d{d}-n{n}")
     for d in (2, 3, 4) for n in (2, 3, 4)]
    + [pytest.param(lambda d=d: from_pure(product_max_entangled(d)), id=f"pme-d{d}")
       for d in (2, 3, 4)]
    + [pytest.param(lambda d=d: isotropic_ghz4(0.3, d), id=f"isotropic-d{d}") for d in (2, 3, 4)],
)
def test_gemm_pass_matches_tensordot_oracle_on_exact_builtins(rho):
    # the exact builtins give exact zeros, whose signs a report prints: the pass keeps each one
    rho = rho()
    mats = _read_only(rho.matrix[None])
    coeffs, _ = _assert_pass_matches_oracle(mats, rho.local_dim, rho.num_parties)
    assert (coeffs == 0.0).any()


def test_gemm_pass_counts_the_matrices_of_a_four_axis_stack():
    # the separable blocks come as (count, rows, D, D); the pass flattens both leading axes
    d, k = 3, 2
    amps = _haar_amplitudes(d, k, list(range(6))).reshape(2, 3, d**k)
    mats = _read_only(amps[..., :, None] * amps[..., None, :].conj())
    coeffs, _ = _assert_pass_matches_oracle(mats, d, k)
    assert coeffs.shape == (6, d * d, d * d)
    assert same_bytes(coeffs, _coefficients(mats.reshape(6, d**k, d**k), d, k))
    rebuilt = _rebuild(_read_only(coeffs.reshape(2, 3, d * d, d * d)), d, k)
    assert same_bytes(rebuilt, tensordot_rebuild(coeffs, d, k))


def test_invalid_subsets_rejected():
    rho = maximally_mixed(2, 3)
    for bad in [(), (0,), (4,), (1, 1), (1.9, 2), (True, 2), ("1",)]:
        with pytest.raises(ValueError):
            bloch_tensor(rho, bad)
        with pytest.raises(ValueError):
            full_decomposition(rho).tensor(bad)
    with pytest.raises(ValueError, match="party label"):
        BlochTensor((True, 2.5), 2, np.zeros(9))


def test_every_state_the_boundary_accepts_decomposes_as_its_hermitian_part():
    # Hermiticity deviation 8e-10, within the 1e-9 of DensityMatrix: the map
    # decomposes the Hermitian part (M + M^dagger)/2 of what was accepted
    mat = isotropic_ghz4(0.5, 2).matrix.copy()
    mat[0, 15] += 4e-10j
    mat[15, 0] += 4e-10j
    rho = DensityMatrix(mat, 2, 4)
    herm = DensityMatrix(0.5 * (mat + mat.conj().T), 2, 4)
    coeffs = full_decomposition(rho).coefficients
    assert np.abs(coeffs - full_decomposition(herm).coefficients).max() <= 1e-15
    assert np.abs(reconstruct(full_decomposition(rho)).matrix - herm.matrix).max() <= 1e-15
    report, expected = classify(rho), classify(herm)
    assert report.excluded == expected.excluded
    assert report.norm_sq_1234 == pytest.approx(expected.norm_sq_1234, abs=1e-15)
    result = tradeoff_check(rho)
    assert result.satisfied
    assert result.sum_sq == pytest.approx(tradeoff_check(herm).sum_sq, abs=1e-15)


def test_marginal_consistency():
    rho = random_mixed(2, 4, 16, seed=31)
    for subset in all_subsets(4):
        direct = bloch_tensor(rho, subset).coefficients
        reduced = partial_trace(rho, subset)
        via_marginal = bloch_tensor(
            reduced, tuple(range(1, len(subset) + 1))
        ).coefficients
        np.testing.assert_allclose(direct, via_marginal, atol=1e-10)


def test_reconstruct_zero_decomposition():
    d, n = 2, 3
    rho = reconstruct(BlochDecomposition(d, n, np.zeros((d * d,) * n)))
    np.testing.assert_allclose(rho.matrix, np.eye(8) / 8, atol=1e-14)


def test_round_trip_ghz():
    for d, n in [(3, 3), (4, 4)]:
        rho = from_pure(ghz(d, n))
        rebuilt = reconstruct(full_decomposition(rho))
        assert np.linalg.norm(rebuilt.matrix - rho.matrix) < 1e-10, (d, n)


def test_round_trip_random_mixed_states():
    worst = 0.0
    for seed in range(50):
        rho = random_mixed(2, 4, 16, seed=200 + seed)
        rebuilt = reconstruct(full_decomposition(rho))
        worst = max(worst, np.linalg.norm(rebuilt.matrix - rho.matrix))
    assert worst < 1e-10


def test_incomplete_decomposition_rejected():
    d, n = 2, 2
    for bad in [np.zeros(3), np.zeros((4, 3)), np.zeros((4, 4, 4))]:
        with pytest.raises(ValueError, match="shape"):
            BlochDecomposition(d, n, bad)
    for value in [np.nan, np.inf]:
        coeffs = np.zeros((4, 4))
        coeffs[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            BlochDecomposition(d, n, coeffs)
    for dims in [(1, 2), (True, 2), (2, 0), (2, 5)]:
        with pytest.raises(ValueError):
            BlochDecomposition(*dims, np.zeros((4, 4)))
    # the coefficients are real by definition; a complex array is refused, not truncated
    with pytest.raises(TypeError):
        BlochDecomposition(d, n, np.full((4, 4), 0.1j))


def test_a_callers_array_stays_theirs_and_writable():
    coeffs = np.array(full_decomposition(random_mixed(3, 2, 4, seed=5)).coefficients)
    decomp = BlochDecomposition(3, 2, coeffs)
    assert coeffs.flags.writeable and not decomp.coefficients.flags.writeable
    assert not np.shares_memory(coeffs, decomp.coefficients)
    kept = decomp.coefficients.copy()
    coeffs[1, 2] += 1.0
    assert np.array_equal(decomp.coefficients, kept)


def test_full_decomposition_holds_a_read_only_float_array():
    rho = random_mixed(2, 3, 2, seed=9)
    expected = BlochDecomposition(2, 3, full_decomposition(rho).coefficients)
    decomp = full_decomposition(rho)
    assert not decomp.coefficients.flags.writeable
    assert decomp.coefficients.dtype == float and decomp.coefficients.shape == (4, 4, 4)
    assert np.array_equal(decomp.coefficients, expected.coefficients)


def test_wrong_length_coefficients_rejected():
    with pytest.raises(ValueError):
        BlochTensor((1, 2), 2, np.zeros(8))
    with pytest.raises(TypeError):
        BlochTensor((1,), 2, np.array([0.5j, 0.0, 0.2]))


def test_tensor_subset_validation():
    for bad in [(2, 1), (), (0,), (-3,), (99,), (1, 1)]:
        with pytest.raises(ValueError):
            BlochTensor(bad, 2, np.zeros(3 ** max(len(bad), 1)))
    for local_dim in [1, True, 0, 2.0]:
        with pytest.raises(ValueError, match="local dimension"):
            BlochTensor((1,), local_dim, [])


@pytest.mark.parametrize("d,n,kind", [(2, 3, "mixed"), (3, 3, "pure"), (2, 4, "mixed"), (3, 4, "pure")])
def test_purity_identity(d, n, kind):
    if kind == "pure":
        rho = from_pure(haar_random_pure(d, n, seed=70 + d + n))
    else:
        rho = random_mixed(d, n, d**n, seed=70 + d + n)
    decomp = full_decomposition(rho)
    assert abs(purity_from_decomposition(decomp) - purity(rho)) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_pure_pair_sum_rule(d):
    for seed in range(5):
        decomp = full_decomposition(from_pure(haar_random_pure(d, 3, seed=300 + seed)))
        assert abs(pure_pair_sum_residual(decomp)) < 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_pure_triple_sum_rule(d):
    for seed in range(5):
        decomp = full_decomposition(from_pure(haar_random_pure(d, 4, seed=330 + seed)))
        assert abs(pure_triple_sum_residual(decomp)) < 1e-9


def test_sum_rules_fail_on_mixed_states():
    # The sum rules hold for pure states only; the maximally mixed state
    # violates both, which guards against a vacuous implementation.
    assert abs(pure_pair_sum_residual(full_decomposition(maximally_mixed(2, 3)))) > 0.1
    assert abs(pure_triple_sum_residual(full_decomposition(maximally_mixed(2, 4)))) > 0.01


def test_sum_rule_arity_checks():
    decomp = full_decomposition(maximally_mixed(2, 2))
    with pytest.raises(ValueError):
        pure_pair_sum_residual(decomp)
    with pytest.raises(ValueError):
        pure_triple_sum_residual(decomp)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (2, 4)])
def test_local_unitary_invariance_of_norms(d, n):
    rho = random_mixed(d, n, d**n, seed=400 + d * n)
    locals_ = [haar_random_unitary(d, seed=500 + i) for i in range(n)]
    u = locals_[0]
    for v in locals_[1:]:
        u = np.kron(u, v)
    rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, d, n)
    before = full_decomposition(rho)
    after = full_decomposition(rotated)
    for subset in all_subsets(n):
        assert abs(
            tensor_norm_sq(before.tensor(subset)) - tensor_norm_sq(after.tensor(subset))
        ) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pure_single_qudit_states_sit_on_outer_sphere(d):
    r_sq = 2.0 * (1.0 - 1.0 / d)
    for seed in range(5):
        rho = from_pure(haar_random_pure(d, 1, seed=600 + seed))
        assert abs(tensor_norm_sq(bloch_tensor(rho, (1,))) - r_sq) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_mixed_single_qudit_states_stay_inside_outer_ball(d):
    r_sq = 2.0 * (1.0 - 1.0 / d)
    for seed in range(10):
        rho = random_mixed(d, 1, d, seed=620 + seed)
        assert tensor_norm_sq(bloch_tensor(rho, (1,))) <= r_sq + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=15, max_size=15),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_inner_ball_vectors_reconstruct_to_valid_states(d, direction, scale):
    m = d * d - 1
    vec = np.array(direction[:m])
    norm = np.linalg.norm(vec)
    if norm < 1e-6:
        vec = np.zeros(m)
        vec[0] = 1.0
        norm = 1.0
    inner_radius = np.sqrt(2.0 / (d * (d - 1)))
    vec = vec / norm * inner_radius * scale
    coeffs = np.zeros(d * d)
    coeffs[1:] = vec
    decomp = BlochDecomposition(d, 1, coeffs)
    rho = reconstruct(decomp)  # validation inside proves positivity
    np.testing.assert_allclose(
        bloch_tensor(rho, (1,)).coefficients, vec, atol=1e-12
    )


def test_norm_convexity_under_mixing():
    psi_a = haar_random_pure(2, 3, seed=701)
    psi_b = haar_random_pure(2, 3, seed=702)
    p = 0.35
    mixed = from_ensemble(Ensemble([(p, psi_a), (1 - p, psi_b)]))
    for subset in all_subsets(3):
        mixed_norm = np.sqrt(tensor_norm_sq(bloch_tensor(mixed, subset)))
        split = p * np.sqrt(
            tensor_norm_sq(bloch_tensor(from_pure(psi_a), subset))
        ) + (1 - p) * np.sqrt(tensor_norm_sq(bloch_tensor(from_pure(psi_b), subset)))
        assert mixed_norm <= split + 1e-9


def test_norms_by_order_groups_subsets():
    decomp = full_decomposition(from_pure(ghz(2, 4)))
    sums = norms_by_order(decomp)
    assert set(sums) == {1, 2, 3, 4}
    assert abs(sums[1]) < 1e-12
    assert abs(sums[2] - 6.0) < 1e-12
    assert abs(sums[3]) < 1e-12
    assert abs(sums[4] - 9.0) < 1e-12
