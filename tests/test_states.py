import itertools
import tracemalloc

import numpy as np
import pytest

from blochbounds import states
from blochbounds import (
    DensityMatrix,
    Ensemble,
    PureState,
    as_pure,
    from_ensemble,
    from_pure,
    ghz,
    haar_random_pure,
    isotropic_ghz4,
    partial_trace,
    product_max_entangled,
    product_state,
    purity,
    random_mixed,
    generate_basis,
    haar_random_unitary,
    random_separable,
)
from conftest import loop_partial_trace


def test_from_pure_basis_state():
    rho = from_pure(PureState([1, 0], 2, 1))
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-14)


def test_from_pure_bell_corners():
    bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), 2, 2)
    rho = from_pure(bell).matrix
    expected = np.zeros((4, 4))
    for i, j in itertools.product((0, 3), repeat=2):
        expected[i, j] = 0.5
    np.testing.assert_allclose(rho, expected, atol=1e-14)


def test_from_pure_is_rank_one():
    psi = haar_random_pure(3, 2, seed=11)
    eigs = np.linalg.eigvalsh(from_pure(psi).matrix)
    np.testing.assert_allclose(eigs[-1], 1.0, atol=1e-12)
    np.testing.assert_allclose(eigs[:-1], 0.0, atol=1e-12)


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState([1, 1], 2, 1)


def test_from_pure_accepts_every_vector_pure_state_accepts():
    # and the projector passes the purity rule that measure and as_pure hold a matrix to
    for scale in (1 + 0.2e-9, 1 - 0.2e-9):
        states._check_pure(from_pure(PureState(ghz(2, 4).amplitudes * scale, 2, 4)))
    rng = np.random.default_rng(25)
    accepted = 0
    for _ in range(2000):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps *= (1 + rng.uniform(-1.2e-9, 1.2e-9)) / np.linalg.norm(amps)
        try:
            psi = PureState(amps, 2, 2)
        except ValueError:
            continue
        states._check_pure(from_pure(psi))
        accepted += 1
    assert 0 < accepted < 2000


def test_pure_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        PureState([1, 0, 0], 2, 1)


def test_single_member_ensemble_matches_from_pure():
    psi = haar_random_pure(2, 2, seed=3)
    via_ensemble = from_ensemble(Ensemble([(1.0, psi)]))
    np.testing.assert_allclose(via_ensemble.matrix, from_pure(psi).matrix, atol=1e-14)


def test_equal_mixture_is_maximally_mixed():
    mix = Ensemble([(0.5, PureState([1, 0], 2, 1)), (0.5, PureState([0, 1], 2, 1))])
    np.testing.assert_allclose(from_ensemble(mix).matrix, np.eye(2) / 2, atol=1e-14)


def test_ensemble_purity_matches_overlap_formula():
    members = [(0.7, ghz(2, 4)), (0.3, PureState([1] + [0] * 15, 2, 4))]
    rho = from_ensemble(Ensemble(members))
    expected = sum(
        wa * wb * abs(np.vdot(pa.amplitudes, pb.amplitudes)) ** 2
        for wa, pa in members
        for wb, pb in members
    )
    assert abs(expected - 0.79) < 1e-12
    assert abs(purity(rho) - expected) < 1e-12


def test_ensemble_rejects_mismatched_members():
    with pytest.raises(ValueError):
        Ensemble([(0.5, ghz(2, 2)), (0.5, ghz(2, 3))])
    with pytest.raises(ValueError):
        Ensemble([(0.5, ghz(2, 2)), (0.5, ghz(3, 2))])


def test_ensemble_rejects_bad_weights():
    with pytest.raises(ValueError):
        Ensemble([(0.9, ghz(2, 2))])
    with pytest.raises(ValueError):
        Ensemble([(1.4, ghz(2, 2)), (-0.4, ghz(2, 2))])
    with pytest.raises(ValueError):
        Ensemble([(float("nan"), ghz(2, 2))])
    for weight in (True, np.bool_(True), "1.0", None):
        with pytest.raises(ValueError, match="ensemble weight"):
            Ensemble([(weight, ghz(2, 2))])
    for weight in (1, np.float32(1.0), np.int64(1)):
        assert Ensemble([(weight, ghz(2, 2))]).members[0][0] == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        PureState([bad, 0], 2, 1)
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(mat, 2, 1)


@pytest.mark.parametrize(
    "d,n",
    [(2.5, 2), (2.0, 2), (True, 2), (2, True), (2, 2.0), ("2", 2)],
    ids=["float-d", "integral-float-d", "bool-d", "bool-n", "float-n", "str-d"],
)
def test_dimensions_must_be_integers(d, n):
    with pytest.raises(ValueError, match="must be an integer"):
        PureState(ghz(2, 2).amplitudes, d, n)
    with pytest.raises(ValueError, match="must be an integer"):
        ghz(d, n)


def test_ghz_amplitudes():
    four_qubit = ghz(2, 4).amplitudes
    expected = np.zeros(16)
    expected[0] = expected[15] = 1 / np.sqrt(2)
    np.testing.assert_allclose(four_qubit, expected, atol=1e-14)

    qutrit = ghz(3, 3).amplitudes
    expected = np.zeros(27)
    expected[[0, 13, 26]] = 1 / np.sqrt(3)
    np.testing.assert_allclose(qutrit, expected, atol=1e-14)

    assert abs(np.linalg.norm(ghz(2, 2).amplitudes) - 1) < 1e-14


@pytest.mark.parametrize("d,n", [(1, 3), (2, 1), (2, 5)])
def test_ghz_rejects_out_of_range(d, n):
    with pytest.raises(ValueError):
        ghz(d, n)


def test_isotropic_ghz4_endpoints():
    pure = isotropic_ghz4(1.0, 2)
    np.testing.assert_allclose(pure.matrix, from_pure(ghz(2, 4)).matrix, atol=1e-14)
    noise = isotropic_ghz4(0.0, 2)
    np.testing.assert_allclose(noise.matrix, np.eye(16) / 16, atol=1e-14)


def test_isotropic_ghz4_half_spectrum():
    rho = isotropic_ghz4(0.5, 2)
    assert abs(rho.matrix.trace() - 1) < 1e-12
    eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
    expected = np.sort([0.5 + 1 / 32] + [1 / 32] * 15)
    np.testing.assert_allclose(eigs, expected, atol=1e-12)


@pytest.mark.parametrize("x", [-0.1, 1.1, float("nan"), True, "0.7"])
def test_isotropic_ghz4_rejects_bad_weight(x):
    with pytest.raises(ValueError):
        isotropic_ghz4(x, 2)


def test_product_max_entangled_d2():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    np.testing.assert_allclose(
        product_max_entangled(2).amplitudes, np.kron(bell, bell), atol=1e-14
    )


@pytest.mark.parametrize("d", [2, 3])
def test_product_max_entangled_marginal_is_maximally_mixed(d):
    rho = from_pure(product_max_entangled(d))
    marginal = partial_trace(rho, (1,))
    np.testing.assert_allclose(marginal.matrix, np.eye(d) / d, atol=1e-12)
    assert abs(purity(rho) - 1.0) < 1e-12


def test_product_state_places_factors_correctly():
    up = [1, 0]
    down = [0, 1]
    psi = product_state([((2,), down), ((1,), up), ((3,), up)], 2)
    expected = np.zeros(8)
    expected[0b010] = 1.0
    np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-14)


def test_product_state_matches_kron_for_sorted_parties():
    rng = np.random.default_rng(5)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    a /= np.linalg.norm(a)
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    b /= np.linalg.norm(b)
    psi = product_state([((1,), a), ((2, 3), b)], 2)
    np.testing.assert_allclose(psi.amplitudes, np.kron(a, b), atol=1e-14)


def test_product_state_rejects_bad_partitions():
    with pytest.raises(ValueError):
        product_state([((1,), [1, 0]), ((1,), [1, 0])], 2)
    with pytest.raises(ValueError):
        product_state([((1,), [1, 0]), ((3,), [1, 0])], 2)
    with pytest.raises(ValueError, match="party label"):
        product_state([((1,), [1, 0]), ((2.0,), [1, 0])], 2)


def test_partial_trace_ghz_single_party():
    rho = from_pure(ghz(2, 4))
    np.testing.assert_allclose(partial_trace(rho, (1,)).matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_keep_all_is_identity_operation():
    rho = random_mixed(2, 3, 8, seed=21)
    np.testing.assert_allclose(partial_trace(rho, (1, 2, 3)).matrix, rho.matrix, atol=1e-14)


def test_partial_trace_of_paired_entanglement():
    rho = from_pure(product_max_entangled(2))
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    np.testing.assert_allclose(
        partial_trace(rho, (1, 2)).matrix, np.outer(bell, bell), atol=1e-12
    )


@pytest.mark.parametrize(
    "d,n,keep",
    [
        (2, 3, (1,)),
        (2, 3, (2, 3)),
        (2, 3, (1, 3)),
        (3, 2, (2,)),
        (2, 4, (2, 4)),
        (2, 4, (1, 3, 4)),
    ],
)
def test_partial_trace_matches_loop_oracle(d, n, keep):
    rho = random_mixed(d, n, d**n, seed=1000 + 10 * d + n)
    expected = loop_partial_trace(rho.matrix, keep, d, n)
    np.testing.assert_allclose(partial_trace(rho, keep).matrix, expected, atol=1e-12)


def test_partial_trace_preserves_trace_and_positivity():
    for seed in range(5):
        rho = random_mixed(2, 4, 16, seed=seed)
        for keep in [(1,), (2, 3), (1, 2, 4)]:
            reduced = partial_trace(rho, keep)
            assert abs(reduced.matrix.trace() - 1) < 1e-12
            assert np.linalg.eigvalsh(reduced.matrix)[0] > -1e-12


def test_partial_trace_rejects_bad_subsets():
    rho = from_pure(ghz(2, 3))
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (0, 1))
    with pytest.raises(ValueError):
        partial_trace(rho, (4,))
    for dup in [(1, 1), (2, 3, 2)]:
        with pytest.raises(ValueError, match="duplicate"):
            partial_trace(rho, dup)
    for bad in [(1.5,), (True, 2), ("1",)]:
        with pytest.raises(ValueError, match="party label"):
            partial_trace(rho, bad)


def test_purity_values():
    assert abs(purity(isotropic_ghz4(0.0, 2)) - 1 / 16) < 1e-14
    assert abs(purity(from_pure(haar_random_pure(2, 3, seed=9))) - 1.0) < 1e-12
    rho = isotropic_ghz4(0.5, 2)
    expected = float(np.sum(np.linalg.eigvalsh(rho.matrix) ** 2))
    assert abs(purity(rho) - expected) < 1e-12
    assert abs(purity(rho) - 19 / 64) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_pure_tripartite_marginal_purities_agree(seed):
    rho = from_pure(haar_random_pure(2 + seed % 2, 3, seed=40 + seed))
    for i, rest in [(1, (2, 3)), (2, (1, 3)), (3, (1, 2))]:
        one = purity(partial_trace(rho, (i,)))
        two = purity(partial_trace(rho, rest))
        assert abs(one - two) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_pure_fourpartite_marginal_purities_agree(seed):
    rho = from_pure(haar_random_pure(2 + seed % 2, 4, seed=60 + seed))
    for i in (1, 2, 3, 4):
        rest = tuple(p for p in (1, 2, 3, 4) if p != i)
        assert abs(purity(partial_trace(rho, (i,))) - purity(partial_trace(rho, rest))) < 1e-10


def test_as_pure_round_trip():
    psi = ghz(3, 2)
    back = as_pure(from_pure(psi))
    overlap = abs(np.vdot(back.amplitudes, psi.amplitudes))
    assert abs(overlap - 1.0) < 1e-10


def test_as_pure_rejects_mixed():
    with pytest.raises(ValueError):
        as_pure(isotropic_ghz4(0.5, 2))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]), 2, 1)  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), 2, 1)  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]), 2, 1)  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4, 2, 1)  # wrong shape for (d, n)


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: DensityMatrix(np.diag([1 + 0.9e-9, -0.9e-9]), 2, 1),
            "purity 1.0000000018000001 lies outside [1/2, 1]",
        ),
        (
            lambda: DensityMatrix(np.array([[0.5, 2e-9j], [0, 0.5]]), 2, 1),
            "matrix deviates from Hermitian by 2.000e-09",
        ),
        # a norm within 1e-9 of 1 whose projector's purity |v|^4 is not 1 within 1e-9
        (
            lambda: PureState([1 + 0.9e-9, 0], 2, 1),
            "state vector norm 1.0000000009 gives a projector of purity not 1 within 1e-09",
        ),
        (
            lambda: PureState([1 - 0.9e-9, 0], 2, 1),
            "state vector norm 0.9999999991 gives a projector of purity not 1 within 1e-09",
        ),
        (
            lambda: PureState([1 + 0.4e-9, 0], 2, 1),
            "state vector norm 1.0000000004 gives a projector of purity not 1 within 1e-09",
        ),
        (
            lambda: PureState([1 - 0.4e-9, 0], 2, 1),
            "state vector norm 0.9999999996 gives a projector of purity not 1 within 1e-09",
        ),
        (lambda: Ensemble([]), "ensemble needs at least one member"),
        (lambda: Ensemble([(1.0, "psi")]), "ensemble members must be PureState instances"),
        (
            lambda: product_state([((1,), [1, 0, 0]), ((2,), [1, 0])], 2),
            "factor on parties (1,) has 3 amplitudes, expected 2",
        ),
    ],
    ids=[
        "purity-above-one",
        "hermitian-deviation",
        "vector-norm-above-one-by-0.9e-9",
        "vector-norm-below-one-by-0.9e-9",
        "vector-norm-above-one-by-0.4e-9",
        "vector-norm-below-one-by-0.4e-9",
        "empty-ensemble",
        "non-state-member",
        "factor-length",
    ],
)
def test_constructors_refuse_with_their_message(make, message):
    with pytest.raises(ValueError) as refused:
        make()
    assert str(refused.value) == message


def test_state_objects_are_immutable():
    psi = ghz(2, 2)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0
    rho = from_pure(psi)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


def _with_smallest_eigenvalue(u, smallest, seed):
    """A Hermitian unit-trace matrix with eigenvectors ``u`` and least eigenvalue ``smallest``."""
    rng = np.random.default_rng(seed)
    rest = rng.random(len(u) - 1)
    eigs = np.concatenate([[smallest], rest * (1.0 - smallest) / rest.sum()])
    mat = (u * eigs) @ u.conj().T
    return 0.5 * (mat + mat.conj().T)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 4), (4, 4)])
def test_psd_gate_decides_like_the_smallest_eigenvalue_at_the_boundary(d, n):
    # 40 matrices per side of the boundary lambda_min = -atol, 1e-3 relative away from it
    atol = states.DEFAULT_ATOL
    for seed in range(40):
        u = haar_random_unitary(d**n, seed)
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            mat = _with_smallest_eigenvalue(u, -atol * factor, seed)
            exact = np.linalg.eigvalsh(mat)[0] >= -atol
            assert exact == (factor < 1.0)
            try:
                DensityMatrix(mat, d, n)
                accepted = True
            except ValueError as exc:
                assert "not positive semidefinite" in str(exc)
                accepted = False
            assert accepted == exact, (seed, factor)


def test_psd_gate_computes_eigenvalues_only_when_cholesky_fails(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(mat):
        calls.append(mat.shape)
        return eigvalsh(mat)

    monkeypatch.setattr(states.np.linalg, "eigvalsh", counting)
    random_mixed(3, 3, 27, seed=4)
    random_separable(2, "2-2", seed=4)
    assert calls == []
    with pytest.raises(ValueError, match=r"smallest eigenvalue -5\.000e-01"):
        DensityMatrix(np.diag([1.5, -0.5]), 2, 1)
    assert calls == [(1, 2, 2)]


def test_psd_gate_factors_the_shifted_hermitian_part(monkeypatch):
    # the gate builds H + atol*I in place; the matrix it factors is the out-of-place one
    factored = []
    cholesky = np.linalg.cholesky

    def recording(mat):
        factored.append(mat.copy())
        return cholesky(mat)

    monkeypatch.setattr(states.np.linalg, "cholesky", recording)
    atol = states.DEFAULT_ATOL
    u = haar_random_unitary(27, 3)
    stacks = [
        np.stack([random_mixed(3, 3, 27, seed).matrix for seed in range(4)]),
        np.stack([random_mixed(2, 4, rank, seed).matrix for seed, rank in enumerate((1, 2, 16))]),
        np.stack([_with_smallest_eigenvalue(u, -atol * f, s) for s, f in enumerate((0.999, 0, 0.5))]),
    ]
    for mats in stacks:
        before = mats.copy()
        states._check_densities(mats)
        assert np.array_equal(mats, before)
        herm = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
        assert np.array_equal(factored.pop(), herm + atol * np.eye(mats.shape[-1]))


_BAD_MEMBERS = {
    "non-finite": np.diag([np.nan, 0.0, 0.0, 1.0]),
    "non-Hermitian": np.array([[0.5, 0.3, 0, 0], [0.1, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    "trace": np.eye(4) / 2,
    "negative eigenvalue": np.diag([1.5, -0.5, 0.0, 0.0]),
    # admitted by the PSD gate (smallest eigenvalue -9e-10), refused by the purity range
    "purity": np.diag([1 + 0.9e-9, -0.9e-9, 0.0, 0.0]),
}


@pytest.mark.parametrize("kind", sorted(_BAD_MEMBERS))
def test_stacked_validator_refuses_one_bad_member_with_the_density_matrix_message(kind):
    bad = _BAD_MEMBERS[kind]
    with pytest.raises(ValueError) as single:
        DensityMatrix(bad, 2, 2)
    stack = np.stack([random_mixed(2, 2, 4, seed).matrix for seed in range(5)])
    states._check_densities(stack)  # the good stack passes
    stack[3] = bad
    with pytest.raises(ValueError) as stacked:
        states._check_densities(stack)
    assert str(stacked.value) == str(single.value)


def test_stacked_amplitude_check_refuses_one_unnormalized_row():
    amps = np.stack([haar_random_pure(2, 2, seed).amplitudes for seed in range(4)])
    states._check_amplitudes(amps)
    amps[2] *= 1.5
    with pytest.raises(ValueError, match="state vector norm"):
        states._check_amplitudes(amps)


def test_dense_size_cap_admits_d8_four_parties_and_refuses_d9():
    assert states._check_dims(8, 4) == (8, 4)
    with pytest.raises(ValueError, match="above the cap"):
        states._check_dims(9, 4)


@pytest.mark.parametrize(
    "make",
    [
        lambda: PureState([1.0], 1000, 4),
        lambda: DensityMatrix([[1.0]], 1000, 4),
        lambda: ghz(1000, 4),
        lambda: isotropic_ghz4(0.5, 1000),
        lambda: product_max_entangled(1000),
        lambda: product_state([((p,), np.ones(200) / np.sqrt(200)) for p in (1, 2, 3, 4)], 200),
        lambda: haar_random_pure(1000, 4, seed=0),
        lambda: random_mixed(1000, 4, 1, seed=0),
        lambda: random_separable(1000, "2-2", seed=0),
        lambda: generate_basis(10**5),
        lambda: haar_random_unitary(1 << 13, seed=0),
    ],
)
def test_oversized_states_are_refused_before_allocation(make):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the cap"):
            make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the refused sizes need more than 256 MiB per array
