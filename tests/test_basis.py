import numpy as np
import pytest

from blochbounds import generate_basis
from conftest import gram_matrix, random_hermitian, validate_basis

ATOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

S = 1 / np.sqrt(3)
GELL_MANN = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),          # sym(0,1)
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]]),          # sym(0,2)
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),          # sym(1,2)
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]),       # asym(0,1)
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]),       # asym(0,2)
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]),       # asym(1,2)
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),         # diag(1)
    S * np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]]),     # diag(2)
]


def test_d2_is_the_pauli_triple_in_order():
    basis = generate_basis(2)
    assert len(basis) == 3
    np.testing.assert_array_equal(basis[0], PAULI_X)
    np.testing.assert_array_equal(basis[1], PAULI_Y)
    np.testing.assert_array_equal(basis[2], PAULI_Z)
    assert basis.labels == ("sym(0,1)", "asym(0,1)", "diag(1)")


def test_d3_is_the_gell_mann_set():
    basis = generate_basis(3)
    assert len(basis) == 8
    for got, expected in zip(basis, GELL_MANN):
        np.testing.assert_allclose(got, expected, atol=ATOL)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_count_hermiticity_trace_orthogonality(d):
    basis = generate_basis(d)
    m = d * d - 1
    assert len(basis) == m
    for g in basis:
        assert g.shape == (d, d)
        assert np.abs(g - g.conj().T).max() <= ATOL
        assert abs(np.trace(g)) <= ATOL
    gram = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            gram[i, j] = np.trace(basis[i] @ basis[j]).real
    np.testing.assert_allclose(gram, 2.0 * np.eye(m), atol=ATOL)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gram_matrix_method(d):
    basis = generate_basis(d)
    np.testing.assert_allclose(
        gram_matrix(basis), 2.0 * np.eye(d * d - 1), atol=ATOL
    )


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_validate_passes(d):
    validate_basis(generate_basis(d))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_spans_hermitian_matrices(d):
    basis = generate_basis(d)
    h = random_hermitian(d, seed=100 + d)
    rebuilt = np.trace(h) / d * np.eye(d, dtype=complex)
    for g in basis:
        rebuilt += 0.5 * np.trace(h @ g) * g
    np.testing.assert_allclose(rebuilt, h, atol=1e-10)


@pytest.mark.parametrize("d", [1, 0, -3])
def test_invalid_dimension_rejected(d):
    with pytest.raises(ValueError):
        generate_basis(d)


def test_generators_are_read_only():
    basis = generate_basis(3)
    with pytest.raises(ValueError):
        basis[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        basis.stacked()[0, 0, 0] = 5.0


def test_label_grouping_matches_ordering():
    labels = generate_basis(4).labels
    kinds = [label.split("(")[0] for label in labels]
    assert kinds == ["sym"] * 6 + ["asym"] * 6 + ["diag"] * 3
