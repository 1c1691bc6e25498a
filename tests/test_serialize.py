import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochbounds import (
    DensityMatrix,
    PureState,
    as_density,
    from_pure,
    ghz,
    haar_random_pure,
    isotropic_ghz4,
    product_max_entangled,
    purity,
    state_from_json,
    state_to_json,
)
from blochbounds.serialize import _dump_matrix, _encode_complex, _matrix_rows
from conftest import MALFORMED_COMPLEX_DOCS, MALFORMED_SHAPE_DOCS, UNREAD_PARAM_DOCS


def test_pure_round_trip():
    psi = ghz(3, 2)
    doc = state_to_json(psi)
    assert doc["kind"] == "pure"
    back = state_from_json(doc)
    assert isinstance(back, PureState)
    np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=0)


def test_matrix_round_trip():
    rho = isotropic_ghz4(0.4, 2)
    doc = state_to_json(rho)
    assert doc["kind"] == "matrix"
    back = state_from_json(doc)
    assert isinstance(back, DensityMatrix)
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=0)


def test_ensemble_kind_parses_to_expected_mixture():
    up = [[1.0, 0.0], [0.0, 0.0]]
    down = [[0.0, 0.0], [1.0, 0.0]]
    doc = {
        "d": 2,
        "parties": 1,
        "kind": "ensemble",
        "members": [
            {"weight": 0.25, "amplitudes": up},
            {"weight": 0.75, "amplitudes": down},
        ],
    }
    rho = state_from_json(doc)
    np.testing.assert_allclose(rho.matrix, np.diag([0.25, 0.75]), atol=1e-14)


def test_builtin_ghz():
    doc = {"kind": "builtin", "name": "ghz", "d": 3, "parties": 3}
    back = state_from_json(doc)
    np.testing.assert_allclose(back.amplitudes, ghz(3, 3).amplitudes, atol=0)


def test_builtin_isotropic():
    doc = {"kind": "builtin", "name": "isotropic_ghz4", "d": 2, "params": {"x": 0.7}}
    back = state_from_json(doc)
    np.testing.assert_allclose(back.matrix, isotropic_ghz4(0.7, 2).matrix, atol=0)


def test_builtin_paired_entanglement():
    doc = {"kind": "builtin", "name": "product_max_entangled", "d": 2}
    back = state_from_json(doc)
    np.testing.assert_allclose(back.amplitudes, product_max_entangled(2).amplitudes, atol=0)


def test_builtin_errors():
    with pytest.raises(ValueError, match="unknown builtin"):
        state_from_json({"kind": "builtin", "name": "unicorn", "d": 2})
    with pytest.raises(ValueError, match="party count"):
        state_from_json({"kind": "builtin", "name": "ghz", "d": 2})
    with pytest.raises(ValueError, match="params.x"):
        state_from_json({"kind": "builtin", "name": "isotropic_ghz4", "d": 2})
    with pytest.raises(ValueError, match="4-party"):
        state_from_json(
            {"kind": "builtin", "name": "product_max_entangled", "d": 2, "parties": 3}
        )
    for x in ("0.7", True, 10**400):
        with pytest.raises(ValueError, match="mixing weight"):
            state_from_json(
                {"kind": "builtin", "name": "isotropic_ghz4", "d": 2, "params": {"x": x}}
            )


@pytest.mark.parametrize("case", sorted(UNREAD_PARAM_DOCS))
def test_builtin_params_the_builtin_does_not_read_are_refused(case):
    doc, message = UNREAD_PARAM_DOCS[case]
    with pytest.raises(ValueError, match=message):
        state_from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "builtin", "name": "ghz", "d": 3, "params": {"parties": 3}},
        {"kind": "builtin", "name": "ghz", "d": 3, "parties": 3, "params": {"parties": 3}},
    ],
    ids=["params-only", "both-agree"],
)
def test_builtin_ghz_party_count_from_params(doc):
    back = state_from_json(doc)
    np.testing.assert_array_equal(back.amplitudes, ghz(3, 3).amplitudes)


def test_schema_errors():
    with pytest.raises(ValueError):
        state_from_json([1, 2, 3])
    with pytest.raises(ValueError, match="kind"):
        state_from_json({"d": 2, "parties": 1})
    with pytest.raises(ValueError, match="unknown state kind"):
        state_from_json({"d": 2, "parties": 1, "kind": "telepathic"})
    with pytest.raises(ValueError, match="amplitudes"):
        state_from_json({"d": 2, "parties": 1, "kind": "pure"})
    with pytest.raises(ValueError, match="pairs"):
        state_from_json({"d": 2, "parties": 1, "kind": "pure", "amplitudes": [1.0, 0.0]})


@pytest.mark.parametrize("case", sorted(MALFORMED_COMPLEX_DOCS))
def test_complex_entries_must_be_json_number_pairs(case):
    with pytest.raises(ValueError, match="JSON numbers|rectangular array"):
        state_from_json(MALFORMED_COMPLEX_DOCS[case])


@pytest.mark.parametrize("case", sorted(MALFORMED_SHAPE_DOCS))
def test_fields_of_the_wrong_json_type_are_refused_by_name(case):
    doc, field = MALFORMED_SHAPE_DOCS[case]
    with pytest.raises(ValueError, match=f"{field} must be"):
        state_from_json(doc)


@pytest.mark.parametrize("weight", [True, "1.0", None, [1.0], pytest.param(10**400, id="huge")])
def test_ensemble_weight_must_be_a_json_number(weight):
    doc = {
        "d": 2,
        "parties": 1,
        "kind": "ensemble",
        "members": [{"weight": weight, "amplitudes": [[1, 0], [0, 0]]}],
    }
    with pytest.raises(ValueError, match="weight"):
        state_from_json(doc)
    doc["members"][0]["weight"] = 1
    assert purity(state_from_json(doc)) == 1.0


def test_invalid_states_rejected_on_parse():
    with pytest.raises(ValueError, match="norm"):
        state_from_json(
            {"d": 2, "parties": 1, "kind": "pure", "amplitudes": [[1, 0], [1, 0]]}
        )
    bad_matrix = [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]]
    with pytest.raises(ValueError, match="trace"):
        state_from_json({"d": 2, "parties": 1, "kind": "matrix", "matrix": bad_matrix})


def test_as_density_coerces_pure_states():
    psi = ghz(2, 2)
    rho = as_density(psi)
    assert isinstance(rho, DensityMatrix)
    assert abs(purity(rho) - 1.0) < 1e-12
    same = as_density(rho)
    assert same is rho


def test_serialize_rejects_other_types():
    with pytest.raises(TypeError):
        state_to_json(np.eye(2))


def test_serialized_floats_preserve_exact_values():
    psi = ghz(3, 2)
    doc = state_to_json(psi)
    back = state_from_json(doc)
    assert np.array_equal(back.amplitudes, psi.amplitudes)
    rho = from_pure(psi)
    back_rho = state_from_json(state_to_json(rho))
    assert np.array_equal(back_rho.matrix, rho.matrix)


def assert_dump_is_the_stdlib_text(rho, path):
    """``_dump_matrix`` writes ``json.dumps(state_to_json(rho))`` byte for byte."""
    _dump_matrix(rho, path)
    assert path.read_bytes() == json.dumps(state_to_json(rho)).encode()


def test_dump_of_the_full_rank_d4_document_is_the_stdlib_text(tmp_path, d4_matrix_file):
    rho = state_from_json(json.loads(d4_matrix_file.read_text()))
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)  # every off-diagonal magnitude twice
    assert_dump_is_the_stdlib_text(rho, tmp_path / "dump.json")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dump_of_a_pure_projector_is_the_stdlib_text(tmp_path, seed):
    # a rounded outer product need not be exactly Hermitian, so fewer magnitudes pair up
    assert_dump_is_the_stdlib_text(from_pure(haar_random_pure(4, 4, seed)), tmp_path / "dump.json")


def test_dump_with_no_shared_magnitude_is_the_stdlib_text(tmp_path, d4_matrix_file):
    mat = state_from_json(json.loads(d4_matrix_file.read_text())).matrix.copy()
    lower = np.tril_indices(len(mat), -1)
    mat[lower] = np.nextafter(mat[lower].real, np.inf) + 1j * np.nextafter(mat[lower].imag, np.inf)
    rho = DensityMatrix(mat, 4, 4)
    off_diagonal = rho.matrix[~np.eye(len(mat), dtype=bool)].view(float)
    assert np.unique(np.abs(off_diagonal)).size == off_diagonal.size
    assert_dump_is_the_stdlib_text(rho, tmp_path / "dump.json")


def test_dump_keeps_signed_zeros_subnormals_and_exponent_forms(tmp_path):
    zeros = [[complex(0.5, -0.0), complex(-0.0, 0.0)], [complex(-0.0, -0.0), complex(0.5, 0.0)]]
    small = [[1 - 1e-05, complex(5e-324, 1e-05)], [complex(-5e-324, -1e-05), 1e-05]]
    cases = [
        (zeros, "[[[0.5, -0.0], [-0.0, 0.0]], [[-0.0, -0.0], [0.5, 0.0]]]"),
        (small, "[[[0.99999, 0.0], [5e-324, 1e-05]], [[-5e-324, -1e-05], [1e-05, 0.0]]]"),
    ]
    for matrix, text in cases:
        path = tmp_path / "dump.json"
        assert_dump_is_the_stdlib_text(DensityMatrix(matrix, 2, 1), path)
        assert path.read_text().endswith(f'"matrix": {text}}}')


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dump_of_every_builtin_is_the_stdlib_text(tmp_path, d):
    for state in (ghz(d, 4), ghz(d, 2), isotropic_ghz4(0.3, d), product_max_entangled(d)):
        assert_dump_is_the_stdlib_text(as_density(state), tmp_path / "dump.json")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_matrix_rows_are_the_stdlib_text_of_each_row(pool, rows, columns, data):
    # entries drawn from a small pool with random signs, so magnitudes repeat and negate
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=2 * rows * columns,
                               max_size=2 * rows * columns))
    signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(picks),
                               max_size=len(picks)))
    parts = np.array(picks) * np.array(signs)
    matrix = parts.view(complex).reshape(rows, columns)
    assert list(_matrix_rows(matrix)) == [json.dumps(row) for row in _encode_complex(matrix)]
