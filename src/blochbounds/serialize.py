"""JSON wire format for states.

Every state document is an object with ``d``, ``parties`` and ``kind``.
Complex numbers are always two-element ``[re, im]`` arrays of JSON numbers,
matrices are dense and row-major.

    {"d": 2, "parties": 4, "kind": "pure",     "amplitudes": [[re, im], ...]}
    {"d": 2, "parties": 4, "kind": "ensemble", "members": [{"weight": w, "amplitudes": [...]}, ...]}
    {"d": 2, "parties": 4, "kind": "matrix",   "matrix": [[[re, im], ...], ...]}
    {"d": 2, "kind": "builtin", "name": "isotropic_ghz4", "params": {"x": 0.7}}

Builtin names: ``ghz`` (needs ``parties`` or ``params.parties``, and
both must agree when both are given), ``isotropic_ghz4`` (needs
``params.x``) and ``product_max_entangled``; the latter two are always
four-party. A ``params`` key its builtin does not read is refused.
"""

from __future__ import annotations

import json
from numbers import Real

import numpy as np

from . import states

__all__ = ["BUILTIN_NAMES", "state_from_json", "state_to_json", "as_density"]

_BUILTIN_PARAMS = {"ghz": ("parties",), "isotropic_ghz4": ("x",), "product_max_entangled": ()}
BUILTIN_NAMES = tuple(_BUILTIN_PARAMS)


def _require(obj, key):
    if key not in obj or obj[key] is None:
        raise ValueError(f"state document lacks required key {key!r}")
    return obj[key]


def _decode_complex(entries, what, ndim):
    """``entries``, a rectangular nest of ``[re, im]`` pairs of JSON numbers, as a complex array.

    ``ndim`` counts the pair axis, so a vector has 2 and a matrix 3. The
    floats are viewed as complex, so every entry round-trips exactly.
    """
    parts = np.array(entries, dtype=object)
    if parts.ndim != ndim or parts.shape[-1] != 2:
        raise ValueError(f"{what} must be a rectangular array of [re, im] pairs")
    for kind in set(map(type, parts.flat)):
        if issubclass(kind, (bool, np.bool_)) or not issubclass(kind, Real):
            raise ValueError(f"{what} entries must be JSON numbers, got {kind.__name__}")
    try:
        return parts.astype(float).view(complex)[..., 0]
    except OverflowError:
        raise ValueError(f"{what} entries must be JSON numbers within float range") from None


def _encode_complex(values):
    """A complex array as nested ``[re, im]`` pairs of floats."""
    return np.stack((values.real, values.imag), -1).tolist()


def state_from_json(obj):
    """Parse one state document; returns a PureState or a DensityMatrix."""
    if not isinstance(obj, dict):
        raise ValueError("state document must be a JSON object")
    kind = _require(obj, "kind")
    if kind == "builtin":
        return _builtin_state(obj)
    d = _require(obj, "d")
    n = _require(obj, "parties")
    if kind == "pure":
        amp = _decode_complex(_require(obj, "amplitudes"), "amplitudes", 2)
        return states.PureState(amp, d, n)
    if kind == "ensemble":
        entries = _require(obj, "members")
        if not isinstance(entries, list) or not all(isinstance(m, dict) for m in entries):
            raise ValueError("ensemble members must be an array of objects")
        members = []
        for member in entries:
            amp = _decode_complex(_require(member, "amplitudes"), "amplitudes", 2)
            members.append((_require(member, "weight"), states.PureState(amp, d, n)))
        return states.from_ensemble(states.Ensemble(members))
    if kind == "matrix":
        mat = _decode_complex(_require(obj, "matrix"), "matrix", 3)
        return states.DensityMatrix(mat, d, n)
    raise ValueError(f"unknown state kind {kind!r}")


def _check_parties(obj, expected):
    n = obj.get("parties")
    if n is not None and states._check_int(n, "party count") != expected:
        raise ValueError(f"builtin {obj.get('name')!r} is always {expected}-party")


def _builtin_state(obj):
    name = _require(obj, "name")
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
    params = {} if obj.get("params") is None else obj["params"]
    if not isinstance(params, dict):
        raise ValueError("builtin params must be a JSON object")
    for key in params:
        if key not in _BUILTIN_PARAMS[name]:
            raise ValueError(f"builtin {name!r} takes no parameter {key!r}")
    d = _require(obj, "d")
    if name == "ghz":
        n = obj.get("parties", params.get("parties"))
        if n is None:
            raise ValueError("builtin 'ghz' needs a party count")
        counts = {states._check_int(c, "party count") for c in (n, params.get("parties", n))}
        if len(counts) > 1:
            raise ValueError(f"builtin 'ghz' has parties {n} but params.parties {params['parties']}")
        return states.ghz(d, n)
    if name == "isotropic_ghz4":
        if "x" not in params:
            raise ValueError("builtin 'isotropic_ghz4' needs params.x")
        _check_parties(obj, 4)
        return states.isotropic_ghz4(params["x"], d)
    _check_parties(obj, 4)
    return states.product_max_entangled(d)


def _header(state, kind):
    return {"d": state.local_dim, "parties": state.num_parties, "kind": kind}


def state_to_json(state) -> dict:
    """Serialize a state: pure states dump amplitudes, densities the matrix."""
    if isinstance(state, states.PureState):
        return {**_header(state, "pure"), "amplitudes": _encode_complex(state.amplitudes)}
    if isinstance(state, states.DensityMatrix):
        return {**_header(state, "matrix"), "matrix": _encode_complex(state.matrix)}
    raise TypeError(f"cannot serialize {type(state).__name__}")


def _matrix_rows(matrix):
    """``json.dumps`` text of each row of ``_encode_complex(matrix)``, for a 2-D complex array.

    ``matrix`` has at least one column. The distinct magnitudes are
    formatted once, by one C ``json.dumps`` call: a Hermitian matrix holds
    each off-diagonal magnitude twice. Each entry takes its sign from
    ``np.signbit``, so ``-0.0`` keeps it. That work is done on the call; the
    returned iterator joins a row's text only when it is asked for the row.
    """
    parts = np.ascontiguousarray(matrix, dtype=complex).view(float)  # a row is re, im, re, im, ...
    magnitudes, index = np.unique(np.abs(parts), return_inverse=True)
    index = index.reshape(parts.shape)
    texts = np.array(json.dumps(magnitudes.tolist())[1:-1].split(", "), dtype=object)
    negative = np.signbit(parts).view(np.int8)  # 1 where the sign is set: an index into signs
    signs = np.array(["", "-"], dtype=object)
    pieces = np.empty((parts.shape[1], 3), dtype=object)  # sign, magnitude, what follows it
    pieces[:, 2] = [", ", "], ["] * (parts.shape[1] // 2)
    pieces[-1, 2] = "]]"

    def row(r):
        pieces[:, 0] = signs[negative[r]]
        pieces[:, 1] = texts[index[r]]
        return "[[" + "".join(pieces.ravel().tolist())

    return map(row, range(len(parts)))


def _dump_matrix(state, path):
    """Write ``json.dumps(state_to_json(state))`` of a ``DensityMatrix`` to ``path``, row by row.

    The magnitudes are formatted before ``path`` is opened, so a failure
    there leaves no file, and no whole-document string is ever built.
    """
    rows = _matrix_rows(state.matrix)
    head, tail = json.dumps({**_header(state, "matrix"), "matrix": []}).split("[]")
    with open(path, "w", encoding="utf-8") as handle:
        separator = head + "["
        for text in rows:
            handle.write(separator)
            handle.write(text)
            separator = ", "
        handle.write("]" + tail)


def as_density(state) -> states.DensityMatrix:
    """Coerce a parsed state to a density matrix."""
    if isinstance(state, states.PureState):
        return states.from_pure(state)
    return state
