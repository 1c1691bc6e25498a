"""JSON wire format for states.

Every state document is an object with ``d``, ``parties`` and ``kind``.
Complex numbers are always two-element ``[re, im]`` arrays, matrices are
dense and row-major.

    {"d": 2, "parties": 4, "kind": "pure",     "amplitudes": [[re, im], ...]}
    {"d": 2, "parties": 4, "kind": "ensemble", "members": [{"weight": w, "amplitudes": [...]}, ...]}
    {"d": 2, "parties": 4, "kind": "matrix",   "matrix": [[[re, im], ...], ...]}
    {"d": 2, "kind": "builtin", "name": "isotropic_ghz4", "params": {"x": 0.7}}

Builtin names: ``ghz`` (needs ``parties``), ``isotropic_ghz4`` (needs
``params.x``) and ``product_max_entangled``; the latter two are always
four-party.
"""

from __future__ import annotations

import numpy as np

from . import states

__all__ = ["BUILTIN_NAMES", "state_from_json", "state_to_json", "as_density"]

BUILTIN_NAMES = ("ghz", "isotropic_ghz4", "product_max_entangled")


def _require(obj, key):
    if key not in obj or obj[key] is None:
        raise ValueError(f"state document lacks required key {key!r}")
    return obj[key]


def _complex_from_pair(pair):
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"complex entries must be [re, im] pairs, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _vector_from_pairs(pairs):
    return np.array([_complex_from_pair(p) for p in pairs], dtype=complex)


def _pairs_from_vector(vec):
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec).reshape(-1)]


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
        return states.PureState(_vector_from_pairs(_require(obj, "amplitudes")), d, n)
    if kind == "ensemble":
        members = []
        for member in _require(obj, "members"):
            amp = _vector_from_pairs(_require(member, "amplitudes"))
            members.append((_weight(member), states.PureState(amp, d, n)))
        return states.from_ensemble(states.Ensemble(members))
    if kind == "matrix":
        rows = _require(obj, "matrix")
        mat = np.array(
            [[_complex_from_pair(entry) for entry in row] for row in rows],
            dtype=complex,
        )
        return states.DensityMatrix(mat, d, n)
    raise ValueError(f"unknown state kind {kind!r}")


def _weight(member):
    """An ensemble member's weight, which must be a JSON number (not a bool or a string)."""
    weight = _require(member, "weight")
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise ValueError(f"ensemble weight must be a number, got {weight!r}")
    return float(weight)


def _check_parties(obj, expected):
    n = obj.get("parties")
    if n is not None and states._check_int(n, "party count") != expected:
        raise ValueError(f"builtin {obj.get('name')!r} is always {expected}-party")


def _builtin_state(obj):
    name = _require(obj, "name")
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
    params = obj.get("params") or {}
    d = _require(obj, "d")
    if name == "ghz":
        n = obj.get("parties", params.get("parties"))
        if n is None:
            raise ValueError("builtin 'ghz' needs a party count")
        return states.ghz(d, n)
    if name == "isotropic_ghz4":
        if "x" not in params:
            raise ValueError("builtin 'isotropic_ghz4' needs params.x")
        _check_parties(obj, 4)
        return states.isotropic_ghz4(float(params["x"]), d)
    _check_parties(obj, 4)
    return states.product_max_entangled(d)


def state_to_json(state) -> dict:
    """Serialize a state: pure states dump amplitudes, densities the matrix."""
    if isinstance(state, states.PureState):
        return {
            "d": state.local_dim,
            "parties": state.num_parties,
            "kind": "pure",
            "amplitudes": _pairs_from_vector(state.amplitudes),
        }
    if isinstance(state, states.DensityMatrix):
        return {
            "d": state.local_dim,
            "parties": state.num_parties,
            "kind": "matrix",
            "matrix": [
                [[float(z.real), float(z.imag)] for z in row] for row in state.matrix
            ],
        }
    raise TypeError(f"cannot serialize {type(state).__name__}")


def as_density(state) -> states.DensityMatrix:
    """Coerce a parsed state to a density matrix."""
    if isinstance(state, states.PureState):
        return states.from_pure(state)
    return state
