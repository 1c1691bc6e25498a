"""Outside-in span tracing of the blochbounds layers.

The tracer wraps each layer's public functions at every module binding that
callers use (``sweeps.full_decomposition`` and ``bloch.full_decomposition``
are separate bindings and both get wrapped), the ``PureState`` /
``DensityMatrix`` / ``Ensemble`` constructors, and the ``json`` functions the
CLI calls. Nothing inside the program is edited: spans sit at the boundaries
between layers, as seen from their callers.

A span's self time is its duration minus the durations of the spans it
directly encloses. A layer's total time sums only its outermost spans, so a
layer that calls itself (``full_decomposition`` -> ``bloch_tensor``) is not
counted twice. Names missing from the program (a later refactor may delete
a function) are skipped; the affected counts then read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# span kind -> (defining module, public functions wrapped at every binding)
FUNCTION_SPANS = (
    ("sampling", "sampling", (
        "splitmix64", "sample_seed", "haar_random_pure", "random_mixed",
        "haar_random_unitary", "random_separable",
    )),
    ("states.marginal", "states", ("partial_trace",)),
    ("states.build", "states", (
        "from_pure", "from_ensemble", "ghz", "isotropic_ghz4",
        "product_max_entangled", "product_state", "purity", "as_pure",
    )),
    ("bloch.extract", "bloch", ("bloch_tensor", "full_decomposition")),
    ("bloch.reconstruct", "bloch", ("reconstruct", "embed_operator")),
    ("bloch.norms", "bloch", (
        "all_subsets", "tensor_norm_sq", "purity_from_decomposition",
        "norms_by_order", "pure_pair_sum_residual", "pure_triple_sum_residual",
    )),
    ("bounds", "bounds", (
        "ball_radii", "bipartite_norm_bound", "tripartite_norm_bound",
        "fourpartite_norm_bound", "triple_sum_bound", "bound_table",
        "separability_thresholds", "classify", "et_measure", "et_upper_bound",
        "et_upper_bound_via_norm_bound", "et_bound_audit", "tradeoff_check",
    )),
    ("sweeps", "sweeps", ("run_sweep", "available_checks")),
    ("serialize.load", "serialize", ("state_from_json", "as_density")),
    ("serialize.dump", "serialize", ("state_to_json",)),
    ("cli", "cli", ("main",)),
)

# span kind -> (defining module, classes whose constructor is wrapped)
CONSTRUCTOR_SPANS = (
    ("states.validate", "states", ("PureState", "DensityMatrix")),
    ("states.build", "states", ("Ensemble",)),
)

# span kind -> json function, wrapped only at the ``cli.json`` binding
JSON_SPANS = (
    ("json.decode", ("load", "loads")),
    ("json.encode", ("dump", "dumps")),
)

LAYERS = ("sampling", "states", "bloch", "bounds", "sweeps", "serialize", "cli")


def _layer(kind):
    return kind.split(".", 1)[0]


def _coefficient_count(result):
    """Coefficients held by an extraction result (one tensor or a decomposition)."""
    tensors = getattr(result, "tensors", None)
    if isinstance(tensors, dict):
        return sum(t.coefficients.size for t in tensors.values())
    coefficients = getattr(result, "coefficients", None)
    return 0 if coefficients is None else coefficients.size


class _JsonProxy:
    """Stands in for the ``json`` module inside ``cli`` with traced functions."""

    def __init__(self, traced):
        self._traced = traced

    def __getattr__(self, name):
        return self._traced.get(name) or getattr(json, name)


class Tracer:
    """Collects span counts and times while installed; see ``install``."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.coefficients = 0
        self._children = []
        self._open_kind = Counter()
        self._open_layer = Counter()
        self._restore = []

    def wrap(self, kind, fn):
        layer = _layer(kind)
        count_coefficients = kind == "bloch.extract"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_kind = self._open_kind[kind] == 0
            outer_layer = self._open_layer[layer] == 0
            self._open_kind[kind] += 1
            self._open_layer[layer] += 1
            self._children.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                child = self._children.pop()
                self._open_kind[kind] -= 1
                self._open_layer[layer] -= 1
                if self._children:
                    self._children[-1] += elapsed
                self.calls[kind] += 1
                self.self_ns[kind] += elapsed - child
                if outer_layer:
                    self.total_ns[layer] += elapsed
            if count_coefficients and outer_kind:
                self.coefficients += _coefficient_count(result)
            return result

        return traced

    def install(self, package):
        """Wrap every binding of the traced functions in the loaded package modules."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        wrappers = {}
        for kind, module_name, names in FUNCTION_SPANS:
            home = sys.modules.get(f"{package}.{module_name}")
            for name in names:
                fn = getattr(home, name, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self.wrap(kind, fn))
        for module in modules:
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, name, entry[1])
        for kind, module_name, names in CONSTRUCTOR_SPANS:
            home = sys.modules.get(f"{package}.{module_name}")
            for name in names:
                cls = getattr(home, name, None)
                if isinstance(cls, type) and "__init__" in vars(cls):
                    self._patch(cls, "__init__", self.wrap(kind, cls.__init__))
        cli = sys.modules.get(f"{package}.cli")
        if getattr(cli, "json", None) is json:
            traced = {
                name: self.wrap(kind, getattr(json, name))
                for kind, names in JSON_SPANS
                for name in names
            }
            self._patch(cli, "json", _JsonProxy(traced))

    def _patch(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def layer_metrics(self, samples):
        """Per-layer counts and times; ``samples`` counts the states that came in."""
        calls, self_s = Counter(), Counter()
        for kind, n in self.calls.items():
            calls[_layer(kind)] += n
            self_s[_layer(kind)] += self.self_ns[kind] / 1e9
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = (calls[layer], "count")
            metrics[f"{layer}.total_s"] = (self.total_ns[layer] / 1e9, "s")
            metrics[f"{layer}.self_s"] = (float(self_s[layer]), "s")

        def kind_s(kind):
            return self.self_ns[kind] / 1e9

        validations = self.calls["states.validate"]
        extract_ns = self.self_ns["bloch.extract"]
        metrics.update({
            "states.validations": (validations, "count"),
            "states.validate_self_s": (kind_s("states.validate"), "s"),
            "states.validations_per_state": (validations / max(samples, 1), "count/state"),
            "states.marginal_calls": (self.calls["states.marginal"], "count"),
            "states.marginal_self_s": (kind_s("states.marginal"), "s"),
            "states.build_self_s": (kind_s("states.build"), "s"),
            "bloch.tensor_calls": (self.calls["bloch.extract"], "count"),
            "bloch.extract_self_s": (kind_s("bloch.extract"), "s"),
            "bloch.reconstruct_self_s": (kind_s("bloch.reconstruct"), "s"),
            "bloch.norms_self_s": (kind_s("bloch.norms"), "s"),
            "bloch.ns_per_coeff": (extract_ns / self.coefficients if self.coefficients else 0.0, "ns"),
            "serialize.load_self_s": (kind_s("serialize.load"), "s"),
            "serialize.dump_self_s": (kind_s("serialize.dump"), "s"),
            "cli.json_decode_s": (kind_s("json.decode"), "s"),
            "cli.json_encode_s": (kind_s("json.encode"), "s"),
        })
        return metrics
