from pathlib import Path

import pytest

import blochbounds
from blochbounds import basis, bloch, bounds, sampling, serialize, states, sweeps

#: The package's public names before the modules' ``__all__`` lists became the only list.
EARLIER_EXPORTS = """
    BlochDecomposition BlochTensor BoundTable CLASS_LABELS CheckOutcome
    ClassificationReport DensityMatrix Ensemble GeneratorBasis MIXED_GINIBRE
    NECESSARY_ONLY_NOTE PURE_HAAR PureState SEPARABLE_SPLITS SampleSpec
    SeparabilityThresholds SweepReport TradeoffResult all_subsets as_density as_pure
    available_checks ball_radii bipartite_norm_bound bloch_tensor bound_table classify
    et_bound_audit et_measure et_upper_bound et_upper_bound_via_norm_bound
    fourpartite_norm_bound from_ensemble from_pure full_decomposition generate_basis
    ghz haar_random_pure haar_random_unitary isotropic_ghz4 norms_by_order
    partial_trace product_max_entangled product_state pure_pair_sum_residual
    pure_triple_sum_residual purity purity_from_decomposition random_mixed
    random_separable reconstruct run_sweep sample_seed separability_thresholds
    splitmix64 state_from_json state_to_json tensor_norm_sq tradeoff_check
    tripartite_norm_bound triple_sum_bound
""".split()

#: Earlier public names since removed: the per-class caps became ``separability_thresholds(d)``,
#: a plain dict keyed by class label.
REMOVED_EXPORTS = ["SeparabilityThresholds"]


def test_package_exports_the_union_of_module_exports():
    modules = (basis, bloch, bounds, sampling, serialize, states, sweeps)
    union = [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union))
    assert sorted(blochbounds.__all__) == sorted(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(blochbounds, name) is getattr(module, name)
    assert len(EARLIER_EXPORTS) == 61
    assert set(EARLIER_EXPORTS) - set(blochbounds.__all__) == set(REMOVED_EXPORTS)
    assert isinstance(blochbounds.__version__, str)


def test_readme_quick_start_runs_and_its_claims_hold():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    bb, report = namespace["bb"], namespace["report"]
    assert bb.tensor_norm_sq(namespace["t"]) == namespace["outcome"].max_observed
    assert sorted(report.excluded) == ["1-1-1-1", "1-1-2", "1-3"]
    assert report.norm_sq_1234 == pytest.approx(4.41, abs=1e-12)
    assert bb.et_measure(namespace["psi"]) == pytest.approx(bb.et_upper_bound(3, 3), abs=1e-12)
