"""Seeded ``verify`` reports pinned to recorded values.

The values were recorded while the separable draws were still read call by
call through ``np.random.Generator``, so they pin the stream layout and its
raw-word decode as well as the checks. A check's worst sample (``worst_index``, ``worst_seed``) and its
verdict are pinned exactly, and ``max_observed`` to 1e-12 relative, so
that the pins hold on any numpy and BLAS. The identity and round-trip
checks measure round-off, whose worst sample depends on the BLAS; of
those only the verdict is pinned.
"""

import json
import math

import pytest

from blochbounds import MIXED_GINIBRE, PURE_HAAR, sample_seed
from blochbounds.cli import main

ROUND_OFF_CHECKS = {
    "purity-identity",
    "marginal-purity",
    "pure-pair-sum-rule",
    "pure-triple-sum-rule",
    "reconstruction-round-trip",
}

# (d, kind, samples) of a four-party sweep at base seed 1 -> check ->
# (worst_index, worst_seed, passed, max_observed)
PINNED = {
    (2, PURE_HAAR, 20): {
        "ball-radius": (16, 15040563541741120241, True, 0.5842993891296975),
        "bipartite-norm-bound": (5, 16184226688143867045, True, 1.1486221412961326),
        "tripartite-norm-bound": (16, 15040563541741120241, True, 2.571491215537065),
        "fourpartite-norm-bound": (14, 3081251696030599739, True, 6.002831381186109),
        "triple-norm-tradeoff": (17, 12575237177726700014, True, 7.145668079408104),
        "separable-1-3": (16, 15040563541741120241, True, 1.3998428611756095),
        "separable-2-2": (12, 9778231605760336522, True, 1.790326880721407),
        "separable-1-1-2": (12, 9778231605760336522, True, 0.9647949365680494),
        "separable-1-1-1-1": (16, 15040563541741120241, True, 0.40347097689478423),
    },
    (3, PURE_HAAR, 4): {
        "ball-radius": (1, 17911839290282890590, True, 0.10837547927416419),
        "bipartite-norm-bound": (3, 8195237237126968761, True, 0.49082038866855604),
        "tripartite-norm-bound": (1, 17911839290282890590, True, 1.9781734540914717),
        "fourpartite-norm-bound": (3, 8195237237126968761, True, 10.222510758452813),
        "triple-norm-tradeoff": (1, 17911839290282890590, True, 7.386291999365994),
        "separable-1-3": (1, 17911839290282890590, True, 1.8409360238859434),
        "separable-2-2": (1, 17911839290282890590, True, 2.068587451709428),
        "separable-1-1-2": (1, 17911839290282890590, True, 1.2572623935434528),
        "separable-1-1-1-1": (1, 17911839290282890590, True, 0.8136740226321948),
    },
    (3, MIXED_GINIBRE, 3): {
        "ball-radius": (0, 13757245211066428519, True, 0.0019914125041870265),
        "bipartite-norm-bound": (2, 8196980753821780235, True, 0.005341301087326665),
        "tripartite-norm-bound": (2, 8196980753821780235, True, 0.024891355878903038),
        "fourpartite-norm-bound": (0, 13757245211066428519, True, 0.12406015261400472),
        "triple-norm-tradeoff": (1, 17911839290282890590, True, 0.09407218060640304),
        "separable-1-3": (1, 17911839290282890590, True, 1.8409360238859434),
        "separable-2-2": (1, 17911839290282890590, True, 2.068587451709428),
        "separable-1-1-2": (1, 17911839290282890590, True, 1.2572623935434528),
        "separable-1-1-1-1": (1, 17911839290282890590, True, 0.8136740226321948),
    },
}


@pytest.mark.parametrize("d, kind, samples", sorted(PINNED))
def test_seeded_report_matches_its_pins(capsys, d, kind, samples):
    argv = ["verify", "--d", str(d), "--parties", "4", "--samples", str(samples),
            "--seed", "1", "--kind", kind, "--format", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    outcomes = {check["name"]: check for check in report["checks"]}
    pinned = PINNED[(d, kind, samples)]
    assert set(outcomes) - ROUND_OFF_CHECKS == set(pinned)
    for name, (index, seed, passed, value) in pinned.items():
        outcome = outcomes[name]
        assert (outcome["worst_index"], outcome["worst_seed"], outcome["passed"]) == (
            index, seed, passed
        ), name
        assert seed == sample_seed(1, index)
        assert math.isclose(outcome["max_observed"], value, rel_tol=1e-12, abs_tol=0.0), name
    for name in set(outcomes) & ROUND_OFF_CHECKS:
        assert outcomes[name]["passed"] is True, name
