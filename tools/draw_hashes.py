"""Print one SHA-256 per public draw over d = 2..4 and four seeds.

Run with the tree under test on ``PYTHONPATH``; ``same_bytes.py`` runs it
as one of its commands. Each line hashes the raw bytes of every array the
named function returns, so a draw that moves one bit changes its line.
"""

import hashlib

from blochbounds import (
    MIXED_GINIBRE,
    PURE_HAAR,
    SEPARABLE_SPLITS,
    SampleSpec,
    full_decomposition,
    haar_random_pure,
    haar_random_unitary,
    random_mixed,
    random_separable,
    separable_tensor,
)

SEEDS = (0, 1, 12345, 2**64 - 1)


def cases(d):
    """``(name, array)`` of every draw at local dimension ``d`` and each seed."""
    for seed in SEEDS:
        yield "haar_random_unitary", haar_random_unitary(d**2, seed)
        for n in (1, 2, 3, 4):
            yield "haar_random_pure", haar_random_pure(d, n, seed).amplitudes
            yield "random_mixed", random_mixed(d, n, 2, seed).matrix
            for kind in (PURE_HAAR, MIXED_GINIBRE):
                rho = SampleSpec(d, n, kind, 2, seed).draw(1)
                yield "SampleSpec.draw", rho.matrix
                yield "full_decomposition", full_decomposition(rho).coefficients
        for label in SEPARABLE_SPLITS:
            yield "random_separable", random_separable(d, label, seed).matrix
            yield "separable_tensor", separable_tensor(d, label, seed).coefficients


def main():
    hashes = {}
    for d in (2, 3, 4):
        for name, array in cases(d):
            hashes.setdefault(name, hashlib.sha256()).update(array.tobytes())
    for name, digest in hashes.items():
        print(name, digest.hexdigest())


if __name__ == "__main__":
    main()
