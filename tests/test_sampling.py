import numpy as np
import pytest

from blochbounds import (
    MIXED_GINIBRE,
    PURE_HAAR,
    SEPARABLE_MEMBERS,
    SEPARABLE_SPLITS,
    SampleSpec,
    bloch_tensor,
    from_pure,
    haar_random_pure,
    haar_random_unitary,
    purity,
    random_mixed,
    random_separable,
    sample_seed,
    splitmix64,
)
from blochbounds import sampling, states, sweeps
from blochbounds.sampling import _complex_normals, _ginibre_densities, _haar_amplitudes
from conftest import (
    CLASS_SPLITS,
    party_count,
    separable_densities,
    single_ginibre_matrix,
    single_haar_amplitudes,
    single_separable_matrix,
    single_separable_members,
)


def test_splitmix64_reference_vector():
    # first output of the standard splitmix64 stream seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_splitmix64_stays_in_64_bits():
    for value in (0, 1, 2**63, 2**64 - 1, 123456789):
        out = splitmix64(value)
        assert 0 <= out < 2**64


def test_sample_seeds_are_distinct_and_deterministic():
    seeds = [sample_seed(99, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert seeds == [sample_seed(99, i) for i in range(1000)]
    assert sample_seed(99, 0) != sample_seed(100, 0)


@pytest.mark.parametrize(
    "hash_, args",
    [
        (sample_seed, (2.7, 0)),
        (sample_seed, (-1, 0)),
        (sample_seed, (2**64, 0)),
        (sample_seed, (True, 0)),
        (sample_seed, (0, 2.5)),
        (sample_seed, (0, -1)),
        (sample_seed, (0, 2**64)),
        (splitmix64, (-1,)),
        (splitmix64, (2**64,)),
        (splitmix64, (1.0,)),
    ],
    ids=lambda value: getattr(value, "__name__", repr(value)),
)
def test_seed_hashes_refuse_what_they_would_alias(hash_, args):
    # each of these used to be truncated or masked onto another seed's value
    with pytest.raises(ValueError, match="must be an integer"):
        hash_(*args)


@pytest.mark.parametrize("base", [0, 99, 2**64 - 1])
@pytest.mark.parametrize("start, stop", [(0, 40), (2**63 - 3, 2**63 + 3), (2**64 - 5, 2**64)])
def test_chunk_seeds_hash_like_sample_seed(base, start, stop):
    seeds = sampling._sample_seeds(base, start, stop)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [sample_seed(base, i) for i in range(start, stop)]


def test_a_re_keyed_stream_reads_a_fresh_philox_stream():
    # each seed after a seed whose reads left a pending 32-bit half (integers, then random)
    seeds = [0, 1, 2**63, 2**64 - 1]
    for rng, seed in zip(sampling._streams(seeds + seeds[::-1]), seeds + seeds[::-1]):
        fresh = np.random.Generator(np.random.Philox(key=seed))
        assert rng.integers(3) == fresh.integers(3)
        assert np.array_equal(rng.random(9), fresh.random(9))
        assert np.array_equal(rng.bit_generator.random_raw(5), fresh.bit_generator.random_raw(5))


def test_a_sweep_builds_one_philox_per_draw_call(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    sweeps.run_sweep(SampleSpec(3, 4, PURE_HAAR, 25, 3))
    # three chunks of at most 10 samples, each drawing its separable mixtures and its states once
    assert len(built) == 2 * 3


def test_seed_hashes_accept_the_64_bit_range():
    assert sample_seed(2**64 - 1, 2**64 - 1) == sample_seed(2**64 - 1, 2**64 - 1)
    assert splitmix64(2**64 - 1) == splitmix64(np.uint64(2**64 - 1))


def test_haar_pure_determinism():
    a = haar_random_pure(3, 2, seed=7)
    b = haar_random_pure(3, 2, seed=7)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    c = haar_random_pure(3, 2, seed=8)
    assert np.abs(a.amplitudes - c.amplitudes).max() > 1e-3


def test_haar_pure_is_normalized():
    for seed in range(10):
        psi = haar_random_pure(2, 4, seed=seed)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


def test_haar_mean_bloch_vector_vanishes():
    total = np.zeros(3)
    count = 10_000
    for i in range(count):
        rho = from_pure(haar_random_pure(2, 1, sample_seed(42, i)))
        total += bloch_tensor(rho, (1,)).coefficients
    mean = total / count
    assert np.abs(mean).max() < 0.02


def test_random_mixed_rank_one_is_pure():
    rho = random_mixed(2, 2, 1, seed=5)
    assert abs(purity(rho) - 1.0) < 1e-10


def test_random_mixed_rank_cap():
    rho = random_mixed(2, 2, 2, seed=6)
    eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
    assert np.abs(eigs[:2]).max() < 1e-12  # at most two nonzero eigenvalues


def test_random_mixed_determinism():
    a = random_mixed(2, 3, 8, seed=11)
    b = random_mixed(2, 3, 8, seed=11)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_random_mixed_mean_approaches_maximally_mixed():
    count = 2000
    total = np.zeros((4, 4), dtype=complex)
    for i in range(count):
        total += random_mixed(2, 2, 4, sample_seed(7, i)).matrix
    assert np.abs(total / count - np.eye(4) / 4).max() < 0.02


def test_random_mixed_rejects_bad_rank():
    with pytest.raises(ValueError):
        random_mixed(2, 2, 0, seed=1)
    with pytest.raises(ValueError):
        random_mixed(2, 2, 5, seed=1)


@pytest.mark.parametrize("seed", [2.7, 2.0, True, "7", -1, 2**64])
def test_public_draws_reject_bad_seeds(seed):
    draws = [
        lambda: haar_random_pure(2, 1, seed),
        lambda: random_mixed(2, 1, 2, seed),
        lambda: random_separable(2, "1-3", seed),
        lambda: haar_random_unitary(2, seed),
    ]
    for draw in draws:
        with pytest.raises(ValueError, match="seed must be an integer"):
            draw()


def test_public_draws_accept_every_64_bit_seed():
    for seed in (0, 2**64 - 1):
        assert haar_random_pure(2, 1, seed).dim == 2
        assert random_mixed(2, 1, 2, seed).dim == 2
        assert random_separable(2, "1-3", seed).dim == 16
        assert haar_random_unitary(2, seed).shape == (2, 2)


def test_haar_unitary_properties():
    u = haar_random_unitary(6, seed=9)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)
    np.testing.assert_array_equal(u, haar_random_unitary(6, seed=9))


@pytest.mark.parametrize("dim", [2.5, 2.0, True, "4", 0, -3])
def test_haar_unitary_rejects_bad_dimensions(dim):
    with pytest.raises(ValueError, match="dimension"):
        haar_random_unitary(dim, seed=0)


def test_haar_unitary_allows_dimensions_past_the_one_party_cap():
    # a 100 x 100 unitary is 160 kB; as one party of d = 100 the local operators would not fit
    u = haar_random_unitary(100, seed=3)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(100), atol=1e-12)


@pytest.fixture
def validations(monkeypatch):
    """Record every stacked validation as ``(binding, stack shape)``, at each module's binding."""
    seen = []
    for module in (states, sweeps):
        for name in ("_check_amplitudes", "_check_densities"):
            original = getattr(module, name)
            binding = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"

            def recording(stack, *args, _original=original, _binding=binding):
                seen.append((_binding, stack.shape))
                return _original(stack, *args)

            monkeypatch.setattr(module, name, recording)
    return seen


@pytest.mark.parametrize(
    "draw, expected",
    [
        (lambda: haar_random_pure(2, 3, 5), ("states._check_amplitudes", (1, 8))),
        (lambda: random_mixed(2, 3, 4, 5), ("states._check_densities", (1, 8, 8))),
        (lambda: random_separable(2, "2-2", 5), ("states._check_densities", (1, 16, 16))),
    ],
    ids=["haar", "ginibre", "separable"],
)
def test_public_draws_validate_once_through_their_constructor(validations, draw, expected):
    draw()
    assert validations == [expected]


@pytest.mark.parametrize(
    "kind, chunk_check",
    [
        (PURE_HAAR, ("sweeps._check_amplitudes", (1, 8))),
        (MIXED_GINIBRE, ("sweeps._check_densities", (1, 8, 8))),
    ],
    ids=["spec-pure", "spec-mixed"],
)
def test_spec_draw_validates_in_the_chunk_then_the_constructor(validations, kind, chunk_check):
    # the replay runs the chunk's own draw, which validates what it draws, and then
    # wraps the matrix in DensityMatrix, which validates it again
    SampleSpec(2, 3, kind).draw(4)
    assert validations == [chunk_check, ("states._check_densities", (1, 8, 8))]


def test_box_muller_moments():
    z = _complex_normals([123], 100_000)[0]
    for draws in (z.real, z.imag):
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02


def test_separable_splits_partition_all_parties():
    # the set-partition rule gives the typed-out classes: the same labels, splits, block
    # order and split order, with the four-party ones public
    four = {label: splits for label, splits in CLASS_SPLITS.items() if party_count(label) == 4}
    assert list(SEPARABLE_SPLITS.items()) == list(four.items())
    assert list(sampling._SPLIT_LAYOUTS) == list(CLASS_SPLITS)
    for label, splits in CLASS_SPLITS.items():
        sizes, orders = sampling._SPLIT_LAYOUTS[label]
        parties = list(range(1, party_count(label) + 1))
        assert len(orders) == len(splits)
        for split, order in zip(splits, orders):
            # the batched draw lays out every member's uniforms by the first split's block sizes
            assert tuple(len(block) for block in split) == sizes
            flat = [p for block in split for p in block]
            assert sorted(flat) == parties
            assert [flat[axis] for axis in order] == parties


@pytest.mark.parametrize("label", sorted(CLASS_SPLITS))
def test_random_separable_is_a_valid_state(label):
    rho = random_separable(2, label, seed=77)
    assert rho.num_parties == party_count(label)
    assert abs(rho.matrix.trace() - 1.0) < 1e-12
    np.testing.assert_array_equal(rho.matrix, random_separable(2, label, seed=77).matrix)


@pytest.mark.parametrize("label", ["3-1", ["1-3"]])
def test_random_separable_rejects_unknown_class(label):
    with pytest.raises(ValueError, match="unknown separability class"):
        random_separable(2, label, seed=1)


@pytest.mark.parametrize("label, largest", [("1-3", 8), ("1-2", 16), ("1-1", 64)])
def test_separable_draws_admit_every_dimension_of_their_party_count(label, largest):
    # the members' block projectors, 16 * 8 * d**(2k) bytes for k-party blocks, stay within
    # the dense cap wherever the class's n-party state does; nothing is allocated here
    n = party_count(label)
    for d in range(2, largest + 1):
        assert sampling._check_separable(d, label, 0) == (d, n, 0)
    with pytest.raises(ValueError, match="above the cap"):
        sampling._check_separable(largest + 1, label, 0)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 4), (4, 2)])
def test_batched_haar_draws_are_bit_identical_to_single_draws(d, n):
    seeds = [sample_seed(5, i) for i in range(7)]
    batch = _haar_amplitudes(d, n, seeds)
    for row, seed in zip(batch, seeds):
        np.testing.assert_array_equal(row, single_haar_amplitudes(d, n, seed))
        np.testing.assert_array_equal(row, haar_random_pure(d, n, seed).amplitudes)


@pytest.mark.parametrize("d,n,rank", [(2, 2, 1), (2, 3, 8), (3, 3, 5), (3, 4, 81)])
def test_batched_ginibre_draws_are_bit_identical_to_single_draws(d, n, rank):
    seeds = [sample_seed(6, i) for i in range(5)]
    batch = _ginibre_densities(d, n, rank, seeds)
    for mat, seed in zip(batch, seeds):
        np.testing.assert_array_equal(mat, single_ginibre_matrix(d, n, rank, seed))
        np.testing.assert_array_equal(mat, random_mixed(d, n, rank, seed).matrix)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("label", sorted(CLASS_SPLITS))
def test_batched_separable_mixtures_match_member_by_member_assembly(d, label):
    seeds = [sample_seed(7, i) for i in range(5)]
    batch = separable_densities(d, label, seeds)
    for mat, seed in zip(batch, seeds):
        reference = single_separable_matrix(d, label, seed)
        assert np.abs(mat - reference).max() <= 1e-15
        assert np.abs(random_separable(d, label, seed).matrix - reference).max() <= 1e-15


SEPARABLE_SEEDS = [0, 2**64 - 1, sample_seed(3, 0), sample_seed(3, 1), sample_seed(3, 2)]


def _class_members(draws, c):
    """Class ``c``'s weights, picks and block vectors out of a ``_separable_draws`` result."""
    weights, picks, stacks, slots = draws
    members = [stacks[k][:, start : start + SEPARABLE_MEMBERS] for k, start in slots[c]]
    return weights, picks[:, c], members


def _assert_members_equal(members_a, members_b):
    weights_a, picks_a, blocks_a = members_a
    weights_b, picks_b, blocks_b = members_b
    np.testing.assert_array_equal(weights_a, weights_b)
    np.testing.assert_array_equal(picks_a, picks_b)
    assert len(blocks_a) == len(blocks_b)
    for block_a, block_b in zip(blocks_a, blocks_b):
        np.testing.assert_array_equal(block_a, block_b)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_separable_members_decode_the_call_by_call_reads(d):
    # the raw-word decode reads what Generator.random/integers read, bit for bit,
    # for one class alone and for the classes of two to four parties drawn from one stream read
    labels = tuple(CLASS_SPLITS)
    together = sampling._separable_draws(d, labels, SEPARABLE_SEEDS)
    for c, label in enumerate(labels):
        expected = single_separable_members(d, label, SEPARABLE_SEEDS)
        alone = sampling._separable_draws(d, (label,), SEPARABLE_SEEDS)
        _assert_members_equal(_class_members(alone, 0), expected)
        _assert_members_equal(_class_members(together, c), expected)


@pytest.mark.parametrize("d", [2, 3])
def test_rejected_picks_are_read_again_call_by_call(monkeypatch, d):
    # a pick that Lemire's rule rejects shifts the rest of its class's stream; force
    # every (seed, class) that reads picks onto the call-by-call re-read and get the
    # same arrays. The one-split classes read no pick, so nothing of them is read again.
    lemire_picks, read_members = sampling._lemire_picks, sampling._read_members
    reads = []

    def rejecting(halves, splits):
        picks, _ = lemire_picks(halves, splits)
        return np.full_like(picks, -1), np.ones(picks.shape, dtype=bool)

    def reading(d, label, seed):
        reads.append((label, seed))
        return read_members(d, label, seed)

    monkeypatch.setattr(sampling, "_lemire_picks", rejecting)
    monkeypatch.setattr(sampling, "_read_members", reading)
    labels = tuple(CLASS_SPLITS)
    draws = sampling._separable_draws(d, labels, SEPARABLE_SEEDS)
    picking = [label for label in labels if len(CLASS_SPLITS[label]) > 1]
    assert sorted(reads) == sorted((label, seed) for label in picking for seed in SEPARABLE_SEEDS)
    for c, label in enumerate(labels):
        _assert_members_equal(
            _class_members(draws, c), single_separable_members(d, label, SEPARABLE_SEEDS)
        )


def test_lemire_rejects_exactly_below_its_threshold():
    # numpy redraws a half h when the low 32 bits of h * k fall below (2**32 - k) % k:
    # the classes' 4, 3, 6, 1 and 3 splits have thresholds 0, 1, 4, 0 and 1
    halves = np.array([0, 1, 2**32 - 1, 715827882, 715827883], dtype=np.uint64)
    for label, threshold in (("1-3", 0), ("2-2", 1), ("1-1-2", 4), ("1-1-1-1", 0), ("1-2", 1)):
        splits = len(CLASS_SPLITS[label])
        picks, rejected = sampling._lemire_picks(halves, splits)
        scaled = [int(h) * splits for h in halves]
        assert picks.tolist() == [value >> 32 for value in scaled]
        assert rejected.tolist() == [value % 2**32 < threshold for value in scaled]
        assert rejected[0] == (threshold > 0)
