"""Generator correctness: reference vectors, distribution sanity, derivation.

The u64 streams are pinned against an independent C build of the public
reference implementations (splitmix64 and xoshiro256++), compiled and run
once; the expected values below are frozen from its output. The shuffle
outputs are frozen from the per-element Fisher-Yates on `randbelow`, so a
bulk path that changes the stream fails here.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinynn.layers import build_conv_net
from tinynn.rng import _FILL_BLOCK, Rng, derive_seed, splitmix64

# first outputs of the reference splitmix64 stream seeded with 0
SPLITMIX_FROM_0 = 16294208416658607535

# reference xoshiro256++ streams, state = four splitmix64 outputs from seed
XOSHIRO_FROM_42 = [
    15021278609987233951,
    5881210131331364753,
    18149643915985481100,
    12933668939759105464,
    14637574242682825331,
    10848501901068131965,
    2312344417745909078,
    11162538943635311430,
]
XOSHIRO_FROM_123456789 = [
    11089759438045651894,
    13995639861960445257,
    7281758979491336257,
    8017807584436681155,
    6565157352319072148,
    2938818120842716024,
    17482278747258474964,
    184957719097713763,
]

# Rng(101).shuffle(list(range(20))) and Rng(202).shuffle(np.arange(20))
SHUFFLE_LIST_FROM_101 = [
    1, 5, 6, 11, 18, 2, 8, 19, 15, 14, 9, 3, 0, 13, 16, 7, 4, 10, 17, 12,
]
SHUFFLE_ARRAY_FROM_202 = [
    16, 3, 11, 13, 8, 17, 19, 18, 15, 9, 7, 10, 14, 6, 12, 5, 4, 2, 1, 0,
]

# SHA-256 over build_conv_net((1, 28, 28), 30, 1, seed=7) parameters, layer by
# layer, keys sorted; the hidden layer's 94,080 weights span many fill blocks
CONV_INIT_DIGEST = "29c49839e7d55f65f1fa6d45b8817ccb6a74bc123fd820a30067ed12f3bc4e3c"


def shuffle_oracle(rng, seq):
    """Per-element Fisher-Yates on randbelow, the reference for shuffle."""
    for i in range(len(seq) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def assert_fill_normal_matches_scalar(seed, n, mean, std, spare_in):
    a, b = Rng(seed), Rng(seed)
    if spare_in:
        a.normal()
        b.normal()
    want = [a.normal(mean, std) for _ in range(n)]
    got = np.empty(n)
    b.fill_normal(got, mean, std)
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    # the spare left behind and the state both carry over
    assert [b.normal(), b.next_u64()] == [a.normal(), a.next_u64()]


class TestReferenceVectors:
    def test_splitmix64_first_output(self):
        assert splitmix64(0) == SPLITMIX_FROM_0

    def test_stream_from_42(self):
        r = Rng(42)
        assert [r.next_u64() for _ in range(8)] == XOSHIRO_FROM_42

    def test_stream_from_123456789(self):
        r = Rng(123456789)
        assert [r.next_u64() for _ in range(8)] == XOSHIRO_FROM_123456789

    def test_block_draws_from_42(self):
        assert Rng(42)._draws(8).tolist() == XOSHIRO_FROM_42

    def test_same_seed_same_stream(self):
        a, b = Rng(7), Rng(7)
        assert [a.next_u64() for _ in range(100)] == [
            b.next_u64() for _ in range(100)
        ]

    def test_different_seeds_differ(self):
        assert Rng(1).next_u64() != Rng(2).next_u64()

    def test_negative_and_huge_seeds_accepted(self):
        Rng(-1).next_u64()
        Rng(1 << 200).next_u64()


class TestFloats:
    def test_unit_interval(self):
        r = Rng(3)
        draws = [r.next_float() for _ in range(10000)]
        assert all(0.0 <= d < 1.0 for d in draws)

    def test_uniform_moments(self):
        r = Rng(5)
        draws = np.array([r.uniform(-2.0, 6.0) for _ in range(50000)])
        assert draws.min() >= -2.0 and draws.max() < 6.0
        # mean 2, var (8^2)/12 = 5.333; loose 4-sigma style bounds
        assert abs(draws.mean() - 2.0) < 0.05
        assert abs(draws.var() - 64.0 / 12.0) < 0.15

    def test_fill_uniform_matches_scalar_stream(self):
        a, b = Rng(11), Rng(11)
        # consecutive fills on either side of the block size
        for n in (64, _FILL_BLOCK - 1, _FILL_BLOCK, _FILL_BLOCK + 1):
            buf = np.empty(n)
            a.fill_uniform(buf, -1.0, 1.0)
            want = [b.uniform(-1.0, 1.0) for _ in range(n)]
            np.testing.assert_array_equal(buf, want)
        assert a.next_u64() == b.next_u64()

    def test_frozen_conv_init(self):
        net = build_conv_net((1, 28, 28), 30, 1, seed=7)
        h = hashlib.sha256()
        for p in net.params:
            for key in sorted(p):
                h.update(p[key].tobytes())
        assert h.hexdigest() == CONV_INIT_DIGEST


class TestRandbelow:
    def test_bounds_and_coverage(self):
        r = Rng(9)
        draws = [r.randbelow(6) for _ in range(6000)]
        assert set(draws) == {0, 1, 2, 3, 4, 5}

    def test_uniformity_chi_square(self):
        r = Rng(13)
        n, k = 40000, 8
        counts = np.bincount([r.randbelow(k) for _ in range(n)], minlength=k)
        chi2 = (((counts - n / k) ** 2) / (n / k)).sum()
        assert chi2 < 30.0  # df=7, p~1e-4 cutoff

    def test_n_one_is_always_zero(self):
        r = Rng(1)
        assert all(r.randbelow(1) == 0 for _ in range(10))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rng(0).randbelow(0)


class TestNormal:
    def test_moments(self):
        r = Rng(21)
        draws = np.array([r.normal() for _ in range(100000)])
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02
        # fraction within 1 sigma of a standard normal
        assert abs((np.abs(draws) < 1.0).mean() - 0.6827) < 0.01

    def test_mean_std_applied(self):
        r = Rng(22)
        draws = np.array([r.normal(10.0, 0.5) for _ in range(20000)])
        assert abs(draws.mean() - 10.0) < 0.02
        assert abs(draws.std() - 0.5) < 0.02

    def test_pair_cache_keeps_stream_deterministic(self):
        a, b = Rng(23), Rng(23)
        assert [a.normal() for _ in range(9)] == [b.normal() for _ in range(9)]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 4001])
    @pytest.mark.parametrize("spare_in", [False, True])
    def test_fill_normal_matches_scalar_stream(self, n, spare_in):
        assert_fill_normal_matches_scalar(51, n, 0.25, 1.5, spare_in)

    def test_box_muller_pair_identity(self):
        # first two normals must come from one (u1, u2) pair
        r = Rng(31)
        u1, u2 = r.next_float(), r.next_float()
        want0 = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        want1 = math.sqrt(-2.0 * math.log(u1)) * math.sin(2.0 * math.pi * u2)
        r2 = Rng(31)
        assert r2.normal() == want0
        assert r2.normal() == want1


class TestShuffle:
    def test_is_permutation(self):
        r = Rng(41)
        seq = list(range(200))
        r.shuffle(seq)
        assert sorted(seq) == list(range(200))
        assert seq != list(range(200))

    def test_deterministic(self):
        a, b = list(range(50)), list(range(50))
        Rng(43).shuffle(a)
        Rng(43).shuffle(b)
        assert a == b

    def test_positions_roughly_uniform(self):
        # element 0's final position over repeats covers the range
        positions = []
        for s in range(300):
            seq = list(range(10))
            Rng(s).shuffle(seq)
            positions.append(seq.index(0))
        counts = np.bincount(positions, minlength=10)
        assert counts.min() > 10

    def test_frozen_list_stream(self):
        seq = list(range(20))
        Rng(101).shuffle(seq)
        assert seq == SHUFFLE_LIST_FROM_101

    def test_frozen_array_stream(self):
        arr = np.arange(20, dtype=np.int64)
        Rng(202).shuffle(arr)
        assert arr.dtype == np.int64
        assert arr.tolist() == SHUFFLE_ARRAY_FROM_202

    @pytest.mark.parametrize("n", [0, 1, 2, 5000])
    @pytest.mark.parametrize("kind", ["list", "int64", "float64"])
    def test_matches_randbelow_oracle(self, n, kind):
        make = {
            "list": lambda: list(range(n)),
            "int64": lambda: np.arange(n, dtype=np.int64),
            "float64": lambda: np.arange(n) * 0.5 - 7.25,
        }[kind]
        want, got = make(), make()
        a, b = Rng(53), Rng(53)
        shuffle_oracle(a, want)
        b.shuffle(got)
        assert type(got) is type(want)
        if kind != "list":
            assert got.dtype == want.dtype
        assert list(got) == list(want)
        assert a.next_u64() == b.next_u64()

    def test_works_on_ndarray(self):
        arr = np.arange(30)
        Rng(47).shuffle(arr)
        assert sorted(arr.tolist()) == list(range(30))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(0, 300),
    mean=st.floats(-1e3, 1e3),
    std=st.floats(1e-3, 1e3),
)
def test_bulk_paths_match_scalar_references(seed, n, mean, std):
    assert_fill_normal_matches_scalar(seed, n, mean, std, spare_in=seed % 2 == 1)
    want, got = list(range(n)), list(range(n))
    a, b = Rng(seed), Rng(seed)
    shuffle_oracle(a, want)
    b.shuffle(got)
    assert got == want
    assert a.next_u64() == b.next_u64()


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)

    def test_order_sensitive(self):
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)

    def test_part_count_sensitive(self):
        assert derive_seed(0, 1) != derive_seed(0, 1, 0)

    def test_base_sensitive(self):
        assert derive_seed(1, 5) != derive_seed(2, 5)

    def test_no_collisions_over_grid(self):
        seen = {derive_seed(s, a, b) for s in range(4) for a in range(50) for b in range(50)}
        assert len(seen) == 4 * 50 * 50
