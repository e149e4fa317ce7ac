"""Generator correctness: reference vectors, distribution sanity, derivation.

The u64 streams are pinned against an independent C build of the public
reference implementations (splitmix64 and xoshiro256++), compiled and run
once; the expected values below are frozen from its output. The shuffle
outputs are frozen from the per-element Fisher-Yates on `randbelow`, so a
bulk path that changes the stream fails here. The scalar draws
(`reference.randbelow`, `uniform`, `normal`) are the references the bulk
consumers must equal. Blocks long enough for the
jump-ahead lanes are checked against the one-step-at-a-time reference, and so
is the hand-off of buffered draws from one consumer to the next.
"""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tinynn
from tinynn.layers import build_conv_net, save_network
from tinynn.rng import (
    _FILL_BLOCK,
    LANE_BLOCK,
    _LANE_MIN,
    _LANE_STEPS,
    Rng,
    _jump,
    _jump_tables,
    derive_seed,
    splitmix64,
)

from reference import next_float, normal, randbelow, uniform, xoshiro_steps

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
        j = randbelow(rng, i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def assert_fill_normal_matches_scalar(seed, n, mean, std, spare_in):
    a, b = Rng(seed), Rng(seed)
    if spare_in:
        normal(a)
        normal(b)
    want = [normal(a, mean, std) for _ in range(n)]
    got = np.empty(n)
    b.fill_normal(got, mean, std)
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
    # the spare left behind and the state both carry over
    assert [normal(b), b.next_u64()] == [normal(a), a.next_u64()]


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
        draws = [next_float(r) for _ in range(10000)]
        assert all(0.0 <= d < 1.0 for d in draws)

    def test_uniform_moments(self):
        r = Rng(5)
        draws = np.array([uniform(r, -2.0, 6.0) for _ in range(50000)])
        assert draws.min() >= -2.0 and draws.max() < 6.0
        # mean 2, var (8^2)/12 = 5.333; loose 4-sigma style bounds
        assert abs(draws.mean() - 2.0) < 0.05
        assert abs(draws.var() - 64.0 / 12.0) < 0.15

    def test_fill_uniform_matches_scalar_stream(self):
        a, b = Rng(11), Rng(11)
        normal(a)
        normal(b)
        # consecutive fills on either side of the block size, with a normal
        # spare pending that they leave alone
        for n in (64, _FILL_BLOCK - 1, _FILL_BLOCK, _FILL_BLOCK + 1,
                  2 * _FILL_BLOCK + 1):
            buf = np.empty(n)
            a.fill_uniform(buf, -1.0, 1.0)
            want = [uniform(b, -1.0, 1.0) for _ in range(n)]
            np.testing.assert_array_equal(buf, want)
        assert [normal(a), a.next_u64()] == [normal(b), b.next_u64()]

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
        draws = [randbelow(r, 6) for _ in range(6000)]
        assert set(draws) == {0, 1, 2, 3, 4, 5}

    def test_uniformity_chi_square(self):
        r = Rng(13)
        n, k = 40000, 8
        counts = np.bincount([randbelow(r, k) for _ in range(n)], minlength=k)
        chi2 = (((counts - n / k) ** 2) / (n / k)).sum()
        assert chi2 < 30.0  # df=7, p~1e-4 cutoff

    def test_n_one_is_always_zero(self):
        r = Rng(1)
        assert all(randbelow(r, 1) == 0 for _ in range(10))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            randbelow(Rng(0), 0)


class TestNormal:
    def test_moments(self):
        r = Rng(21)
        draws = np.array([normal(r) for _ in range(100000)])
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02
        # fraction within 1 sigma of a standard normal
        assert abs((np.abs(draws) < 1.0).mean() - 0.6827) < 0.01

    def test_mean_std_applied(self):
        r = Rng(22)
        draws = np.array([normal(r, 10.0, 0.5) for _ in range(20000)])
        assert abs(draws.mean() - 10.0) < 0.02
        assert abs(draws.std() - 0.5) < 0.02

    def test_pair_cache_keeps_stream_deterministic(self):
        a, b = Rng(23), Rng(23)
        assert [normal(a) for _ in range(9)] == [normal(b) for _ in range(9)]

    @pytest.mark.parametrize(
        "n",
        [0, 1, 2, 3, 4, 5, 4001, _FILL_BLOCK - 1, _FILL_BLOCK, _FILL_BLOCK + 1,
         2 * _FILL_BLOCK + 1],
    )
    @pytest.mark.parametrize("spare_in", [False, True])
    def test_fill_normal_matches_scalar_stream(self, n, spare_in):
        assert_fill_normal_matches_scalar(51, n, 0.25, 1.5, spare_in)

    def test_box_muller_pair_identity(self):
        # first two normals must come from one (u1, u2) pair
        r = Rng(31)
        u1, u2 = next_float(r), next_float(r)
        want0 = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        want1 = math.sqrt(-2.0 * math.log(u1)) * math.sin(2.0 * math.pi * u2)
        r2 = Rng(31)
        assert normal(r2) == want0
        assert normal(r2) == want1


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

    @pytest.mark.parametrize("n", [0, 1, 2, 5000, 100_000])
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
    # small blocks, and blocks that take lanes and cross fill blocks
    n=st.one_of(st.integers(0, 300), st.integers(_LANE_MIN, 2 * _FILL_BLOCK + 3)),
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


@st.composite
def consumer(draw):
    kind = draw(st.sampled_from(
        ["next_u64", "draws", "shuffle_list", "shuffle_array", "fill_uniform",
         "fill_normal", "normal", "randbelow"]
    ))
    if kind == "draws":
        return kind, draw(st.integers(0, 3 * LANE_BLOCK))
    if kind.startswith("shuffle"):
        return kind, draw(st.integers(0, 2 * LANE_BLOCK))
    if kind == "fill_uniform":
        return kind, draw(st.integers(0, 2 * _FILL_BLOCK + 3))
    if kind == "fill_normal":
        return kind, (draw(st.integers(0, 2 * _FILL_BLOCK + 3)), draw(st.booleans()))
    if kind == "randbelow":
        return kind, draw(st.integers(1, 2**64))
    return kind, None


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), consumers=st.lists(consumer(), max_size=8))
def test_consumers_hand_the_stream_on(seed, consumers):
    # one generator serves every consumer in turn from its lane blocks; a
    # fresh one with the same seed serves them by the scalar methods and the
    # one-step reference, so no draw is dropped, repeated or reordered where
    # one consumer leaves part of a block to the next
    got, ref = Rng(seed), Rng(seed)
    for kind, arg in consumers:
        if kind == "next_u64":
            assert got.next_u64() == ref.next_u64()
        elif kind == "draws":
            want, ref._s = xoshiro_steps(ref._s, arg)
            assert got._draws(arg).tolist() == want
        elif kind.startswith("shuffle"):
            make = list if kind == "shuffle_list" else np.array
            a, b = make(range(arg)), make(range(arg))
            got.shuffle(a)
            shuffle_oracle(ref, b)
            assert list(a) == list(b)
        elif kind == "fill_uniform":
            out = np.empty(arg)
            got.fill_uniform(out, -2.0, 3.0)
            assert out.tolist() == [uniform(ref, -2.0, 3.0) for _ in range(arg)]
        elif kind == "fill_normal":
            n, spare = arg
            if (got._spare_normal is not None) != spare:
                assert normal(got) == normal(ref)
            out = np.empty(n)
            got.fill_normal(out, 0.5, 2.0)
            assert out.tolist() == [normal(ref, 0.5, 2.0) for _ in range(n)]
        elif kind == "normal":
            assert normal(got) == normal(ref)
        else:
            assert randbelow(got, arg) == randbelow(ref, arg)
        assert len(got._buf) < LANE_BLOCK
    assert [normal(got), got.next_u64()] == [normal(ref), ref.next_u64()]


class OneStepRng(Rng):
    """An Rng whose every draw comes from the one-step reference, so its
    bulk consumers run over the reference stream."""

    def _draws(self, n):
        out, self._s = xoshiro_steps(self._s, n)
        return np.array(out, np.uint64)


@st.composite
def block_crossing(draw):
    kind = draw(st.sampled_from(["shuffle", "fill_uniform", "fill_normal", "scalar"]))
    if kind == "scalar":
        return kind, draw(st.integers(1, _LANE_MIN - 1))
    return kind, draw(st.integers(0, 3 * LANE_BLOCK))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    ops=st.lists(block_crossing(), min_size=1, max_size=6),
)
def test_kept_lane_starts_follow_the_reference(seed, ops):
    # each lane block after the first takes its starts from the block
    # before; a scalar run on an emptied buffer moves the state past them,
    # so the block after it must find its starts afresh
    got, ref = Rng(seed), OneStepRng(seed)
    for kind, n in ops:
        if kind == "scalar":
            k = len(got._buf)
            assert got._draws(k).tolist() == ref._draws(k).tolist()
            assert got._draws(n).tolist() == ref._draws(n).tolist()
            assert got._starts is None
        elif kind == "shuffle":
            a, b = list(range(n)), list(range(n))
            got.shuffle(a)
            ref.shuffle(b)
            assert a == b
        else:
            a, b = np.empty(n), np.empty(n)
            getattr(got, kind)(a, -1.0, 2.0)
            getattr(ref, kind)(b, -1.0, 2.0)
            assert a.tobytes() == b.tobytes()
    assert [normal(got), got.next_u64()] == [normal(ref), ref.next_u64()]


class TestLanes:
    """_draws' jump-ahead lanes against the per-step reference."""

    @pytest.mark.parametrize(
        "n",
        [
            _LANE_MIN - 1,
            _LANE_MIN,
            _LANE_MIN + 1,
            100 * _LANE_STEPS,
            LANE_BLOCK,
            LANE_BLOCK + 1,
            3 * LANE_BLOCK + _LANE_MIN + 5,  # four blocks and a tail kept
            100_000,
        ],
    )
    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_draws_match_reference(self, n, seed):
        # the state runs ahead of the draws served, so the draws that follow
        # are checked instead: through the buffer's tail and two refills
        r = Rng(seed)
        k = 2 * LANE_BLOCK + 17
        want, _ = xoshiro_steps(r._s, n + k)
        assert r._draws(n).tolist() == want[:n]
        rest = [r.next_u64() for _ in range(17)] + r._draws(k - 17).tolist()
        assert rest == want[n:]

    def test_long_request_keeps_one_block_tail(self):
        r = Rng(5)
        r._draws(100_000)
        assert 0 < len(r._buf) < LANE_BLOCK
        root = r._buf
        while root.base is not None:
            root = root.base
        assert root.nbytes == LANE_BLOCK * 8

    @pytest.mark.parametrize("level", range(9))
    def test_jump_table_levels(self, level):
        # the level-k table jumps by _LANE_STEPS * 2**k steps; the last, by
        # one whole lane block
        starts = [Rng(seed)._s for seed in (1, 2, 3)]
        got = _jump(_jump_tables()[level], np.array(starts, np.uint64).T)
        want = [xoshiro_steps(s, _LANE_STEPS << level)[1] for s in starts]
        assert got.tolist() == want


def test_jump_tables_built_only_by_a_lane_block(tmp_path):
    # a fresh interpreter: importing the package, loading a checkpoint and
    # drawing short blocks build no table; a lane-sized block builds them
    path = str(tmp_path / "conv.ckpt")
    save_network(build_conv_net((1, 8, 8), 2, 1, seed=3), path)
    script = """
import sys
import numpy as np
import tinynn.cli
from tinynn.layers import load_network
from tinynn.rng import _LANE_MIN, Rng, _jump_tables
built = _jump_tables.cache_info
print(built().currsize)
load_network(sys.argv[1])
r = Rng(1)
r._draws(_LANE_MIN - 1)
r.shuffle(list(range(_LANE_MIN)))
r.fill_normal(np.empty(_LANE_MIN - 2))
print(built().currsize)
r._draws(_LANE_MIN)
print(built().currsize)
"""
    src = os.path.dirname(os.path.dirname(tinynn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script, path], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out.split() == ["0", "0", "1"]


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
