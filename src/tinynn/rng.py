"""Deterministic pseudo-random generator used everywhere randomness is needed.

Implements xoshiro256++ with splitmix64 seeding, by the reference algorithm.
No library RNG is used anywhere in the package: normal deviates come from the
Box-Muller transform and shuffles from Fisher-Yates on top of this generator,
so identical seeds give identical streams on any platform.

`Rng._draws` is the one bulk source of outputs, exactly as repeated
`next_u64` calls give them. The generator keeps a buffer of outputs it has
drawn but not yet served, always fewer than one lane block of `LANE_BLOCK`
draws, and its state `_s` is the state after the last output drawn, which
runs ahead of the last one served by the buffer's length. A request is
served from the buffer first; a shortfall is met with whole lane blocks, and
the unserved tail of the last one becomes the buffer, for the next request
of any consumer. A block is `_MAX_LANES` lanes of `_LANE_STEPS` consecutive
draws. Lane j starts at the state j * `_LANE_STEPS` steps ahead. The xoshiro
step is linear over GF(2), so a jump by m steps is a 256x256 bit matrix, kept
as a nibble table: for each of the state's 64 nibbles, the images of its 16
values. The generator keeps the lane starts of its last block, and the next
block's starts are those jumped by `LANE_BLOCK` steps, one jump of all
`_MAX_LANES` starts. Without kept starts (a fresh generator, or one whose
state the scalar loop has moved) they come from the current state by
doubling: the jump by `_LANE_STEPS` * 2**k is applied to every start found
so far. The tables are built once per process, when the first lane block is
drawn. The lanes then step together as uint64 arrays with `_step`, which
also builds the tables, and the last lane's final state is the generator's
new state. A shortfall below `_LANE_MIN` on an empty buffer comes from the
scalar loop instead, which holds the state in Python ints, so the short
requests of a fresh generator build no table. numpy forms the outputs from
the recorded state words with the same wrapping 64-bit arithmetic.

The bulk consumers (`shuffle`, `fill_uniform`, `fill_normal`) take their
draws in blocks and give results bit-identical to repeated scalar draws
(top-bit rejection below n, `(u64 >> 11) * 2**-53` floats, Box-Muller
pairs whose spare waits in `_spare_normal`; the tests keep these as their
references); `next_u64` takes its one draw through `_draws` too. The bulk
float paths use numpy only for operations that are correctly rounded, so
they equal the scalar ones: the exact int-to-float conversion, products,
sums and `sqrt`. `log`, `sin` and `cos` come from `math`, because numpy's
vectorised versions are not bound to the C library's results: on an AVX-512
CPU, `np.log` differed from `math.log` in the last bit on about 0.35% of
uniform draws.
"""

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
# Fixed mixing constant for seed derivation (hex digits of pi); any fixed
# odd-ish constant works, it only has to be the same everywhere forever.
_DERIVE_BASE = 0x243F6A8885A308D3
# draws per block in the float fills: a large buffer never becomes one list
# of Python ints, and a dataset-sized fill keeps its peak memory small
_FILL_BLOCK = 1 << 12
_UNIT = 2.0 ** -53  # (u64 >> 11) * _UNIT is uniform in [0, 1)
# _draws generates lane blocks of _MAX_LANES lanes of _LANE_STEPS consecutive
# draws each; a shortfall below _LANE_MIN on an empty buffer takes the scalar
# loop instead, which is faster there
_LANE_STEPS = 16
_MAX_LANES = 256
_LANE_MIN = 1024
# draws per lane block; a generator keeps fewer than this between calls
LANE_BLOCK = _MAX_LANES * _LANE_STEPS
# a jump table holds 16 rows per nibble position of the 256-bit state:
# position 16 * w + j is bits 4j..4j+3 of word w, and its rows start at
# _NIBBLE_BASES[16 * w + j]
_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)[:, None]
_NIBBLE_BASES = np.arange(0, 64 * 16, 16, dtype=np.uint64)[:, None]


def splitmix64(x):
    """One splitmix64 finalizer step. Maps u64 -> u64, well mixed."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(base, *parts):
    """Mix a base seed with integer labels into an independent stream seed.

    Used for per-trial and per-class substreams so that consumers can be run
    in any order (or in parallel) without sharing generator state.
    """
    h = splitmix64((base & _MASK64) ^ _DERIVE_BASE)
    for p in parts:
        h = splitmix64(h ^ (p & _MASK64))
    return h


def _step(s):
    """One xoshiro256++ state step, in place, of the states in the columns
    of a [4, lanes] uint64 array."""
    s0, s1, s2, s3 = s
    t = s1 << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.right_shift(s3, 19, out=t)
    s3 <<= 45
    s3 |= t  # rotl(s3, 45)


def _jump(table, s):
    """Apply the jump whose nibble table is given to the states in the
    columns of a [4, m] uint64 array; returns them as [m, 4]. Each of the
    state's 64 nibbles picks one row of its position's 16, and the picked
    rows are XOR-ed together."""
    nibbles = ((s[:, None, :] >> _NIBBLE_SHIFTS) & 15).reshape(64, -1)
    rows = np.take(table, nibbles + _NIBBLE_BASES, axis=0)  # [64, m, 4]
    return np.bitwise_xor.reduce(rows, axis=0)


def _nibble_table(images):
    """The [64 * 16, 4] nibble table of the linear map sending unit state i
    (bit i % 64 of word i // 64) to images[i]."""
    per_bit = images.reshape(64, 1, 4, 4)  # [position, -, bit, word]
    has_bit = (np.arange(16)[:, None, None] >> np.arange(4)[:, None]) & 1 == 1
    picked = np.where(has_bit, per_bit, np.uint64(0))  # [position, value, bit, word]
    return np.bitwise_xor.reduce(picked, axis=2).reshape(64 * 16, 4)


@functools.cache
def _jump_tables():
    """Nibble tables of the jumps by _LANE_STEPS * 2**k steps, for k from 0
    while 2**k <= _MAX_LANES, built on first use: the unit states stepped
    _LANE_STEPS times give the first, and each further one squares the one
    before by jumping its own images. The last jumps by LANE_BLOCK steps."""
    units = np.zeros((4, 256), np.uint64)
    bit = np.arange(256)
    units[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    for _ in range(_LANE_STEPS):
        _step(units)
    images = units.T
    tables = [_nibble_table(images)]
    while len(tables) < _MAX_LANES.bit_length():
        images = _jump(tables[-1], images.T)
        tables.append(_nibble_table(images))
    return tuple(tables)


def _outputs(words):
    """xoshiro256++ outputs rotl(s0 + s3, 23) + s0 from a [2, k] array of
    the s0 and s3 words, with the same wrapping 64-bit arithmetic."""
    s0s, s3s = words
    x = s0s + s3s
    return ((x << 23) | (x >> 41)) + s0s


class Rng:
    """xoshiro256++ stream seeded through splitmix64."""

    def __init__(self, seed):
        # four consecutive outputs of the splitmix64 stream started at seed
        x = seed & _MASK64
        state = [
            splitmix64((x + i * 0x9E3779B97F4A7C15) & _MASK64) for i in range(4)
        ]
        if not any(state):
            state[0] = 1  # all-zero state is the one invalid xoshiro state
        self._s = state
        self._spare_normal = None
        self._buf = np.empty(0, np.uint64)  # drawn, not yet served
        self._starts = None  # the last lane block's [4, lanes] starts

    def _draws(self, n):
        """The next n outputs as a uint64 array, exactly as n next_u64 calls
        give them; callers only read it, as it may be a view of the buffer.
        The buffer's drawn but unserved outputs come first. A shortfall is
        met with whole lane blocks, whose unserved tail becomes the buffer,
        except that a shortfall below _LANE_MIN on an empty buffer comes from
        the scalar loop, so a fresh generator's short requests build no jump
        table. Either way self._s ends after the last output drawn."""
        buf = self._buf
        if n <= len(buf):
            self._buf = buf[n:]
            return buf[:n]
        short = n - len(buf)
        if short < _LANE_MIN and not len(buf):
            return self._scalar_draws(n)
        blocks = [self._lane_block() for _ in range(-(-short // LANE_BLOCK))]
        used = short - (len(blocks) - 1) * LANE_BLOCK
        # a view of the last block alone, so that the buffer never pins more
        # than one block of a long request
        self._buf = blocks[-1][used:]
        return np.concatenate([buf, *blocks[:-1], blocks[-1][:used]])

    def _scalar_draws(self, n):
        """The next n outputs from the scalar loop, which holds the state in
        Python ints and records s0 and s3 of each step."""
        s0, s1, s2, s3 = self._s
        mask = _MASK64
        firsts, lasts = [], []
        keep_first, keep_last = firsts.append, lasts.append
        for _ in range(n):
            keep_first(s0)
            keep_last(s3)
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask  # rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        self._starts = None
        return _outputs(np.array([firsts, lasts], np.uint64).reshape(2, n))

    def _lane_block(self):
        """The next LANE_BLOCK outputs, as a read-only array: lane j of the
        _MAX_LANES starts at the state j * _LANE_STEPS steps ahead, and all
        lanes step together. The starts are the kept ones of the last block
        jumped by LANE_BLOCK steps, or else found from the state by
        doubling."""
        *doubling, whole_block = _jump_tables()
        starts = np.empty((4, _MAX_LANES), np.uint64)
        if self._starts is not None:
            # in halves, so that the jump's [64, lanes, 4] gather is no
            # larger than the doubling's last (256 KiB); one of 512 KiB
            # raised a synthetic sweep's peak RSS by about 0.5 MB
            half = _MAX_LANES // 2
            for lanes in (slice(0, half), slice(half, None)):
                starts[:, lanes] = _jump(whole_block, self._starts[:, lanes]).T
        else:
            starts[:, 0] = self._s
            found = 1
            for table in doubling:
                # lanes found..2 * found start found * _LANE_STEPS past lanes 0..found
                starts[:, found:2 * found] = _jump(table, starts[:, :found]).T
                found *= 2
        self._starts = starts
        s = starts.copy()
        words = np.empty((_LANE_STEPS, 2, _MAX_LANES), np.uint64)
        for j in range(_LANE_STEPS):
            words[j] = s[::3]  # s0 and s3
            _step(s)
        self._s = s[:, -1].tolist()
        # lane-major is stream order
        block = _outputs(words.transpose(1, 2, 0).reshape(2, -1))
        block.flags.writeable = False
        return block

    def next_u64(self):
        return int(self._draws(1)[0])

    def shuffle(self, seq):
        """In-place Fisher-Yates shuffle of a mutable sequence or 1-d array.

        The same permutation as swapping seq[i] with seq[r] for i from the
        end down, r uniform in [0, i] by top-bit rejection. Each position takes at least one draw, so a
        request for as many draws as positions left is never overdrawn; the
        rounds of one shuffle, and the shuffles that follow, are served from
        the same lane blocks through the generator's buffer.
        """
        items = seq.tolist() if isinstance(seq, np.ndarray) else list(seq)
        i = len(items) - 1
        while i > 0:
            for r in self._draws(i).tolist():
                r >>= 64 - i.bit_length()  # top-bit rejection below i + 1
                if r <= i:
                    items[i], items[r] = items[r], items[i]
                    i -= 1
        seq[:] = items

    def _uniforms(self, n):
        """The next n draws as floats in [0, 1) with 53-bit resolution."""
        return (self._draws(n) >> 11) * _UNIT

    def fill_uniform(self, out_flat, low, high):
        """Fill a flat float64 buffer with uniform draws in [low, high), in
        stream order: low + (high - low) * u, u one draw's float each."""
        span = high - low
        for start in range(0, len(out_flat), _FILL_BLOCK):
            u = self._uniforms(min(_FILL_BLOCK, len(out_flat) - start))
            out_flat[start:start + len(u)] = low + span * u

    def fill_normal(self, out_flat, mean=0.0, std=1.0):
        """Fill a flat float64 buffer with normal draws, Box-Muller pairs in
        stream order: a pending spare is used first, and an odd count leaves
        one behind."""
        n = len(out_flat)
        start = 0
        if n and self._spare_normal is not None:
            out_flat[0] = mean + std * self._spare_normal
            self._spare_normal, start = None, 1
        for lo in range(start, n, _FILL_BLOCK):
            count = min(_FILL_BLOCK, n - lo)
            pairs = (count + 1) // 2
            u = self._uniforms(2 * pairs)
            # draws are multiples of 2**-53, so this replaces only 0.0
            u1 = np.maximum(u[0::2], _UNIT)
            theta = (2.0 * math.pi * u[1::2]).tolist()
            r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), float, pairs))
            cos = np.fromiter(map(math.cos, theta), float, pairs)
            sin = np.fromiter(map(math.sin, theta), float, pairs)
            block = out_flat[lo:lo + count]
            block[0::2] = mean + std * r * cos
            spare = r * sin
            block[1::2] = (mean + std * spare)[:count // 2]
            if count % 2:
                self._spare_normal = float(spare[-1])
