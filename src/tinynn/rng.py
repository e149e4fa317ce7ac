"""Deterministic pseudo-random generator used everywhere randomness is needed.

Implements xoshiro256++ with splitmix64 seeding, by the reference algorithm.
No library RNG is used anywhere in the package: normal deviates come from the
Box-Muller transform and shuffles from Fisher-Yates on top of this generator,
so identical seeds give identical streams on any platform.

The state update has one copy, `Rng._draws`: its loop holds the state in
locals and steps it, and numpy forms the block's outputs from the recorded
state words with the same wrapping 64-bit arithmetic. The bulk consumers
(`shuffle`, `fill_uniform`, `fill_normal`) take their draws in blocks and
give results bit-identical to repeated calls of the scalar methods
(`randbelow`, `uniform`, `normal`), which stay as the reference. The bulk
float paths use numpy only for operations that are correctly rounded, so
they equal the scalar ones: the exact int-to-float conversion, products,
sums and `sqrt`. `log`, `sin` and `cos` come from `math`, because numpy's
vectorised versions are not bound to the C library's results: on an AVX-512
CPU, `np.log` differed from `math.log` in the last bit on about 0.35% of
uniform draws.
"""

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

    def _draws(self, n):
        """The next n outputs as a uint64 array, exactly as n next_u64 calls
        give them. The loop only steps the state, keeping s0 and s3 of each
        step; numpy forms the outputs rotl(s0 + s3, 23) + s0 from them, with
        the same wrapping 64-bit arithmetic."""
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
        s0s = np.array(firsts, np.uint64)
        x = s0s + np.array(lasts, np.uint64)
        return ((x << 23) | (x >> 41)) + s0s

    def next_u64(self):
        return int(self._draws(1)[0])

    def next_float(self):
        """Uniform in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, low, high):
        return low + (high - low) * self.next_float()

    def randbelow(self, n):
        """Uniform integer in [0, n) by top-bit rejection; exact, no modulo bias."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1, got %r" % (n,))
        bits = (n - 1).bit_length()
        if bits == 0:
            return 0
        while True:
            r = self.next_u64() >> (64 - bits)
            if r < n:
                return r

    def normal(self, mean=0.0, std=1.0):
        """Normal deviate via Box-Muller; generates in pairs, caches the spare."""
        z = self._spare_normal
        if z is not None:
            self._spare_normal = None
            return mean + std * z
        u1 = self.next_float()
        if u1 == 0.0:
            u1 = 2.0 ** -53  # avoid log(0); smallest representable draw instead
        u2 = self.next_float()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(theta)
        return mean + std * r * math.cos(theta)

    def shuffle(self, seq):
        """In-place Fisher-Yates shuffle of a mutable sequence or 1-d array.

        The same permutation as swapping seq[i] with seq[randbelow(i + 1)]
        for i from the end down. Each position takes at least one draw, so a
        block of as many draws as positions left is never overdrawn.
        """
        items = seq.tolist() if isinstance(seq, np.ndarray) else list(seq)
        i = len(items) - 1
        while i > 0:
            for r in self._draws(i).tolist():
                r >>= 64 - i.bit_length()  # randbelow(i + 1)'s top-bit rejection
                if r <= i:
                    items[i], items[r] = items[r], items[i]
                    i -= 1
        seq[:] = items

    def _uniforms(self, n):
        """The next n next_float() values as a float64 array."""
        return (self._draws(n) >> 11) * _UNIT

    def fill_uniform(self, out_flat, low, high):
        """Fill a flat float64 buffer with uniform draws in stream order,
        equal to repeated uniform(low, high) calls."""
        span = high - low
        for start in range(0, len(out_flat), _FILL_BLOCK):
            u = self._uniforms(min(_FILL_BLOCK, len(out_flat) - start))
            out_flat[start:start + len(u)] = low + span * u

    def fill_normal(self, out_flat, mean=0.0, std=1.0):
        """Fill a flat float64 buffer with normal draws, equal to repeated
        normal(mean, std) calls: a pending spare is used first, and an odd
        count leaves one behind."""
        n = len(out_flat)
        start = 0
        if n and self._spare_normal is not None:
            out_flat[0] = self.normal(mean, std)
            start = 1
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
