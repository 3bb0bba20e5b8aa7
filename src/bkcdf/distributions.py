"""Test distributions: beta mixtures w*B(1,2) + (1-w)*B(2,b) and the uniform,
with ``cdf``, ``pdf``, ``d2`` (second derivative of the CDF), a ``support``
tuple, ``roughness`` (integral of d2 squared, in closed form) and two
samplers driven by replicate streams.  ``replicate_rng(seed, index)`` is
the stream of numpy's ``default_rng(SeedSequence([seed, index]))``, PCG64,
reproduced bit for bit in integer arithmetic, so that sampling needs no
``numpy.random``.  ``sample_batch(rngs, n)`` draws n variates from each
stream into one row per stream, in the order a lone stream would, a stream
listed again going on from its previous row; a call that raises moves no
stream.  A beta mixture then inverts the B(2, b) draws of all rows by 64
elementwise bisection steps on [0, 1], so a draw has the same bits
whichever rows come with it.  ``sample(rng, n)`` is its one-stream case.
"""

from __future__ import annotations

import operator

import numpy as np

from .kernels import float_or_array

_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit multiplier M
_U64 = np.uint64
# draws per block, the jump table's length; and states per block, few numpy
# calls per draw with every uint64 temporary below 128 KB, where each would page-fault
_WIDTH, _BLOCK = 1024, 2**14 - 1


class ReplicateStream:
    """PCG64 seeded as numpy's ``PCG64(SeedSequence(words))``: the 128-bit
    state and increment as Python ints, set at the first draw (``None``
    until then, so that a batch of fresh streams is seeded in one pass)."""

    __slots__ = ("words", "state", "inc")

    def __init__(self, words: tuple):
        self.words = words
        self.state = self.inc = None

    def random(self, n: int) -> np.ndarray:
        """The next n doubles in [0, 1), as numpy's ``Generator.random(n)``."""
        return _doubles([self], n)[0]


def replicate_rng(seed: int, index: int) -> ReplicateStream:
    """Independent stream for one replicate, derived from (seed, index): the
    32-bit words of each, low word first, are SeedSequence's entropy."""
    words = []
    for value in (seed, index):
        try:
            value = operator.index(value)
        except TypeError:
            raise TypeError("seed must be integer") from None
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    return ReplicateStream(tuple(words))


def _halves(values):
    """(high, low) 64-bit halves of 128-bit Python ints, as uint64 arrays."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _MASK64 for v in values], dtype=np.uint64),
    )


def _mul128(a, b):
    """a * b mod 2^128 for (high, low) pairs of uint64 arrays; the high word of
    the low product comes from 32-bit halves."""
    (ah, al), (bh, bl) = a, b
    s32, m32 = _U64(32), _U64(_MASK32)
    a1, a0, b1, b0 = al >> s32, al & m32, bl >> s32, bl & m32
    t = a1 * b0 + (a0 * b0 >> s32)
    w = (t & m32) + a0 * b1
    return a1 * b1 + (t >> s32) + (w >> s32) + ah * bl + al * bh, al * bl


def _add128(a, b):
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]).astype(np.uint64), lo


def _mix(x, y):
    r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return r ^ r >> np.uint32(16)


def _seed(streams) -> None:
    """Set (state, inc) of fresh streams in one vectorised pass per entropy
    size: SeedSequence's pool of four, its ``generate_state(4, uint64)``, then
    PCG64's seeding step.  The pool hashes a missing word as a 0, so entropy of
    up to four words is one size."""

    def hashmix(value):
        # xor, multiply, xor-shift in uint32; the multiplier runs on from hash to hash
        nonlocal const
        h = (value ^ const) * (const := const * mult & _MASK32)
        return h ^ h >> np.uint32(16)

    groups = {}
    for stream in streams:
        groups.setdefault(max(len(stream.words), 4), []).append(stream)
    for size, group in groups.items():
        padded = [s.words + (0,) * (size - len(s.words)) for s in group]
        words = np.array(padded, dtype=np.uint32).T
        const, mult = 0x43B0D7E5, 0x931E8875
        pool = [hashmix(word) for word in words[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:  # words beyond the pool mix into each of its four
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        const, mult = 0x8B51F9DD, 0x58F38DED
        out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
        s0, s1, s2, s3 = (out[i] | out[i + 1] << _U64(32) for i in range(0, 8, 2))
        # PCG64's srandom: inc = 2 * initseq + 1, then two steps from 0 with
        # initstate added between them
        inc = (s2 << _U64(1) | s3 >> _U64(63), s3 << _U64(1) | _U64(1))
        state = _add128(_mul128(_add128(inc, (s0, s1)), _halves([_PCG_MULT])), inc)
        for stream, sh, sl, ih, il in zip(group, *(x.tolist() for x in (*state, *inc))):
            stream.state, stream.inc = sh << 64 | sl, ih << 64 | il


def _doubles(streams, k: int) -> np.ndarray:
    """The next k doubles of each stream, one row per stream, as numpy's
    ``random(k)``; a stream listed again starts where its previous listing
    ends.  j steps take a state s to M^j s + (M^(j-1) + ... + 1) inc mod 2^128.
    A listing's k draws are cut into segments of up to 1,024, whose start
    states, and its end state, are jumped to in Python ints.  A block, a few
    listings by a run of their segments, then takes M^j times each segment's
    start plus (M^(j-1) + ... + 1) inc, that product once per listing; each
    draw is its state's XSL-RR output (out >> 11) * 2^-53.  Every array
    operand is uint64.  The states are written back only after every draw is
    made, so a call that raises moves no stream."""
    _seed([s for s in streams if s.state is None])
    if k == 0:
        return np.empty((len(streams), 0))
    width = min(k, _WIDTH)
    powers, sums = [_PCG_MULT], [1]
    for _ in range(width - 1):
        sums.append(sums[-1] + powers[-1] & _MASK128)
        powers.append(powers[-1] * _PCG_MULT & _MASK128)
    jump, shift = _halves(powers), _halves(sums)
    segments = -(-k // width)
    lasts = [width - 1] * (segments - 1) + [(k - 1) % width]  # each segment's last column
    ends, starts = {}, []
    for stream in streams:
        state = ends.get(stream, stream.state)
        for j in lasts:
            starts.append(state)
            state = powers[j] * state + sums[j] * stream.inc & _MASK128
        ends[stream] = state
    sh, sl = (x.reshape(len(streams), segments, 1) for x in _halves(starts))
    ih, il = (x.reshape(-1, 1, 1) for x in _halves([s.inc for s in streams]))
    out = np.empty((len(streams), segments, width))
    run = min(segments, _BLOCK // width)
    rows = _BLOCK // (run * width)
    for r in range(0, len(streams), rows):
        g = slice(r, r + rows)
        step = _mul128(shift, (ih[g], il[g]))
        for c in range(0, segments, run):
            b = g, slice(c, c + run)
            hi, lo = _add128(_mul128(jump, (sh[b], sl[b])), step)
            v, rot = hi ^ lo, hi >> _U64(58)
            v = v >> rot | v << (-rot & _U64(63))
            out[b] = (v >> _U64(11)).astype(np.float64) * 2.0**-53
    for stream, state in ends.items():
        stream.state = state
    return out.reshape(len(streams), segments * width)[:, :k]


def _pow1m(x: np.ndarray, p: float) -> np.ndarray:
    """(1 - x)^p for x in [0, 1], stable near x = 1; zero at x = 1 for positive p
    (log1p(-1) = -inf), one everywhere for p = 0 (where 0 * -inf would be NaN)."""
    if p == 0.0:
        return np.ones_like(x)
    with np.errstate(divide="ignore"):
        return np.exp(p * np.log1p(-x))


class Uniform:
    """Uniform distribution on [a, b]."""

    def __init__(self, a: float = 0.0, b: float = 1.0):
        if not -np.inf < a < b < np.inf:
            raise ValueError("need finite a < b")
        if float(b) - float(a) == np.inf:
            raise ValueError("b - a overflows")
        self.support = (float(a), float(b))

    def __repr__(self) -> str:
        return f"Uniform({self.support[0]!r}, {self.support[1]!r})"

    def cdf(self, x):
        a, b = self.support
        return float_or_array(np.clip((np.asarray(x, dtype=float) - a) / (b - a), 0.0, 1.0))

    def pdf(self, x):
        a, b = self.support
        x = np.asarray(x, dtype=float)
        return float_or_array(np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0))

    def d2(self, x):
        return float_or_array(np.zeros_like(np.asarray(x, dtype=float)))

    def roughness(self) -> float:
        return 0.0

    def sample_batch(self, rngs, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("need n >= 1")
        a, b = self.support
        return a + (b - a) * _doubles(rngs, n)

    def sample(self, rng: ReplicateStream, n: int) -> np.ndarray:
        return self.sample_batch([rng], n)[0]


class BetaMixture:
    """Mixture w*B(1,2) + (1-w)*B(2,b) on [0, 1] with shape b >= 2.

    The density at 0 is 2w and the second CDF derivative at 0 is
    -2w + (1-w)*b*(b+1), which is how the mixture is tuned to target
    boundary behaviour (see :func:`solve_params`).
    """

    support = (0.0, 1.0)

    def __init__(self, w: float, shape_b: float):
        if not 0.0 <= w <= 1.0:
            raise ValueError("weight w must lie in [0, 1]")
        if not np.isfinite(shape_b):
            raise ValueError("shape parameter must be finite")
        if shape_b < 2.0:
            raise ValueError("shape parameter must be >= 2")
        self.w = float(w)
        self.shape_b = float(shape_b)
        if not np.isfinite(self.roughness()):
            raise ValueError("shape parameter too large: the roughness of F'' overflows")

    def __repr__(self) -> str:
        return f"BetaMixture(w={self.w!r}, shape_b={self.shape_b!r})"

    def cdf(self, x):
        # the clip pins F: to 0 at x <= 0, and at x >= 1 to w + (1 - w), which rounds to 1
        xc = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return float_or_array(self.w * (2.0 * xc - xc * xc) + (1.0 - self.w) * self._cdf_b2(xc))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        b = self.shape_b
        xc = np.clip(x, 0.0, 1.0)
        out = self.w * 2.0 * (1.0 - xc) + (1.0 - self.w) * b * (b + 1.0) * xc * _pow1m(
            xc, b - 1.0
        )
        return float_or_array(np.where((x >= 0.0) & (x <= 1.0), out, 0.0))

    def d2(self, x):
        x = np.asarray(x, dtype=float)
        b = self.shape_b
        xc = np.clip(x, 0.0, 1.0)
        out = -2.0 * self.w + (1.0 - self.w) * b * (b + 1.0) * _pow1m(xc, b - 2.0) * (
            (1.0 - xc) - (b - 1.0) * xc
        )
        return float_or_array(np.where((x >= 0.0) & (x <= 1.0), out, 0.0))

    def roughness(self) -> float:
        # d2 = -2w + c*g, c = (1-w)*b*(b+1), where g = (1-x)^(b-2)*(1-b*x), the
        # derivative of x*(1-x)^(b-1), has integral 0 and g^2 has integral
        # (b-1)/((2b-1)(2b-3)); c * (c * ratio) overflows only if R does
        b = self.shape_b
        c = (1.0 - self.w) * b * (b + 1.0)
        return 4.0 * self.w * self.w + c * (c * ((b - 1.0) / ((2.0 * b - 1.0) * (2.0 * b - 3.0))))

    def _cdf_b2(self, t: np.ndarray) -> np.ndarray:
        # CDF of the B(2, b) component alone on [0, 1]
        b = self.shape_b
        return 1.0 - _pow1m(t, b) * (1.0 + b * t)

    def sample_batch(self, rngs, n: int) -> np.ndarray:
        """n variates per stream: mixture choice, then inversion of the
        chosen component.  A B(2, b) draw bisects [0, 1] 64 times, to within
        2^-64 or one ulp of its quantile; F(0) = 0 <= u < 1 = F(1), so it
        cannot fail."""
        if n < 1:
            raise ValueError("need n >= 1")
        draws = _doubles(rngs, 2 * n).reshape(-1, 2, n)
        choose_first, u = draws[:, 0] < self.w, draws[:, 1]
        out = 1.0 - np.sqrt(1.0 - u)
        u = u[~choose_first]
        lo, hi = np.zeros_like(u), np.ones_like(u)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = self._cdf_b2(mid) < u
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        out[~choose_first] = 0.5 * (lo + hi)
        return out

    def sample(self, rng: ReplicateStream, n: int) -> np.ndarray:
        return self.sample_batch([rng], n)[0]


def solve_params(target_d1: float, target_d2: float) -> BetaMixture:
    """Beta mixture with density target_d1 and second CDF derivative
    target_d2 at the left endpoint.

    The weight is w = target_d1 / 2 and the shape parameter solves
    b*(b+1) = (target_d2 + 2w) / (1 - w).
    """
    if not 0.0 <= target_d1 < 2.0:
        raise ValueError("target density at 0 must lie in [0, 2)")
    if not np.isfinite(target_d2):
        raise ValueError("target second derivative at 0 must be finite")
    if target_d2 <= 0.0:
        raise ValueError("target second derivative at 0 must be positive")
    w = target_d1 / 2.0
    c = (target_d2 + 2.0 * w) / (1.0 - w)
    b = 0.5 * (np.sqrt(1.0 + 4.0 * c) - 1.0)
    if b < 2.0 - 1e-9:
        raise ValueError("targets fall outside the b >= 2 mixture family")
    return BetaMixture(w, max(b, 2.0))
