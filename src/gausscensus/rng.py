"""Counter-based random streams keyed by sample index.

Every sample owns an independent Philox-4x64-10 substream whose key is
(seed, sample_index).  Uniform variates for a sample therefore never
depend on how samples are split across workers, which is what makes
byte-identical parallel runs possible.  The vectorized generator here
reproduces numpy's Generator(Philox(key=[seed, index])).random()
bit for bit, from counter 0 (the sample streams) or from counter 2^64
(the grid streams); the Generator constructors are kept for consumers
that need a full stream object (grid redraws, tests).

The generator works _CHUNK samples at a time.  The counter blocks a
row needs are stacked into one lane array, so each numpy operation of
a round runs once per chunk, in buffers that stay in a core's cache,
and the finished words are written straight into the output.  The first
two rounds are worked partly in Python integers: there the counter, one
counter word or the key word is the same in every lane.  Chunking
changes no bit: every lane is exact 64-bit integer arithmetic.

There is one kernel, `_philox`: it takes an array of sample indices,
the first counter block to draw, so a row can start at any uniform 4b,
and the counter's second word, which is 1 in the grid streams.
`substream_uniforms` is its contiguous case (indices start .. start +
count - 1, from counter block 0), `third_block_uniforms` draws
uniforms 8 and 9 (counter block 2) for any index array, which lets the
census draw them only for samples that pass its first screens, and
`grid_uniforms` draws the head of each sample's grid stream.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "BLOCK",
    "substream_uniforms",
    "third_block_uniforms",
    "grid_uniforms",
    "sample_stream",
    "grid_stream",
]

#: Fixed reduction granularity of all censuses.  Partial results are
#: folded in block order, so this constant participates in the
#: determinism contract and must not be made configurable.
BLOCK = 65536

# Samples per pass of the Philox kernel.  Any value gives the same
# uniforms.  At 4,096 the ten lane buffers take about 1 MB at width 10;
# it ran fastest of 1,024 to 65,536 on a Xeon with 2 MB of L2 per core.
_CHUNK = 4096

_MASK64 = 2**64 - 1
_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_SH32 = _U64(32)
_MULT0 = 0xD2E7470EE14C6C93
_MULT1 = 0xCA5A826395121157
_WEYL0 = 0x9E3779B97F4A7C15
_WEYL1 = 0xBB67AE8584CAA73B


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


def _mul128(a: int, b: int) -> tuple[int, int]:
    # High and low words of the 128-bit product of two Python ints.
    p = a * b
    return p >> 64, p & _MASK64


def _mulhilo(a: np.ndarray, b: int, hi: np.ndarray, lo: np.ndarray,
             t1: np.ndarray, t2: np.ndarray) -> None:
    # hi, lo = words of a * b from 32-bit limbs, in 15 in-place ufunc
    # calls; t1 and t2 are scratch.  uint64 wraps by design.
    bl = _U64(b & 0xFFFFFFFF)
    bh = _U64(b >> 32)
    np.bitwise_and(a, _LO32, out=t1)  # al
    np.right_shift(a, _SH32, out=hi)  # ah
    np.multiply(t1, bl, out=t2)
    t2 >>= _SH32
    np.multiply(hi, bl, out=lo)
    t2 += lo  # mid = (al*bl >> 32) + ah*bl
    t1 *= bh
    np.bitwise_and(t2, _LO32, out=lo)
    lo += t1  # mid2 = (mid & LO) + al*bh
    hi *= bh
    t2 >>= _SH32
    hi += t2
    lo >>= _SH32
    hi += lo  # hi = ah*bh + (mid >> 32) + (mid2 >> 32)
    np.multiply(a, _U64(b), out=lo)


def substream_uniforms(seed: int, start: int, count: int, width: int = 10) -> np.ndarray:
    """Uniform [0, 1) variates for samples start .. start + count - 1.

    Row i holds the first `width` uniforms of the substream keyed by
    (seed, start + i), exactly as numpy's Philox generator would draw
    them one sample at a time.
    """
    seed = _check_seed(seed)
    start, count = int(start), int(count)
    if start < 0:
        raise ValueError("start must be a nonnegative sample index")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if start + count > 2**64:
        raise ValueError("sample indices must fit in an unsigned 64-bit integer")
    return _philox(seed, np.arange(start, start + count, dtype=np.uint64), 0, width)


def third_block_uniforms(seed: int, index) -> np.ndarray:
    """Uniforms 8 and 9 (counter block 2) of the samples in `index`.

    Row i holds `sample_stream(seed, index[i]).random(10)[8:10]`.  The
    indices may come in any order, repeat or skip.
    """
    return _philox(_check_seed(seed), _sample_indices(index), 2, 2)


def grid_uniforms(seed: int, index, width: int) -> np.ndarray:
    """The first `width` uniforms of the grid streams of `index`.

    Row i holds `grid_stream(seed, index[i]).random(width)`.  The
    indices may come in any order, repeat or skip.
    """
    return _philox(_check_seed(seed), _sample_indices(index), 0, int(width), high=1)


def _sample_indices(index) -> np.ndarray:
    # The indices as a contiguous uint64 array.  Python ints are taken
    # one by one: numpy would carry a list mixing 5 and 2^63 as float64.
    if isinstance(index, np.ndarray) and index.dtype.kind in "iu":
        if index.size and index.min() < 0:
            raise ValueError("sample indices must be nonnegative")
        return np.ascontiguousarray(index.ravel(), dtype=np.uint64)
    values = [operator.index(i) for i in np.asarray(index, dtype=object).ravel()]
    if not all(0 <= i < 2**64 for i in values):
        raise ValueError("sample indices must fit in an unsigned 64-bit integer")
    return np.array(values, dtype=np.uint64)


def _philox(seed: int, index: np.ndarray, first_block: int, width: int,
            high: int = 0) -> np.ndarray:
    # Row i: `width` uniforms of the substream keyed (seed, index[i]),
    # from uniform 4*first_block on; index is a contiguous uint64 array.
    # high is the counter's second word: 0 in the sample streams, 1 in
    # the grid streams (numpy's counter 2^64 is the words (0, 1, 0, 0)).
    count = len(index)
    # Counter block b (numpy's counter b + 1) gives uniforms 4b .. 4b + 3.
    blocks = -(-width // 4)
    counters = range(first_block + 1, first_block + blocks + 1)
    words = [_mul128(counter, _MULT0) for counter in counters]
    first_hi = np.array([hi for hi, _ in words], dtype=np.uint64)
    first_lo = np.array([lo for _, lo in words], dtype=np.uint64)
    seed_hi, seed_lo = _mul128(seed ^ high, _MULT0)
    size = min(_CHUNK, count)
    buffers = np.empty((10, size, blocks), dtype=np.uint64)
    # The output is allocated after the lane buffers.  In the other order
    # a Bures block's grid draw left glibc's heap with 1.8 MB less free
    # space at its top, and bures-15-15 read 3% more peak RSS.
    out = np.empty((count, width))
    for s in range(0, count, _CHUNK):
        n = min(_CHUNK, count - s)
        c0, c1, c2, c3, h0, l0, h1, l1, t1, t2 = buffers[:, :n]
        k1 = index[s:s + n, None]
        # Round 1 on the counter (counter, high, 0, 0), key (seed, index):
        # c0 = seed ^ high, c1 = 0, c2 = hi(counter*M0) ^ index,
        # c3 = lo(counter*M0).
        np.bitwise_xor(k1, first_hi, out=c2)
        k0 = (seed + _WEYL0) & _MASK64
        k1 = k1 + _U64(_WEYL1)
        # Round 2: the product of c0 = seed ^ high is a scalar and c1 is
        # zero.
        _mulhilo(c2, _MULT1, c0, c1, t1, t2)
        c0 ^= _U64(k0)
        np.bitwise_xor(k1, first_lo ^ _U64(seed_hi), out=c2)
        c3.fill(seed_lo)
        # Rounds 3 to 10 on full lanes; the buffers of a round's input
        # words take the next round's products.
        for _ in range(8):
            k0 = (k0 + _WEYL0) & _MASK64
            k1 += _U64(_WEYL1)
            _mulhilo(c0, _MULT0, h0, l0, t1, t2)
            _mulhilo(c2, _MULT1, h1, l1, t1, t2)
            h1 ^= c1
            h1 ^= _U64(k0)
            h0 ^= c3
            h0 ^= k1
            c0, c1, c2, c3, h0, l0, h1, l1 = h1, l1, h0, l0, c0, c1, c2, c3
        # Word j of counter block b is uniform 4b + j: its top 53 bits
        # over 2^53, as numpy's random() takes them.
        rows = out[s:s + n]
        for j, word in enumerate((c0, c1, c2, c3)):
            word >>= _U64(11)
            np.multiply(word[:, :len(range(j, width, 4))], 2.0**-53, out=rows[:, j::4])
    return out


def _key(seed: int, index: int) -> np.ndarray:
    # An explicit uint64 array: a plain list would go through numpy's
    # default promotion, which loses exactness for values near 2^64.
    return np.array([_check_seed(seed), int(index)], dtype=np.uint64)


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Full stream object for one sample's substream."""
    return np.random.Generator(np.random.Philox(key=_key(seed, index)))


def grid_stream(seed: int, index: int) -> np.random.Generator:
    """Auxiliary substream for per-sample grid drawing.

    Starts the same keyed Philox at counter 2^64, a region the matrix
    draws (which start at counter zero) can never reach.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, index), counter=2**64))
