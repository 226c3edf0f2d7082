"""numpy's Philox streams and the values read from them, as arrays.

Every random value the campaigns read is a numpy generator's, bit for
bit: trial i of a Monte Carlo campaign reads random() values of
Generator(Philox(SeedSequence(seed).spawn(trials)[i])), and a random:
channel or input reads uniform or standard_normal values of
Generator(Philox(seed)).  Building one SeedSequence and one Philox per
trial costs tens of microseconds of interpreter time, and building any
Generator imports numpy.random (10-17 ms and 6 MiB).  All of it is fixed
arithmetic, so this module runs it for many streams at once with
uint32/uint64 numpy arrays:

  * SeedSequence: numpy's hash mixing of the entropy words (the seed's
    32-bit words, zero-padded to the pool size, then the child index as
    its spawn key, if any) into a 4-word pool, then
    generate_state(2, uint64) for the Philox key.
  * Philox4x64-10 (Salmon et al., SC 2011): block b of a stream is the
    10-round bijection of counter (b, 0, 0, 0) under the key; numpy's
    counter starts at 0 and is incremented before each 4-word block.
  * random() is (word >> 11) * 2^-53, and uniform(lo, hi) is
    lo + (hi - lo) * random().
  * standard_normal is numpy's 256-layer ziggurat (Marsaglia & Tsang,
    J. Stat. Softw. 5(8), 2000) with numpy's tables (_ziggurat); see
    standard_normals.

Array integer arithmetic wraps silently, which is the modular arithmetic
both algorithms specify.  The tests compare every value with numpy's.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_BLOCK_WORDS = 4

_MASK52 = (1 << 52) - 1
_ZIGGURAT_R = 3.6541528853610087963519472518  # the base layer's right edge
_ZIGGURAT_INV_R = 0.27366123732975827203338247596
# Words in one ziggurat pass across all rows: each of its arrays holds
# at most this many entries (512 KiB of uint64), however many normals.
NORMAL_CHUNK_WORDS = 2**16


def _uint32_words(value: int) -> list[int]:
    """An int as little-endian 32-bit words, [0] for zero (numpy's rule)."""
    words = []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            return words


def _pool_keys(entropy: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The two uint64 Philox key words from at least _POOL_SIZE entropy
    words, each a uint32 array over the streams (broadcast)."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(2, np.uint64): four 32-bit words, paired little-endian.
    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const
        state.append((word ^ (word >> _XSHIFT)).astype(np.uint64))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _child_keys(
    seeds: Sequence[int], children: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The two uint64 Philox key words of SeedSequence(seed) for each of
    seeds or, with children, of SeedSequence(seed, spawn_key=(i,)) for
    each child index i of the one seed.

    A seed's words are zero-padded to the pool size: numpy pads them so
    before a spawn key, and without one it hashes a zero for each missing
    word.  Seeds of more words hash more rounds, so they go by length."""
    runs = []
    for seed in seeds:
        if operator.index(seed) < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        runs.append(_uint32_words(seed))
    spawn = [] if children is None else [children.astype(np.uint32)]
    k0, k1 = np.empty((2, len(children) if spawn else len(runs)), np.uint64)
    lengths = np.array([max(len(run), _POOL_SIZE) for run in runs])
    for length in sorted(set(lengths.tolist())):
        rows = np.flatnonzero(lengths == length)
        words = np.zeros((length, len(rows)), np.uint32)
        for j, i in enumerate(rows.tolist()):
            words[: len(runs[i]), j] = runs[i]
        at = slice(None) if spawn else rows
        k0[at], k1[at] = _pool_keys(list(words) + spawn)
    return k0, k1


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit product a * b, from
    32-bit partial products (no partial sum exceeds 64 bits)."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_lo, lo_hi = b_lo * a_lo, b_lo * a_hi
    cross = (lo_lo >> 32) + (lo_hi & _MASK32) + b_hi * a_lo
    hi = b_hi * a_hi + (lo_hi >> 32) + (cross >> 32)
    return hi, cross << 32 | lo_lo & _MASK32


def _philox_blocks(k0: np.ndarray, k1: np.ndarray, blocks: int, first: int = 1) -> np.ndarray:
    """Words of counter blocks first..first+blocks-1 for each key: (keys, 4 * blocks)."""
    c0 = np.arange(first, first + blocks, dtype=np.uint64)[None, :]
    zero = np.zeros_like(c0)
    c1, c2, c3 = zero, zero, zero
    k0, k1 = k0[:, None], k1[:, None]
    for rnd in range(_PHILOX_ROUNDS):
        if rnd:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)
    return words.reshape(k0.shape[0], _BLOCK_WORDS * blocks)


def _random(k0: np.ndarray, k1: np.ndarray, count: int) -> np.ndarray:
    """The first count random() values of each key's stream: (word >> 11) * 2^-53."""
    words = _philox_blocks(k0, k1, -(-count // _BLOCK_WORDS))[:, :count]
    return (words >> 11).astype(np.float64) * 2.0**-53


def child_uniforms(seed: int, start: int, stop: int, draws: int) -> np.ndarray:
    """The first `draws` random() values of every child start..stop-1 of
    SeedSequence(seed).spawn(stop), one row per child: row i equals
    Generator(Philox(child)).random(draws) for child start + i."""
    if not 0 <= start <= stop <= 2**32:
        raise ValueError(f"child range {start}..{stop} outside 0..2^32")
    return _random(*_child_keys([seed], np.arange(start, stop, dtype=np.uint64)), draws)


def uniforms(seeds: Sequence[int], count: int) -> np.ndarray:
    """Row i: Generator(Philox(seeds[i])).random(count)."""
    return _random(*_child_keys(seeds), count)


@lru_cache(maxsize=1)
def _tables() -> tuple[np.ndarray, np.ndarray, list[float]]:
    """numpy's ziggurat tables ki (uint64), wi and fi, decoded on first use."""
    import binascii

    from ._ziggurat import TABLES

    raw = binascii.a2b_base64(TABLES)
    ki, wi, fi = (raw[i : i + 2048] for i in range(0, 6144, 2048))
    return np.frombuffer(ki, "<u8"), np.frombuffer(wi, "<f8"), np.frombuffer(fi, "<f8").tolist()


def standard_normals(seeds: Sequence[int], count: int) -> np.ndarray:
    """Row i: Generator(Philox(seeds[i])).standard_normal(count), bit for
    bit.  Two calls of count normals read what one call of 2 count reads.

    numpy's ziggurat reads one word per try: its low byte is a layer idx,
    bit 8 the sign, the next 52 bits rabs.  It returns x = +-rabs *
    wi[idx] when rabs < ki[idx], about 99% of words; that fast path is
    computed for a chunk of every row's words at once.  Otherwise the
    word is a reject and the next words are read as random() values:
    layer 0 draws from the tail, two values a try until one is kept;
    any other layer keeps x or not by one wedge test on fi, and a
    rejected x moves on to the next word.  So a reject shifts every
    later word, and the rejects are walked in order (_walk_rejects).
    A chunk holds at most about NORMAL_CHUNK_WORDS words across the rows,
    and the next chunk serves only the rows still short of count.
    """
    k0, k1 = _child_keys(seeds)
    out = np.empty((len(seeds), count))
    filled = np.zeros(len(seeds), np.intp)
    walked = np.zeros(len(seeds), np.intp)  # each stream's next unread word
    width = min(count * 33 // 32 + 8, max(16, NORMAL_CHUNK_WORDS // max(1, len(seeds))))
    blocks = -(-width // _BLOCK_WORDS)
    todo = np.flatnonzero(filled < count)
    first = 0  # the chunk's first block
    while todo.size:
        keys = k0[todo], k1[todo]

        def beyond(row: int, at: int) -> int:
            """Word `at` of row's chunk, past the chunk's end."""
            block, word = divmod(at, _BLOCK_WORDS)
            one = slice(row, row + 1)
            return int(_philox_blocks(keys[0][one], keys[1][one], 1, first + block + 1)[0, word])

        words = _philox_blocks(*keys, blocks, first + 1)
        chunk_start = _BLOCK_WORDS * first
        x, emit, ends = _walk_rejects(words, walked[todo] - chunk_start, beyond)
        need = count - filled[todo]
        rank = np.cumsum(emit, axis=1) - 1
        take = emit & (rank < need[:, None])
        rows, at = np.nonzero(take)
        out[todo[rows], filled[todo][rows] + rank[rows, at]] = x[rows, at]
        filled[todo] += take.sum(axis=1)
        walked[todo] = chunk_start + ends
        todo = todo[filled[todo] < count]
        first += blocks
    return out


def _walk_rejects(words: np.ndarray, start: np.ndarray, beyond):
    """The ziggurat over rows of words, each row's walk from word start:
    (x, emit, ends) with x[r, p] the normal word p gives where emit is
    set, and ends[r] the word after row r's walk.  Only the rejects are
    walked one at a time: math.log1p and math.exp, the libm calls numpy
    makes, not numpy's vectorized ones."""
    ki, wi, fi = _tables()
    idx = (words & 0xFF).astype(np.intp)
    rabs = words >> 9 & _MASK52
    x = rabs.astype(np.float64) * wi[idx]
    np.negative(x, out=x, where=(words >> 8 & 1).astype(bool))
    fast = rabs < ki[idx]
    emit = fast & (np.arange(words.shape[1]) >= start[:, None])
    walk = start.copy()  # per row, its walk's next word

    def double(row: int, at: int) -> float:
        word = int(words[row, at]) if at < words.shape[1] else beyond(row, at)
        return (word >> 11) * 2.0**-53

    for row, p in zip(*(a.tolist() for a in np.nonzero(~fast))):
        if p < walk[row]:  # read as a random() value by a reject before it
            continue
        layer, value = int(idx[row, p]), float(x[row, p])
        if layer == 0:  # the tail beyond _ZIGGURAT_R, always kept in the end
            at = p + 1
            while True:
                xx = -_ZIGGURAT_INV_R * math.log1p(-double(row, at))
                yy = -math.log1p(-double(row, at + 1))
                at += 2
                if yy + yy > xx * xx:
                    break
            tail = _ZIGGURAT_R + xx
            value = -tail if int(rabs[row, p]) >> 8 & 1 else tail
        else:
            at = p + 2
            u = double(row, p + 1)
            if not (fi[layer - 1] - fi[layer]) * u + fi[layer] < math.exp(-0.5 * value * value):
                value = None
        emit[row, p + 1 : at] = False
        if value is not None:
            x[row, p], emit[row, p] = value, True
        walk[row] = at
    return x, emit, np.maximum(walk, words.shape[1])
