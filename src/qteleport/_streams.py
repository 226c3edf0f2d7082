"""numpy's Philox streams and the values read from them, as arrays.

Trial i of a Monte Carlo campaign reads the random() values of
Generator(Philox(SeedSequence(seed).spawn(trials)[i])), and a random:
channel or input the uniform or standard_normal values of
Generator(Philox(seed)).  This module computes them bit for bit, for
many streams at once:

  * A key is SeedSequence's generate_state(2, uint64) of its 4-word
    pool: a seed's words are hashed into the pool (_seed_pools), and a
    child's index, its spawn word, is one more word (_child_keys).
  * Block b of a stream is Philox4x64-10 (Salmon et al., SC 2011) of
    counter (b, 0, 0, 0) under the key, from b = 1: numpy increments the
    counter before each block.  Each round's two 64x64 -> 128-bit
    multiplies, of words 0 and 2, run as one stacked pair of lanes
    (_mulhilo), over slices of at most PHILOX_SLICE_WORDS words.
  * random() is (word >> 11) * 2^-53; standard_normal is numpy's
    ziggurat with numpy's tables (standard_normals).

Array arithmetic, and int arithmetic masked to 32-bit lanes, wraps as
both algorithms specify.  The tests compare every value with numpy's.
"""

from __future__ import annotations

import binascii
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
# mix's multipliers L and 2^32 - R: L x - R y mod 2^32 as a sum.
_MIX_MULT_L, _MIX_MULT_NEG_R = 0xCA01F9DD, 2**32 - 0x4973F715
_LANE_BYTES = 8  # a seed's lane in a pool int: holds a 32 x 32-bit product

# Philox4x64-10's multipliers, their high and low 32-bit halves and the
# key increments, each a (2, 1, 1) lane pair for words (0, 2).
_PHILOX_M, _M_HI, _M_LO, _PHILOX_W = np.array(
    [[0xD2E7470EE14C6C93, 0xCA5A826395121157], [0xD2E7470E, 0xCA5A8263],
     [0xE14C6C93, 0x95121157], [0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B]], np.uint64,
)[:, :, None, None]
_U32, _LOW32 = np.array(32, np.uint64), np.array(_MASK32, np.uint64)
_PHILOX_ROUNDS = 10
_BLOCK_WORDS = 4
# Words in one slice of a _philox_blocks call: a round's temporaries
# (128 KiB each) stay in cache however many blocks are asked for.
PHILOX_SLICE_WORDS = 2**15

_MASK52 = (1 << 52) - 1
_ZIGGURAT_R = 3.6541528853610087963519472518  # the base layer's right edge
_ZIGGURAT_INV_R = 0.27366123732975827203338247596
# Words in one ziggurat pass across all rows: each of its arrays holds
# at most this many entries (512 KiB of uint64), however many normals.
NORMAL_CHUNK_WORDS = 2**16


def _hashmix(value, xor, mult, mask=_MASK32):
    """numpy's hashmix: value xor a hash constant, times the next.  value
    is a uint32 array, or an int of 32-bit values in mask's lanes."""
    value = (value ^ xor) * mult & mask
    return value ^ value >> _XSHIFT & mask


def _mix(x, y, mask=_MASK32):
    """numpy's mix of two hashed words, lane by lane as in _hashmix."""
    result = ((x * _MIX_MULT_L & mask) + (y * _MIX_MULT_NEG_R & mask)) & mask
    return result ^ result >> _XSHIFT & mask


@lru_cache(maxsize=16)
def _hash_consts(init: int, mult: int, count: int) -> tuple[int, ...]:
    """numpy's first count hash constants, init * mult^k mod 2^32: the
    k-th hashmix xors the k-th and multiplies by the next."""
    consts = [init]
    while len(consts) < count:
        consts.append(consts[-1] * mult & _MASK32)
    return tuple(consts)


def _seed_pools(seeds: Sequence[int]) -> tuple[list[int], int, int]:
    """SeedSequence(seed)'s pool for each seed, one 64-bit lane per seed:
    the four pool words, the index of the next hash constant (that of the
    longest seed) and the int with a 1 in each lane.  A seed hashes its
    32-bit words, zero-padded to the pool size; a shorter seed's lane keeps
    its pool through the longer seeds' words."""
    seeds = list(map(operator.index, seeds))
    if seeds and min(seeds) < 0:
        raise ValueError(f"seed must be non-negative, got {min(seeds)}")
    lengths = [(seed.bit_length() + 31) // 32 if seed >> 32 * _POOL_SIZE else _POOL_SIZE
               for seed in seeds]
    length = max(lengths, default=_POOL_SIZE)
    raw = b"".join(seed.to_bytes(4 * length, "little") for seed in seeds)
    lanes = np.zeros((length, len(seeds), _LANE_BYTES // 4), "<u4")
    lanes[:, :, 0] = np.frombuffer(raw, "<u4").reshape(len(seeds), length).T
    words = [int.from_bytes(word.tobytes(), "little") for word in lanes]
    one = b"\1" + bytes(_LANE_BYTES - 1)
    ones = int.from_bytes(one * len(seeds), "little")
    mask = _MASK32 * ones
    h = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * (length + 1) + 1)
    pool = [_hashmix(words[k], h[k] * ones, h[k + 1], mask) for k in range(_POOL_SIZE)]
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[k] * ones, h[k + 1], mask), mask)
                k += 1
    for j in range(_POOL_SIZE, length):
        live = b"".join(one if n > j else bytes(_LANE_BYTES) for n in lengths)
        live = _MASK32 * int.from_bytes(live, "little")
        for dst in range(_POOL_SIZE):
            mixed = _mix(pool[dst], _hashmix(words[j], h[k] * ones, h[k + 1], mask), mask)
            pool[dst] = mixed & live | pool[dst] & (mask ^ live)
            k += 1
    return pool, k, ones


def _seed_keys(seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The two uint64 Philox key words of SeedSequence(seed) for each seed."""
    pool, _, ones = _seed_pools(seeds)
    h, mask = _hash_consts(_INIT_B, _MULT_B, _POOL_SIZE + 1), _MASK32 * ones
    s0, s1, s2, s3 = (_hashmix(word, h[k] * ones, h[k + 1], mask) for k, word in enumerate(pool))
    size = _LANE_BYTES * len(seeds)
    return (np.frombuffer((s0 | s1 << 32).to_bytes(size, "little"), "<u8"),
            np.frombuffer((s2 | s3 << 32).to_bytes(size, "little"), "<u8"))


def _child_keys(seed: int, children: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two uint64 Philox key words of SeedSequence(seed, spawn_key=(i,))
    for each child index i (uint32): the seed's pool, then i as its last
    word, mixed into all four pool words at once."""
    pool, k, _ = _seed_pools([seed])
    h = np.array(_hash_consts(_INIT_A, _MULT_A, k + _POOL_SIZE + 1)[k:], np.uint32)[:, None]
    pool = _mix(np.array(pool, np.uint32)[:, None], _hashmix(children, h[:-1], h[1:]))
    h = np.array(_hash_consts(_INIT_B, _MULT_B, _POOL_SIZE + 1), np.uint32)[:, None]
    state = _hashmix(pool, h[:-1], h[1:]).astype(np.uint64)
    return state[0] | state[1] << _U32, state[2] | state[3] << _U32


def _mulhilo(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products _PHILOX_M * b,
    lane by lane: the high half from 32-bit partial products (no partial
    sum exceeds 64 bits), the low half one wrapping multiply."""
    b_lo, b_hi = b & _LOW32, b >> _U32
    lo_lo, lo_hi = b_lo * _M_LO, b_lo * _M_HI
    cross = (lo_lo >> _U32) + (lo_hi & _LOW32) + b_hi * _M_LO
    return b_hi * _M_HI + (lo_hi >> _U32) + (cross >> _U32), b * _PHILOX_M


def _philox_blocks(k0: np.ndarray, k1: np.ndarray, blocks: int, first: int = 1) -> np.ndarray:
    """Words of counter blocks first..first+blocks-1 for each key: (keys, 4 * blocks)."""
    out = np.empty((len(k0), blocks, _BLOCK_WORDS), np.uint64)
    step = max(1, min(blocks, PHILOX_SLICE_WORDS // _BLOCK_WORDS))
    rows = max(1, PHILOX_SLICE_WORDS // _BLOCK_WORDS // step)
    for r in range(0, len(k0), rows):
        keys = np.stack([k0[r : r + rows], k1[r : r + rows]])[:, :, None]
        for b in range(0, blocks, step):
            # Lanes (c0, c2) and (c1, c3) of counters (first + b.., 0, 0, 0).
            even = np.zeros((2, 1, min(step, blocks - b)), np.uint64)
            even[0, 0] = np.arange(first + b, first + b + even.shape[2], dtype=np.uint64)
            odd, key = 0, keys
            for rnd in range(_PHILOX_ROUNDS):
                if rnd:
                    key = key + _PHILOX_W
                hi, lo = _mulhilo(even)
                even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
            at = out[r : r + rows, b : b + step]
            at[..., 0::2], at[..., 1::2] = np.moveaxis(even, 0, -1), np.moveaxis(odd, 0, -1)
    return out.reshape(len(k0), _BLOCK_WORDS * blocks)


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
    return _random(*_child_keys(seed, np.arange(start, stop, dtype=np.uint32)), draws)


def uniforms(seeds: Sequence[int], count: int) -> np.ndarray:
    """Row i: Generator(Philox(seeds[i])).random(count)."""
    return _random(*_seed_keys(seeds), count)


@lru_cache(maxsize=1)
def _tables() -> tuple[np.ndarray, np.ndarray, list[float]]:
    """numpy's ziggurat tables ki (uint64), wi and fi, decoded on first use."""
    raw = binascii.a2b_base64(_ZIGGURAT_TABLES)
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
    k0, k1 = _seed_keys(seeds)
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


# numpy's ziggurat tables: base64 of three little-endian arrays of 256
# entries each, in this order: ki_double (uint64), wi_double (float64),
# fi_double (float64), the tables of random_standard_normal in numpy's
# numpy/random/src/distributions/distributions.c (Marsaglia & Tsang, J.
# Stat. Softw. 5(8), 2000).  They cannot be recomputed bit for bit: a
# float64 recursion misses them by up to 3.9e-14, and a 50-digit one
# matches 43 of 255 entries.  _tables decodes them on first use.
#
# They were read from numpy 2.4's static library.  To read them again:
#
#     ar x numpy/random/lib/libnpyrandom.a src_distributions_distributions.c.o
#     objdump -h -t src_distributions_distributions.c.o
#
# objdump -t gives each table's offset in .rodata (fi_double 0x3000,
# wi_double 0x3800, ki_double 0x4000, 0x800 bytes each) and objdump -h
# the section's file offset; the bytes are at the sum.  ki_double[0] is
# 0x000EF33D8025EF6A and fi_double[0] is 1.0.
_ZIGGURAT_TABLES = (
    "au8lgD3zDgAAAAAAAAAAAKjG+5i+CAwAQoG9+lSjDQDq7sF+9lEOAH730+lVsg4Aucp+gUvvDgCqRPoKRxkPABjL"
    "/2HtNw8AXCVhlUZPDwCWoxvkpWEPAKSWU3V6cA8AmkQo7LJ8DwDTV2MM8YYPAN4lg1emjw8A2tBNxySXDwAJ9dsH"
    "qZ0PAHT6gfVgow8A+Etb3m+oDwDcVNNg8awPAA+5GGf7sA8AxnRTjZ+0DwB3/mYj7LcPAA7loensug8A7QsEnau9"
    "DwBXbP9gMMAPAEiiNxCCwg8A0VvieqbEDwAx7nqXosYPAKSWKKl6yA8Ahd5LXjLKDwAaIwLpzMsPAMQ5+BJNzQ8A"
    "meyPTbXODwAwyR2/B9APAObE1k1G0Q8AUPTiqHLSDwAeyfBPjtMPAHi0kJma1A8AUw+SuJjVDwDsmY7AidYPADLo"
    "yKlu1w8A6Ah7VEjYDwCMLK2LF9kPANKtpwfd2Q8AjF4QcJnaDwAgLsBdTdsPAND8W1z52w8AfZq5653cDwCdchiB"
    "O90PAJAvNIjS3Q8AZJ82ZGPeDwBOUY1w7t4PAC60pgF03w8AQO2ZZfTfDwDyJLzkb+APAFiiJcLm4A8ATLgoPFnh"
    "DwCZP7yMx+EPAKoc2+kx4g8AkRvahZjiDwCGQbWP++IPAEqNVTNb4w8AKgDQmbfjDwB/rZ7pEOQPADR31EZn5A8A"
    "XAlM07rkDwAkldKuC+UPAHi8TvdZ5Q8AEhLkyKXlDwCJhhM+7+UPAHgQ2W825g8AeNXGdXvmDwCqER5mvuYPAPL0"
    "5VX/5g8AAqcAWT7nDwA5nj6Ce+cPAKJwcOO25w8AQ0J3jfDnDwCM8FOQKOgPADoXNfte6A8AZAiE3JPoDwC8zvBB"
    "x+gPAPZOfTj56A8AHZuHzCnpDwDqiNMJWekPAKKak/uG6Q8AZkhxrLPpDwDVtpQm3+kPAHzmq3MJ6g8ApGbxnDLq"
    "DwAslTKrWuoPABp01aaB6g8A8Bzel6fqDwAg2fOFzOoPADzmZXjw6g8AE+wvdhPrDwBKKv6FNesPALRiMa5W6w8A"
    "+oTi9HbrDwAUIOZflusPAHydz/S06w8A0En0uNLrDwA+Lm6x7+sPAOi9HuML7A8AFVqxUifsDwDTr50EQuwPAJbx"
    "Kf1b7A8A9O5sQHXsDwC0DFDSjewPABIfkbal7A8A/ifE8LzsDwAV+1SE0+wPALPIiHTp7A8At5F/xP7sDwAohTV3"
    "E+0PAANJhI8n7Q8ATC8kEDvtDwBuWK37Te0PAN3DmFRg7Q8A6E9BHXLtDwCCqeRXg+0PAMgspAaU7Q8ABLeFK6Tt"
    "DwC0anTIs+0PAFJmQd/C7Q8AUm6kcdHtDwDTijyB3+0PAICZkA/t7Q8AFNQPHvrtDwDESxKuBu4PAAZa2cAS7g8A"
    "4AaQVx7uDwAkZUtzKe4PALzkChU07g8APJu4PT7uDwD0ginuR+4PAIawHSdR7g8AQX9A6VnuDwAutCg1Yu4PAPGX"
    "WAtq7g8Aegc+bHHuDwCCezJYeO4PALoGe89+7g8AskpI0oTuDwBDY7Zgiu4PAFHIzHqP7g8A2iV+IJTuDwDqKahR"
    "mO4PAFxIEw6c7g8A9HNyVZ/uDwCuzGInou4PAKxCa4Ok7g8AcS38aKbuDwD61m7Xp+4PAAr6BM6o7g8AOzPoS6nu"
    "DwAQZClQqe4PAF4HwNmo7g8AVHaJ56fuDwAkHUh4pu4PAIOeooqk7g8A2uQiHaLuDwAkIDUun+4PAC6vJryb7g8A"
    "5PIkxZfuDwA6CjxHk+4PABZ1VUCO7g8Aepw2rojuDwD9PX+Ogu4PAIi4p9577g8A/zf/m3TuDwBevanDbO4PAH4A"
    "nlJk7g8AiCijRVvuDwC2V06ZUe4PAM8GAEpH7g8AUCzhUzzuDwDYKuCyMO4PAAWCrWIk7g8AWjy4XhfuDwBHFCqi"
    "Ce4PAMxJ4yf77Q8AbCF26uvtDwB+BCLk2+0PANM5zg7L7Q8A9CwEZLntDwDJOOncpu0PAI3pN3KT7Q8ANqg4HH/t"
    "DwArwLnSae0PAACuBo1T7Q8AIqTeQTztDwDYL2rnI+0PAETmL3MK7Q8ANP4H2u/sDwC4tw4Q1OwPALRulQi37A8A"
    "wTAStpjsDwB4qQ0KeewPAP4xD/VX7A8AYsmGZjXsDwA1s7RMEewPANBvjpTr6w8AkragKcTrDwDcDO71musPAEKF"
    "yeFv6w8Anh+t00LrDwBLLQuwE+sPAOkCGlni6g8AVyKZrq7qDwAm446NeOoPAOVz/c8/6g8A9tmNTATqDwA7Vi/W"
    "xekPAKRHqTuE6Q8AKEcdRz/pDwDWxXa99ugPAOboxF2q6A8A6rF64FnoDwBAqZD2BOgPAMAzgkir5w8ApWofdUzn"
    "DwACoioQ6OYPANirtqB95g8AfjA4nwzmDwBC9zhzlOUPAIByl3AU5Q8AWPQ21IvkDwA3Hv2/+eMPAJyx7jVd4w8A"
    "/uQvErXiDwBXVZkDAOIPABSDeII84Q8AsGfuxGjgDwCqcSuwgt8PAKr+fsWH3g8A/TvGCXXdDwATvynlRtwPAIIC"
    "Lvj42g8Adbqy4YXZDwAEz0jv5tcPAAtlva0T1g8AEvDiSQHUDwCsx7SnodEPAJ4fdgTizg8AshFe2KjLDwAiLc1u"
    "0scPAO0iHi8rww8AOrjAgWW9DwA0VADEBrYPAHQoKlhArA8AmEUBHpeeDwD8HaRI+okPACww8PfFZg8AShwzS1oa"
    "DwB52RV4O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRydFovrJ08"
    "w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88ozwvsaLBnr2jPFWb"
    "/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mumPHAFAJKi0qY8pvhG09o2pzx3KrMQ"
    "rZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k86h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdi"
    "qjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8"
    "SLeADp8erTwQH+QpnWetPMO4IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj2"
    "2FT2Ua88rteHnm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyE"
    "fa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqnibE8iG3uURuo"
    "sTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRbsjx/0x1mKnmyPBvXGceBlrI8"
    "2i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiezPKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSy"
    "sm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae"
    "33q0PC+PSDK6lrQ8XUEC9oeytDzcEbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndY"
    "tTx4X1UOAHS1PBSFDsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8"
    "Cya3BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3Jw+3PMYU"
    "aVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NMz7c8595zjNbqtzwf6oak"
    "Zwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQuDxDwAWSjqy4PJwMoatlyLg8J2pEUUnk"
    "uDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8"
    "EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71"
    "Ws14yLo8NrOL4bTlujwaocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXb"
    "a7W7PKLALmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2vY+q"
    "vDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0c4m9PHBuIJkJqr08"
    "Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8Acr48Cr8qSyGUvjwIb/fAgba+PDqn"
    "EHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9mvzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjB"
    "Wfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTAPMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeW"
    "wDzEwHF1zarAPEjU7tE9v8A8MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8"
    "Oy5gSGRVwTzz7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHM"
    "BJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uWMdTQwjz1eKmx"
    "De7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5wdazDPKYEF7Mnz8M8dfRgqtvy"
    "wzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51zt8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8"
    "G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kWxjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMG"
    "CVaVecc8jM7W9C3Uxzw08ikFAznIPBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmC"
    "tDvNPAAAAAAAAPA/h/B5yWpE7z8VqWxbVLfuP3fwJ+ARP+4/ld4Ep2/T7T/yvFcGknDtP9wZoXhJFO0/6y2nqDO9"
    "7D9/eKnOXmrsP+q67tkcG+w/gtzhTuvO6z9S9Y86ZYXrPxDdNII6Pus/ouhsPyr56j8EJXrx/rXqP+HJUNWLdOo/"
    "D6/1/ao06j/YH2XuO/bpP4EGJI0iuek/wXphV0Z96T9HehvCkULpP09xMb3xCOk/qArmT1XQ6D8C37pIrZjoP6y8"
    "N/zrYeg/bs9WDwUs6D/L4iBL7fbnP1honHeawuc/1bCgPAOP5z9W2HAHH1znPxJtP/TlKec/7nrqulD45j+JWmOe"
    "WMfmPyo7UV73luY/I+OSKidn5j8YDFWY4jfmP2UmgJgkCeY/av9Kb+ja5T+JXMisKa3lP4+NTCbkf+U/Rp6N8BNT"
    "5T/VbGVatSblP2e2IOjE+uQ/wE5JTz/P5D94UtxyIaTkPxJQ319oeeQ/eTZJShFP5D/jXzWKGSXkP4JbWJl+++M/"
    "ozGvED7S4z8OzWKmVanjP9UA2ivDgOM/6VD1i4RY4z81OnDJlzDjP+84ZP36COM/7jvqVazh4j9KldcUqrriPxXN"
    "k47yk+I/7QQFKYRt4j+E25BaXUfiP/L3L6l8IeI/IJaSqeD74T9pmVT+h9bhPxHRP1dxseE/UDybcJuM4T/aOYYS"
    "BWjhP5ypXhCtQ+E/OB8xSJIf4T8TWTKis/vgP6BCQRAQ2OA/rtlwjaa04D+BXZkddpHgPzY88Mx9buA/Lj+mr7xL"
    "4D8qgovhMSngP8TKuIXcBuA/ob17jHfJ3z/KAKmnnYXfP/N6L8spQt8/lY9+cRr/3j9UH70gbrzeP8XDTmojet4/"
    "hZtf6jg43j8JOnZHrfbdP7FWCzJ/td0/M94mZK103T+AEAKhNjTdP21brrQZ9Nw/SKjAc1W03D/H1wC76HTcP7gs"
    "HW/SNdw/F2phfBH32z+RbXHWpLjbPxsTB3iLets/yjGzYsQ82z9ShaGeTv/aP55aXzopwto/gNikSlOF2j9NwCDq"
    "y0jaPz6ERjmSDNo/35MeXqXQ2T/GwBiEBJXZP5Of4NuuWdk/F8szm6Me2T8V8bn84ePYP4iR3j9pqdg/tlqsqDhv"
    "2D/ZDap/TzXYPxHZuBGt+9c/sBT0r1DC1z/rUpKvOYnXP+2xx2lnUNc/TGGpO9kX1z+qTBKGjt/WPyHeiK2Gp9Y/"
    "4sslGsFv1j8V5Xs3PTjWP8jSgHT6ANY/RMJ2Q/jJ1T++7tYZNpPVPwABPXCzXNU/7TtTwm8m1T+Sbb+OavDUP6Kc"
    "EFejutQ/1GqtnxmF1D/+JMPvzE/UPxl6NdG8GtQ/29KO0Ojl0z+uQ/F8ULHTP3kTCGjzfNM/ntH5JdFI0z8v9lpN"
    "6RTTP2YHIXc74dI/3T+WPset0j8esU1BjHrSP4neFx+KR9I/nsz3ecAU0j8WgRj2LuLRP1DwwjnVr9E/6FRU7bJ9"
    "0T9n7jS7x0vRPyMkz08TGtE/xAmHWZXo0D/aQrKITbfQPzZDkI87htA/2elCIl9V0D9+dMf2tyTQP8WT34mL6M8/"
    "NTK4jBCIzz/SmOls/ifPP0ScyaRUyM4/3TwoshJpzj+EcUUWOArOPwqQx1XEq80/T1Gy+LZNzT/Mb16KD/DMP1Pf"
    "cZnNksw/R53Yt/A1zD+hGL56eNnLP6oxh3pkfcs/OtHMUrQhyz8HGFeiZ8bKP34mGQt+a8o/PX4tMvcQyj9a/tK/"
    "0rbJPyd8al8QXck/afp0v68DyT9bgZKRsKrIPziagYoSUsg/dXEfYtX5xz8jo2jT+KHHP6a1epx8Ssc/FkeWfmDz"
    "xj9c8iE+pJzGP5zxraJHRsY/+YP4dkrwxT9sHfOIrJrFPzVoyKltRcU/wR/jrY3wxD8tzvVsDJzEP9V1A8LpR8Q/"
    "rjFpiyX0wz/u1+iqv6DDP4irtAW4TcM/ZSp8hA77wj8aB3oTw6jCP7deg6LVVsI/NDwYJUYFwj9CfXWSFLTBP2Mt"
    "qOVAY8E/uW6iHcsSwT+6CVI9s8LAP4W/uEv5csA/Kn0GVJ0jwD8sImvLPqm/PxwOUin/C78/S6Wa8ntvvj+P6HZh"
    "tdO9P+WRvbmrOL0/CnQ7SV+evD8VEAto0AS8PzPi8nj/a7s/M/bK6ezTuj+GYuozmTy6PxlbndwEprk/q6CkdTAQ"
    "uT9SKL+dHHu4P9bvPgHK5rc/dhGqWjlTtz9MSmlza8C2PxhNhSRhLrY/pGZ0VxudtT+uK/oGmwy1PxMiG0DhfLQ/"
    "hpomI+/tsz9wPtnkxV+zPxExm89m0rI/kQ3dRNNFsj99iZe+DLqxP50X8tAUL7E/JZYVLO2ksD+X5DCelxuwPzVu"
    "bCssJq8/gVGyR9UWrj9i8a3+LgmtPywqKA8+/as/cF84kAfzqj9jVSn5kOqpP6u1aCrg46g/Hievd/vepz9k0Jiz"
    "6dumP9St8jyy2qU/XScRDl3bpD/L7pjO8t2jP5f0Peh84qI/vGofnwXpoT8RgJYumPGgP8SlGNeB+J8/dYyC2xoS"
    "nj8aCc2DGTCcP/jrIk6fUpo/CsEAttF5mD+Cvwv02qWWP2Sw+/Lq1pQ/E16rjTgNkz8SMGA0A0mRP0ndck8qFY8/"
    "rI9PJ42kiz94pI0NBEGIP+DPGkKW64Q/ki+VKZKlgT83aOz4YOF8P124DNmonnY//bGwAx+KcD9nsMFDn19lPw/3"
    "ubYFplQ/"
)
