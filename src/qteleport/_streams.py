"""Every child's Philox stream of a spawned SeedSequence, as arrays.

The Monte Carlo campaign gives trial i the generator
Generator(Philox(SeedSequence(seed).spawn(trials)[i])) and reads its
first few random() values.  Building one SeedSequence and one Philox per
trial costs tens of microseconds of interpreter time.  Both algorithms
are fixed integer arithmetic, so this module runs them for a whole range
of children at once with uint32/uint64 numpy arrays:

  * SeedSequence: numpy's hash mixing of the entropy words (the master
    seed, zero-padded to the pool size, then the child index as its
    spawn key) into a 4-word pool, then generate_state(2, uint64) for
    the Philox key.
  * Philox4x64-10 (Salmon et al., SC 2011): block b of a stream is the
    10-round bijection of counter (b, 0, 0, 0) under the key; numpy's
    counter starts at 0 and is incremented before each 4-word block.
  * random() is (word >> 11) * 2^-53.

Array integer arithmetic wraps silently, which is the modular arithmetic
both algorithms specify.  The values equal numpy's own generators bit
for bit (the tests compare them).
"""

from __future__ import annotations

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


def _uint32_words(value: int) -> list[int]:
    """An int as little-endian 32-bit words, [0] for zero (numpy's rule)."""
    words = []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            return words


def _child_keys(seed: int, children: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two uint64 Philox key words of SeedSequence(seed, spawn_key=(i,))
    for each child index i."""
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))  # padded because a spawn key follows
    entropy = [np.full(1, w, dtype=np.uint32) for w in run]
    entropy.append(children.astype(np.uint32))

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


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit product a * b, from
    32-bit partial products (no partial sum exceeds 64 bits)."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lo_lo, lo_hi = b_lo * a_lo, b_lo * a_hi
    cross = (lo_lo >> 32) + (lo_hi & _MASK32) + b_hi * a_lo
    hi = b_hi * a_hi + (lo_hi >> 32) + (cross >> 32)
    return hi, cross << 32 | lo_lo & _MASK32


def _philox_blocks(k0: np.ndarray, k1: np.ndarray, blocks: int) -> np.ndarray:
    """Words of counter blocks 1..blocks for each key: (keys, 4 * blocks)."""
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
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


def child_uniforms(seed: int, start: int, stop: int, draws: int) -> np.ndarray:
    """The first `draws` random() values of every child start..stop-1 of
    SeedSequence(seed).spawn(stop), one row per child: row i equals
    Generator(Philox(child)).random(draws) for child start + i."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0 <= start <= stop <= 2**32:
        raise ValueError(f"child range {start}..{stop} outside 0..2^32")
    k0, k1 = _child_keys(seed, np.arange(start, stop, dtype=np.uint64))
    blocks = -(-draws // _BLOCK_WORDS)
    words = _philox_blocks(k0, k1, blocks)[:, :draws]
    return (words >> 11).astype(np.float64) * 2.0**-53
