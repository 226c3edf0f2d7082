"""Decoy-photon channel-setup check against an intercept-resend adversary.

Single flying qudits are prepared uniformly in one of the 2d eigenstates
of the computational (Z) and X bases.  An eavesdropper without quantum
memory may measure-and-resend in a fixed or randomly guessed basis; the
checker re-measures in the preparation basis and flags any mismatch.

The physics lives in a few helpers over plain length-d kets: the
preparation draw, the Z/X eigenket, the Z/X measurement, and the
adversary's basis for an action.  The public per-step API
(prepare_decoy, eavesdrop, check_decoy) runs on them.

detection_campaign computes the rounds that API draws from one seeded
generator as arrays (its docstring gives where each draw lies), with
outcomes from the cross-basis tables (_born_draws), and keeps them as
columns (_Rounds).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .state import (
    StateVector,
    _check_size,
    _draw,
    _rng_from_seed,
    _sample_rows,
    make_state,
    record,
)
from .primitives import DIMENSION_CACHE_SIZE, _read_only, _View, x_basis_matrix

EVE_ACTIONS = ("none", "measure_Z_resend", "measure_X_resend", "random_basis_resend")


@record
class DecoyRound:
    prep_basis: str  # "Z" or "X"
    prep_value: int
    eve_action: str
    detected: bool


@record
class DetectionReport:
    d: int
    eve_action: str
    rounds: int
    detections: int
    rate: float
    expected_rate: float
    z_score: float


def _draw_basis(rng: np.random.Generator) -> str:
    return "Z" if rng.integers(2) == 0 else "X"


def _draw_prep(d: int, rng: np.random.Generator) -> tuple[str, int]:
    """Uniform decoy: basis first, then value, from the same stream."""
    basis = _draw_basis(rng)
    return basis, int(rng.integers(d))


def _ket(d: int, basis: str, value: int) -> np.ndarray:
    """Eigenket |value> of the Z or X basis."""
    return np.eye(1, d, value, dtype=complex)[0] if basis == "Z" else x_basis_matrix(d)[value]


def _weights(ket: np.ndarray, basis: str) -> np.ndarray:
    """Born weights of measuring a length-d ket in Z or X.  An X weight
    |<x_r|ket>|^2 is taken as |x_r . conj(ket)|^2: the ket is conjugated,
    not the d x d basis."""
    amps = ket if basis == "Z" else x_basis_matrix(ket.size) @ ket.conj()
    return np.abs(amps) ** 2


def _measure(ket: np.ndarray, basis: str, rng: np.random.Generator) -> int:
    """Born-sampled outcome of measuring a length-d ket in Z or X."""
    return int(_draw(_weights(ket, basis), np.asarray(rng.random())))


def _eve_basis(eve_action: str, rng: np.random.Generator) -> str | None:
    """The basis the adversary measures and resends in; None for no attack."""
    if eve_action == "none":
        return None
    if eve_action in ("measure_Z_resend", "measure_X_resend"):
        return eve_action[8]
    if eve_action == "random_basis_resend":
        return _draw_basis(rng)
    raise ValueError(f"unknown eve action {eve_action!r} (expected one of {EVE_ACTIONS})")


def prepare_decoy(
    d: int,
    rng: np.random.Generator | None = None,
    forced: tuple[str, int] | None = None,
) -> tuple[str, int, StateVector]:
    """Uniformly random (or forced) decoy: basis in {Z, X}, value in 0..d-1."""
    if forced is not None:
        basis, value = forced
    else:
        if rng is None:
            raise ValueError("either rng or forced is required")
        basis, value = _draw_prep(d, rng)
    if basis not in ("Z", "X"):
        raise ValueError(f"unknown basis {basis!r}")
    if not 0 <= value < d:
        raise ValueError(f"value {value} out of range for d = {d}")
    return basis, value, make_state((d,), _ket(d, basis, value))


def eavesdrop(
    state: StateVector, eve_action: str, rng: np.random.Generator
) -> StateVector:
    """Apply the adversary's action to a flying decoy qudit."""
    basis = _eve_basis(eve_action, rng)
    if basis is None:
        return state
    d = state.dims[0]
    return make_state((d,), _ket(d, basis, _measure(state.amps, basis, rng)))


def check_decoy(
    prep_basis: str, prep_value: int, state: StateVector, rng: np.random.Generator
) -> bool:
    """Re-measure in the preparation basis; True means the round passes."""
    return _measure(state.amps, prep_basis, rng) == prep_value


def analytic_detection_rate(d: int, eve_action: str) -> float:
    """Exact detection probability per checked decoy.

    A wrong-basis measure-resend survives the check with probability 1/d
    (two successive projections between unbiased bases); the adversary
    picks the wrong basis with probability 1/2 for every listed attack
    except doing nothing.
    """
    if eve_action == "none":
        return 0.0
    if eve_action in ("measure_Z_resend", "measure_X_resend", "random_basis_resend"):
        return 0.5 * (1.0 - 1.0 / d)
    raise ValueError(f"unknown eve action {eve_action!r}")


def _z_score(hits: int, trials: int, p: float) -> float:
    """Standard score of hits in trials against a Bernoulli rate p; at
    p in {0, 1} it is 0 if the count is the certain one, else inf."""
    if not 0.0 < p < 1.0:
        return 0.0 if hits == round(p * trials) else float("inf")
    return float((hits / trials - p) / np.sqrt(p * (1.0 - p) / trials))


# The campaign's chunk: at most this many rounds, so memory stays
# bounded however many rounds run.  2^13 keeps a chunk's 8-byte columns
# at 64 KiB, under glibc's 128 KiB mmap threshold, so they come from the
# heap instead of being mapped and faulted in anew every chunk.
DECOY_CHUNK_ROUNDS = 2**13


def _check_dimension(d: int) -> None:
    """The guards a decoy campaign of dimension d passes before anything
    of its size is built: d >= 2, and its d x d X basis and cross-basis tables."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    _check_size(d * d, f"a decoy of dimension {d}")


@lru_cache(maxsize=DIMENSION_CACHE_SIZE)
def _cross_tables(d: int) -> np.ndarray:
    """Cumulative Born weights of the cross-basis measurements, [ket
    basis, ket value, :]: a Z ket |v> measured in X (|column v|^2 of
    x_basis_matrix) and an X ket measured in Z (|row v|^2), bit for bit
    _measure's weights."""
    tables = np.empty((2, d, d))
    np.square(np.abs(x_basis_matrix(d), out=tables[1]), out=tables[1])
    np.cumsum(tables[1].T, axis=1, out=tables[0])
    np.cumsum(tables[1], axis=1, out=tables[1])
    return _read_only(tables)


def _born_draws(tables, ket_basis, ket_value, basis, u) -> np.ndarray:
    """The outcome of measuring each Z/X eigenket (ket_basis 0 for Z, 1
    for X) in basis, from its uniform u, by _measure's arithmetic.

    The bases are mutually unbiased.  In its own basis a Z ket's weights
    are one-hot and an X ket's differ from one-hot by rounding of about
    1e-32, which only u = 0 exactly can see, so the ket's value is drawn
    and that X row is built only then.  A cross-basis draw counts the
    entries of its table row up to u times the row's total (_sample_rows)
    by a binary search over the first d - 1, the cap on the draw."""
    d = tables.shape[-1]
    out = ket_value.astype(np.intp)
    cross = np.flatnonzero(ket_basis != basis)
    rows = tables.reshape(-1)
    start = (ket_basis[cross].astype(np.intp) * d + out[cross]) * d
    limit = u[cross] * rows[start + (d - 1)]
    at, n = start, d - 1
    while n > 1:
        half = n // 2
        at = at + half * (rows[at + half] <= limit)
        n -= half
    out[cross] = at - start + (rows[at] <= limit)
    for k in np.flatnonzero(u == 0):
        if ket_basis[k] == basis[k] == 1:
            row = np.cumsum(_weights(_ket(d, "X", out[k]), "X"))
            out[k] = _sample_rows(row, u[k])
    return out


def _campaign_columns(d: int, eve_action: str, rounds: int, seed: int):
    """(basis, value, detected) per round, basis 0 for Z and 1 for X,
    computed from the raw words of the seed's stream (see
    detection_campaign for where each draw lies)."""
    tables = _cross_tables(d)
    pick = eve_action == "random_basis_resend"
    attacked = eve_action != "none"
    q = 3 if pick else 2  # a round's 32-bit draws, rejected ones aside
    c = 2 if attacked else 1  # a round's random() draws
    bit_generator = _rng_from_seed(seed).bit_generator
    basis = np.empty(rounds, np.uint8)
    value = np.empty(rounds, np.min_scalar_type(d - 1))
    detected = np.empty(rounds, bool)
    back = np.zeros(c + 1, np.uint64)  # the last words before the chunk
    pending = 0  # whether they leave a 32-bit draw's high half unread
    for begin in range(0, rounds, DECOY_CHUNK_ROUNDS):
        size = min(DECOY_CHUNK_ROUNDS, rounds - begin)
        i = np.arange(size)
        # The halves of back and the chunk's words, low half first: a
        # 32-bit draw's half is its count of halves (from the pending one)
        # plus two for each random() word before it, skip[i] in round i.
        # A round's first draw at an odd count is the high half of a word
        # drawn before the previous round's c random() words: 2c back.
        skip = 2 * (c * i + c + 1 - pending)
        ends = pending + q * (i + 1)  # each round's count of halves at its end
        words, scaled, lo = back, np.empty(size, np.uint64), 0
        while True:  # walk integers(d)'s rejects: each reads one more half
            need = c + 1 + (int(ends[-1]) + 1) // 2 - pending + c * size
            if need > words.size:
                words = np.concatenate([words, bit_generator.random_raw(need - words.size)])
            halves = words.astype("<u8", copy=False).view("<u4")
            scaled[lo:] = halves[ends[lo:] - q + 1 + skip[lo:]]
            scaled[lo:] *= d
            rejects = np.flatnonzero((scaled[lo:] & 0xFFFFFFFF) < 2**32 % d)
            if not rejects.size:
                break
            lo += int(rejects[0])
            ends[lo:] += 1
        firsts = np.concatenate([[pending], ends[:-1]])
        b = halves[firsts + skip - 2 * c * (firsts & 1)] >> 31
        v = (scaled >> 32).astype(np.intp)
        doubles = (ends + 1) // 2 + skip // 2  # each round's first random() word
        kb, kv = b, v  # the ket the check measures
        if attacked:
            if pick:
                kb = halves[ends - 1 + skip] >> 31
            else:
                kb = np.full(size, "ZX".index(_eve_basis(eve_action, None)))
            kv = _born_draws(tables, b, v, kb, (words[doubles] >> 11) * 2.0**-53)
        checked = _born_draws(tables, kb, kv, b, (words[doubles + c - 1] >> 11) * 2.0**-53)
        basis[begin : begin + size] = b
        value[begin : begin + size] = v
        detected[begin : begin + size] = checked != v
        back, pending = words[-c - 1 :].copy(), int(ends[-1]) & 1
    return basis, value, detected


class _Rounds(_View):
    """Read-only view of a campaign's rounds, held as columns.  A
    DecoyRound is built only when a round is read.

    basis    -- 0 for a Z preparation, 1 for X
    value    -- the prepared value, in the smallest unsigned dtype for d
    detected -- whether the check flagged the round
    """

    def __init__(self, eve_action: str, basis, value, detected):
        self.eve_action = eve_action
        self.basis = _read_only(basis)
        self.value = _read_only(value)
        self.detected = _read_only(detected)

    def __len__(self) -> int:
        return self.basis.size

    def _item(self, i: int) -> DecoyRound:
        return DecoyRound(
            "ZX"[self.basis[i]], int(self.value[i]), self.eve_action, bool(self.detected[i])
        )


def detection_campaign(
    d: int, eve_action: str, rounds: int, seed: int
) -> tuple[DetectionReport, Sequence[DecoyRound]]:
    """Run independent decoy rounds and compare against the analytic rate.

    The rounds are those prepare_decoy, eavesdrop and check_decoy draw
    in turn from the seed's Philox stream (state._rng_from_seed),
    computed as arrays from the generator's raw 64-bit words.  A round
    makes 32-bit integers() draws for its basis, its value and a random
    adversary's basis, then one random() draw (a whole word) for each
    measurement.  numpy takes a 32-bit draw from the low half of a fresh
    word and keeps the high half for the next one, across random()
    draws.  So a round's 32-bit draws are the halves numbered from the
    count of halves drawn before it, and its random() draws the next
    words.  Where integers(d) rejects a value draw (Lemire's method:
    about 2e-10 per round at d = 5, never for d a power of two) and reads
    the next half, every later round's count grows by one; the rejects
    are walked in order within a chunk, and a chunk may end with a half
    pending.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    _check_dimension(d)
    expected = analytic_detection_rate(d, eve_action)
    played = _Rounds(eve_action, *_campaign_columns(d, eve_action, rounds, seed))
    detections = int(np.count_nonzero(played.detected))
    report = DetectionReport(
        d=d,
        eve_action=eve_action,
        rounds=rounds,
        detections=detections,
        rate=detections / rounds,
        expected_rate=expected,
        z_score=_z_score(detections, rounds, expected),
    )
    return report, played
