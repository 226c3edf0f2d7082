"""Decoy-photon channel-setup check against an intercept-resend adversary.

Single flying qudits are prepared uniformly in one of the 2d eigenstates
of the computational (Z) and X bases.  An eavesdropper without quantum
memory may measure-and-resend in a fixed or randomly guessed basis; the
checker re-measures in the preparation basis and flags any mismatch.

The physics lives in a few helpers over plain length-d kets: the
preparation draw, the Z/X eigenket, the Z/X measurement, and the
adversary's basis for an action.  The public per-step API
(prepare_decoy, eavesdrop, check_decoy) and the reference round
(_flat_round) run on them, so one generator yields the same rounds
either way.

detection_campaign computes the same rounds as arrays, straight from
the generator's raw 64-bit words.  A round's draws come in a fixed
pattern (_pair_layout): 32-bit integers() draws take word halves, low
half first, and random() draws take whole words.  Chunks hold an even
number of rounds, so no chunk starts with half a word pending.
Outcomes are read from cumulative Born tables (_born_tables) built by
_measure's arithmetic, and integers() by Lemire's multiply-shift.  If
numpy would reject a draw and read another, the pattern breaks: the
campaign then reruns with the _flat_round loop, the reference.  The
rounds stay columns (_Rounds); a DecoyRound is built only when read.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .state import StateVector, _sample, _sample_rows, make_state
from .primitives import DIMENSION_CACHE_SIZE, _read_only, x_basis_matrix

EVE_ACTIONS = ("none", "measure_Z_resend", "measure_X_resend", "random_basis_resend")


@dataclass(frozen=True)
class DecoyRound:
    prep_basis: str  # "Z" or "X"
    prep_value: int
    eve_action: str
    detected: bool


@dataclass(frozen=True)
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


# Cached, so a round allocates no d x d matrix.
@lru_cache(maxsize=DIMENSION_CACHE_SIZE)
def _z_kets(d: int) -> np.ndarray:
    return _read_only(np.eye(d, dtype=complex))


@lru_cache(maxsize=DIMENSION_CACHE_SIZE)
def _x_bras(d: int) -> np.ndarray:
    return _read_only(x_basis_matrix(d).conj())


def _ket(d: int, basis: str, value: int) -> np.ndarray:
    """Eigenket |value> of the Z or X basis (a read-only row)."""
    return (_z_kets(d) if basis == "Z" else x_basis_matrix(d))[value]


def _weights(ket: np.ndarray, basis: str) -> np.ndarray:
    """Born weights of measuring a length-d ket in Z or X."""
    amps = ket if basis == "Z" else _x_bras(ket.size) @ ket
    return np.abs(amps) ** 2


def _measure(ket: np.ndarray, basis: str, rng: np.random.Generator) -> int:
    """Born-sampled outcome of measuring a length-d ket in Z or X."""
    return _sample(_weights(ket, basis), rng)


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


def _campaign_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _flat_round(d: int, eve_action: str, rng: np.random.Generator) -> DecoyRound:
    """One decoy round on a plain length-d ket, without StateVector objects."""
    prep_basis, prep_value = _draw_prep(d, rng)
    ket = _ket(d, prep_basis, prep_value)
    eve_basis = _eve_basis(eve_action, rng)
    if eve_basis is not None:
        ket = _ket(d, eve_basis, _measure(ket, eve_basis, rng))
    detected = _measure(ket, prep_basis, rng) != prep_value
    return DecoyRound(prep_basis, prep_value, eve_action, detected)


# The campaign's chunk: at most this many Born-table entries (rounds x d)
# per chunk, so memory stays bounded however many rounds run.  A chunk
# holds an even number of rounds (see _pair_layout).
DECOY_CHUNK_ENTRIES = 2**16


@lru_cache(maxsize=None)
def _pair_layout(eve_action: str) -> tuple[int, dict]:
    """(words, draws): a pair of rounds reads `words` raw 64-bit words,
    and draws[name] is a 2x2 array of (word indices, bit shifts), one
    column per round of the pair.

    A round draws in _flat_round's order: integers() for the basis, the
    value and a random adversary's basis, then random() for the
    adversary's measurement and for the check.  A 32-bit integers() draw
    takes the low half of a fresh word and leaves the high half for the
    next one; a random() draw takes a whole word and keeps its top 53
    bits.  Every action makes an even number of 32-bit draws per pair, so
    a pair leaves no half word behind."""
    pick = ("eve_basis",) if eve_action == "random_basis_resend" else ()
    measure = () if eve_action == "none" else ("eve",)
    draws = {name: [] for name in ("basis", "value", *pick, *measure, "check")}
    words, spare = 0, None
    for _ in range(2):
        for name in draws:
            if name in ("eve", "check"):
                draws[name].append((words, 11))
                words += 1
            elif spare is None:
                draws[name].append((words, 0))
                spare, words = words, words + 1
            else:
                draws[name].append((spare, 32))
                spare = None
    return words, {name: np.array(at, np.uint64).T for name, at in draws.items()}


@lru_cache(maxsize=DIMENSION_CACHE_SIZE)
def _born_tables(d: int) -> np.ndarray:
    """Cumulative Born weights, [ket basis, ket value, measured basis, :],
    for every Z/X eigenket measured in Z or X, by _measure's arithmetic."""
    weights = [
        [[_weights(_ket(d, ket, value), basis) for basis in "ZX"] for value in range(d)]
        for ket in "ZX"
    ]
    return _read_only(np.cumsum(weights, axis=-1))


def _rejects(low: np.ndarray, bound: int) -> bool:
    """Whether numpy's integers(bound) rejects any of these draws: Lemire's
    method redraws when the product's low 32 bits fall below 2^32 mod bound."""
    return bool((low < (2**32 % bound)).any())


def _integers(bits: np.ndarray, bound: int) -> tuple[np.ndarray, bool]:
    """integers(bound) from the low 32 bits of each entry, by Lemire's
    (u * bound) >> 32, and whether numpy would reject any of the draws."""
    product = (bits & 0xFFFFFFFF) * bound
    return (product >> 32).astype(np.intp), _rejects(product & 0xFFFFFFFF, bound)


def _campaign_columns(d: int, eve_action: str, rounds: int, seed: int):
    """(basis, value, detected) per round, basis 0 for Z and 1 for X: the
    rounds the _flat_round loop draws, computed from the raw stream."""
    tables = _born_tables(d)
    words, layout = _pair_layout(eve_action)
    bit_generator = _campaign_rng(seed).bit_generator
    basis = np.empty(rounds, np.uint8)
    value = np.empty(rounds, np.intp)
    detected = np.empty(rounds, bool)
    step = 2 * max(1, DECOY_CHUNK_ENTRIES // (2 * d))
    for start in range(0, rounds, step):
        size = min(step, rounds - start)
        raw = bit_generator.random_raw((size + 1) // 2 * words).reshape(-1, words)

        def draw(name):
            at, shift = layout[name]
            return (raw[:, at] >> shift).reshape(-1)[:size]

        b, _ = _integers(draw("basis"), 2)
        v, rejected = _integers(draw("value"), d)
        if rejected:
            return _loop_columns(d, eve_action, rounds, seed)
        kb, kv = b, v  # the ket the check measures
        if "eve" in layout:
            if "eve_basis" in layout:
                kb, _ = _integers(draw("eve_basis"), 2)
            else:
                kb = np.full(size, "ZX".index(_eve_basis(eve_action, None)))
            kv = _sample_rows(tables[b, v, kb], draw("eve") * 2.0**-53)
        checked = _sample_rows(tables[kb, kv, b], draw("check") * 2.0**-53)
        basis[start : start + size] = b
        value[start : start + size] = v
        detected[start : start + size] = checked != v
    return basis, value, detected


def _loop_columns(d: int, eve_action: str, rounds: int, seed: int):
    """_campaign_columns by the reference loop: one _flat_round per round."""
    rng = _campaign_rng(seed)
    played = [_flat_round(d, eve_action, rng) for _ in range(rounds)]
    return (
        np.array([r.prep_basis == "X" for r in played], np.uint8),
        np.array([r.prep_value for r in played], np.intp),
        np.array([r.detected for r in played], bool),
    )


class _Rounds(Sequence):
    """Read-only view of a campaign's rounds, held as columns.  A
    DecoyRound is built only when a round is read; the view equals any
    sequence of the same rounds.

    basis    -- 0 for a Z preparation, 1 for X
    value    -- the prepared value
    detected -- whether the check flagged the round
    """

    def __init__(self, eve_action: str, basis, value, detected):
        self.eve_action = eve_action
        self.basis = _read_only(basis)
        self.value = _read_only(value)
        self.detected = _read_only(detected)

    def __len__(self) -> int:
        return self.basis.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._round(i) for i in range(*index.indices(len(self)))]
        return self._round(index)

    def __iter__(self) -> Iterator[DecoyRound]:
        return map(self._round, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def _round(self, i: int) -> DecoyRound:
        # Indexing the columns rejects an index out of range.
        return DecoyRound(
            "ZX"[self.basis[i]], int(self.value[i]), self.eve_action, bool(self.detected[i])
        )


def detection_campaign(
    d: int, eve_action: str, rounds: int, seed: int
) -> tuple[DetectionReport, Sequence[DecoyRound]]:
    """Run independent decoy rounds and compare against the analytic rate.

    The rounds are those a loop of _flat_round draws from
    Generator(Philox(SeedSequence(seed))), computed as arrays from the
    generator's raw 64-bit words.  Each round draws in a fixed pattern
    (_pair_layout), so the words a round reads follow from its index:
      * none:                 one word for the basis (low half) and the
                              value (high half), one for the check;
      * measure_Z/X_resend:   the same, plus one word for the adversary's
                              measurement before the check: 3 words;
      * random_basis_resend:  three 32-bit draws, so a pair of rounds
                              shares one word: round 1's adversary basis
                              is its low half, round 2's basis its high
                              half; 7 words per pair.
    Chunks hold an even number of rounds, so none starts mid-word.
    Outcomes are read from cumulative Born tables built by _measure's
    arithmetic.  The pattern breaks only where numpy's integers(d)
    rejects a draw and reads another (about 2e-10 per round at d = 5,
    never for d a power of two); then the whole campaign reruns with the
    _flat_round loop.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
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
