"""Decoy-photon channel-setup check against an intercept-resend adversary.

Single flying qudits are prepared uniformly in one of the 2d eigenstates
of the computational (Z) and X bases.  An eavesdropper without quantum
memory may measure-and-resend in a fixed or randomly guessed basis; the
checker re-measures in the preparation basis and flags any mismatch.

The physics lives in a few helpers over plain length-d kets: the
preparation draw, the Z/X eigenket, the Z/X measurement, and the
adversary's basis for an action.  The campaign's rounds and the public
per-step API (prepare_decoy, eavesdrop, check_decoy) both run on them,
so one generator yields the same rounds either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .state import StateVector, _sample, make_state
from .primitives import _read_only, x_basis_matrix

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
@lru_cache(maxsize=None)
def _z_kets(d: int) -> np.ndarray:
    return _read_only(np.eye(d, dtype=complex))


@lru_cache(maxsize=None)
def _x_bras(d: int) -> np.ndarray:
    return _read_only(x_basis_matrix(d).conj())


def _ket(d: int, basis: str, value: int) -> np.ndarray:
    """Eigenket |value> of the Z or X basis (a read-only row)."""
    return (_z_kets(d) if basis == "Z" else x_basis_matrix(d))[value]


def _measure(ket: np.ndarray, basis: str, rng: np.random.Generator) -> int:
    """Born-sampled outcome of measuring a length-d ket in Z or X."""
    amps = ket if basis == "Z" else _x_bras(ket.size) @ ket
    return _sample(np.abs(amps) ** 2, rng)


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


def _flat_round(d: int, eve_action: str, rng: np.random.Generator) -> DecoyRound:
    """One decoy round on a plain length-d ket, without StateVector objects."""
    prep_basis, prep_value = _draw_prep(d, rng)
    ket = _ket(d, prep_basis, prep_value)
    eve_basis = _eve_basis(eve_action, rng)
    if eve_basis is not None:
        ket = _ket(d, eve_basis, _measure(ket, eve_basis, rng))
    detected = _measure(ket, prep_basis, rng) != prep_value
    return DecoyRound(prep_basis, prep_value, eve_action, detected)


def detection_campaign(
    d: int, eve_action: str, rounds: int, seed: int
) -> tuple[DetectionReport, list[DecoyRound]]:
    """Run independent decoy rounds and compare against the analytic rate."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    expected = analytic_detection_rate(d, eve_action)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    records: list[DecoyRound] = []
    detections = 0
    for _ in range(rounds):
        round_record = _flat_round(d, eve_action, rng)
        if round_record.detected:
            detections += 1
        records.append(round_record)
    report = DetectionReport(
        d=d,
        eve_action=eve_action,
        rounds=rounds,
        detections=detections,
        rate=detections / rounds,
        expected_rate=expected,
        z_score=_z_score(detections, rounds, expected),
    )
    return report, records
