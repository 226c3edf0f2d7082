"""Decoy-qudit eavesdropping detection statistics."""

import numpy as np
import pytest

from qteleport.decoy import (
    EVE_ACTIONS,
    DecoyRound,
    analytic_detection_rate,
    check_decoy,
    detection_campaign,
    eavesdrop,
    prepare_decoy,
)
from qteleport.primitives import x_basis_vector


def test_prepare_forced():
    basis, value, state = prepare_decoy(3, forced=("Z", 2))
    assert (basis, value) == ("Z", 2)
    assert np.allclose(state.amps, [0, 0, 1])
    basis, value, state = prepare_decoy(3, forced=("X", 1))
    assert np.max(np.abs(state.amps - x_basis_vector(3, 1).amps)) < 1e-15


def test_prepare_validates():
    with pytest.raises(ValueError, match="basis"):
        prepare_decoy(3, forced=("Y", 0))
    with pytest.raises(ValueError, match="range"):
        prepare_decoy(3, forced=("Z", 3))
    with pytest.raises(ValueError, match="rng or forced"):
        prepare_decoy(3)


def test_prepare_sampling_covers_all_states():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(600):
        basis, value, _ = prepare_decoy(3, rng)
        seen.add((basis, value))
    assert seen == {(b, v) for b in ("Z", "X") for v in range(3)}


def test_same_basis_resend_is_invisible():
    # An eigenstate measured in its own basis is resent unchanged.
    rng = np.random.default_rng(8)
    for value in range(3):
        _, _, state = prepare_decoy(3, forced=("Z", value))
        resent = eavesdrop(state, "measure_Z_resend", rng)
        assert np.max(np.abs(resent.amps - state.amps)) < 1e-12
        assert check_decoy("Z", value, resent, rng)


def test_unknown_eve_action_rejected():
    _, _, state = prepare_decoy(2, forced=("Z", 0))
    with pytest.raises(ValueError, match="unknown eve action"):
        eavesdrop(state, "entangle", np.random.default_rng(0))
    with pytest.raises(ValueError, match="unknown eve action"):
        analytic_detection_rate(2, "entangle")


def test_analytic_rates():
    assert analytic_detection_rate(2, "none") == 0.0
    for action in EVE_ACTIONS[1:]:
        assert abs(analytic_detection_rate(2, action) - 0.25) < 1e-15
        assert abs(analytic_detection_rate(3, action) - 1 / 3) < 1e-15
        assert abs(analytic_detection_rate(5, action) - 0.4) < 1e-15


def test_detection_rate_grows_with_dimension():
    rates = [analytic_detection_rate(d, "random_basis_resend") for d in (2, 3, 5, 7)]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(r < 0.5 for r in rates)


def test_no_eavesdropper_never_detected():
    report, rounds = detection_campaign(3, "none", 2000, seed=3)
    assert report.detections == 0
    assert report.rate == 0.0
    assert len(rounds) == 2000
    assert all(not r.detected for r in rounds)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize(
    "action", ["measure_Z_resend", "measure_X_resend", "random_basis_resend"]
)
def test_empirical_rate_matches_analytic(d, action):
    rounds = 4000
    report, _ = detection_campaign(d, action, rounds, seed=d * 100 + len(action))
    expected = analytic_detection_rate(d, action)
    sigma = np.sqrt(expected * (1 - expected) / rounds)
    assert abs(report.rate - expected) < 5 * sigma
    assert abs(report.z_score) < 5


def test_campaign_deterministic_in_seed():
    a, rounds_a = detection_campaign(3, "random_basis_resend", 300, seed=9)
    b, rounds_b = detection_campaign(3, "random_basis_resend", 300, seed=9)
    assert a == b
    assert rounds_a == rounds_b
    assert detection_campaign(3, "random_basis_resend", 300, seed=10)[1] != rounds_a


def test_campaign_validates_rounds():
    with pytest.raises(ValueError, match="rounds"):
        detection_campaign(2, "none", 0, seed=1)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("action", EVE_ACTIONS)
def test_public_steps_replay_the_campaign(d, action):
    # prepare -> eavesdrop -> check on one stream seeded like the campaign
    # draws exactly the campaign's rounds.
    seed, rounds = 31 * d + len(action), 300
    _, campaign_rounds = detection_campaign(d, action, rounds, seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    replayed = []
    for _ in range(rounds):
        basis, value, state = prepare_decoy(d, rng)
        passed = check_decoy(basis, value, eavesdrop(state, action, rng), rng)
        replayed.append(DecoyRound(basis, value, action, not passed))
    assert replayed == campaign_rounds
