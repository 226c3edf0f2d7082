"""Decoy-qudit eavesdropping detection statistics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport import decoy
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
from qteleport.state import SizeGuardError, _sample_rows


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


def test_campaign_refuses_the_dimensions_a_decoy_config_refuses(monkeypatch):
    with pytest.raises(ValueError, match="^d must be >= 2, got 1$"):
        detection_campaign(1, "random_basis_resend", 5, 1)
    with pytest.raises(ValueError):
        prepare_decoy(1, np.random.default_rng(1))  # the draws the campaign reproduces
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "1000")
    with mock.patch.object(decoy, "_campaign_columns", side_effect=AssertionError("built")):
        with pytest.raises(SizeGuardError, match="^a decoy of dimension 40 needs 1600 amp"):
            detection_campaign(40, "none", 10, 1)


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


def test_z_score_edge_rates_and_shared_helper():
    from qteleport import campaign, decoy

    assert campaign._z_score is decoy._z_score
    assert decoy._z_score(0, 10, 0.0) == 0.0
    assert decoy._z_score(1, 10, 0.0) == float("inf")
    assert decoy._z_score(10, 10, 1.0) == 0.0
    assert decoy._z_score(9, 10, 1.0) == float("inf")
    assert decoy._z_score(6, 10, 0.5) == (0.6 - 0.5) / np.sqrt(0.025)


def _flat_round(d, eve_action, rng):
    """The reference round: the public API's steps on a plain length-d ket."""
    prep_basis, prep_value = decoy._draw_prep(d, rng)
    ket = decoy._ket(d, prep_basis, prep_value)
    eve_basis = decoy._eve_basis(eve_action, rng)
    if eve_basis is not None:
        ket = decoy._ket(d, eve_basis, decoy._measure(ket, eve_basis, rng))
    detected = decoy._measure(ket, prep_basis, rng) != prep_value
    return DecoyRound(prep_basis, prep_value, eve_action, detected)


def _loop_rounds(d, action, rounds, seed):
    """The reference: one _flat_round per round on the campaign's generator."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return [_flat_round(d, action, rng) for _ in range(rounds)]


@settings(max_examples=120, deadline=None)
@given(
    d=st.integers(2, 9),
    action=st.sampled_from(EVE_ACTIONS),
    rounds=st.integers(1, 61),
    seed=st.integers(0, 2**64),
    chunk_rounds=st.integers(1, 9),
)
def test_array_campaign_equals_the_round_loop(d, action, rounds, seed, chunk_rounds):
    # A small chunk runs the campaign across several chunks; an odd one
    # ends random_basis_resend's rounds with a 32-bit draw's half pending.
    with mock.patch.object(decoy, "DECOY_CHUNK_ROUNDS", chunk_rounds):
        report, played = detection_campaign(d, action, rounds, seed)
    reference = _loop_rounds(d, action, rounds, seed)
    assert list(played) == reference
    assert report.detections == sum(r.detected for r in reference)


@pytest.mark.parametrize("action", EVE_ACTIONS)
def test_array_campaign_equals_the_round_loop_in_one_large_chunk(action):
    _, played = detection_campaign(7, action, 5001, seed=12)
    assert played == _loop_rounds(7, action, 5001, 12)


@pytest.mark.parametrize(
    "action, seed, first_reject",
    [
        ("none", 48926, 72),
        ("measure_Z_resend", 48926, 48),
        ("measure_X_resend", 48926, 48),
        ("random_basis_resend", 18281, 38),  # the first round of a pair
        ("random_basis_resend", 39664, 17),  # the second round of a pair
    ],
)
def test_integers_rejects_shift_the_later_rounds(action, seed, first_reject):
    # At d = 2000, integers(d) redraws a value with odds (2^32 mod d)/2^32,
    # and these seeds first do so at first_reject.  Chunks of 1 and 7
    # rounds put the reject, and the half it leaves pending, at a chunk's
    # end.
    d, rounds = 2000, first_reject + 12
    reference = _loop_rounds(d, action, rounds, seed)
    for chunk_rounds in (decoy.DECOY_CHUNK_ROUNDS, 1, 7):
        with mock.patch.object(decoy, "DECOY_CHUNK_ROUNDS", chunk_rounds):
            report, played = detection_campaign(d, action, rounds, seed)
        assert list(played) == reference
        assert report.detections == sum(r.detected for r in reference)


@pytest.mark.parametrize("d", [2, 3, 5, 9, 64])
def test_born_draws_match_the_measurement_arithmetic(d):
    # Every Z/X eigenket measured in Z and in X, at the extreme uniforms
    # (u = 0 exactly reads an X ket's rounding in its own basis) and at
    # random ones, against _measure's arithmetic.
    kets = [(basis, value) for basis in (0, 1) for value in range(d)]
    u = np.concatenate([[0.0, 2.0**-53, 0.5, 1 - 2.0**-53], np.random.default_rng(d).random(12)])
    ket_basis, ket_value, basis, uniform = (
        np.array(a) for a in zip(*[(kb, kv, b, x) for kb, kv in kets for b in (0, 1) for x in u])
    )
    drawn = decoy._born_draws(decoy._cross_tables(d), ket_basis, ket_value, basis, uniform)
    expected = [
        int(_sample_rows(np.cumsum(decoy._weights(decoy._ket(d, "ZX"[kb], kv), "ZX"[b])), x))
        for kb, kv, b, x in zip(ket_basis, ket_value, basis, uniform)
    ]
    assert drawn.tolist() == expected


def test_detection_rate_at_a_large_dimension():
    d, rounds = 2000, 20_000
    report, _ = detection_campaign(d, "random_basis_resend", rounds, seed=2000)
    expected = 0.5 * (1 - 1 / d)
    assert report.expected_rate == expected
    assert abs(report.rate - expected) < 5 * np.sqrt(expected * (1 - expected) / rounds)


def test_rounds_view_reads_like_a_list():
    _, played = detection_campaign(3, "measure_X_resend", 50, seed=2)
    rounds = list(played)
    assert played[-1] == rounds[-1] and played[7] == rounds[7]
    assert played[3:9:2] == rounds[3:9:2]
    with pytest.raises(IndexError):
        played[50]
    assert played == rounds and rounds == played and played != rounds[:-1]
    with pytest.raises(ValueError):
        played.detected[0] = True
