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


def test_z_score_edge_rates_and_shared_helper():
    from qteleport import campaign, decoy

    assert campaign._z_score is decoy._z_score
    assert decoy._z_score(0, 10, 0.0) == 0.0
    assert decoy._z_score(1, 10, 0.0) == float("inf")
    assert decoy._z_score(10, 10, 1.0) == 0.0
    assert decoy._z_score(9, 10, 1.0) == float("inf")
    assert decoy._z_score(6, 10, 0.5) == (0.6 - 0.5) / np.sqrt(0.025)


def _loop_rounds(d, action, rounds, seed):
    """The reference: one _flat_round per round on the campaign's generator."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return [decoy._flat_round(d, action, rng) for _ in range(rounds)]


@settings(max_examples=120, deadline=None)
@given(
    d=st.integers(2, 9),
    action=st.sampled_from(EVE_ACTIONS),
    rounds=st.integers(1, 61),
    seed=st.integers(0, 2**64),
    chunk_rounds=st.integers(1, 9),
)
def test_array_campaign_equals_the_round_loop(d, action, rounds, seed, chunk_rounds):
    # A small chunk runs the campaign across several chunks, some of them
    # (the last, for an odd round count) with an odd number of rounds.
    with mock.patch.object(decoy, "DECOY_CHUNK_ENTRIES", 2 * chunk_rounds * d):
        report, played = detection_campaign(d, action, rounds, seed)
    reference = _loop_rounds(d, action, rounds, seed)
    assert list(played) == reference
    assert report.detections == sum(r.detected for r in reference)


@pytest.mark.parametrize("action", EVE_ACTIONS)
def test_array_campaign_equals_the_round_loop_in_one_large_chunk(action):
    _, played = detection_campaign(7, action, 5001, seed=12)
    assert played == _loop_rounds(7, action, 5001, 12)


def test_a_rejected_draw_reruns_the_campaign_with_the_loop(monkeypatch):
    d, action, rounds, seed = 5, "random_basis_resend", 40, 6
    reference = _loop_rounds(d, action, rounds, seed)
    monkeypatch.setattr(decoy, "DECOY_CHUNK_ENTRIES", 2 * 6 * d)  # 12 rounds a chunk
    value_checks = []

    def reject_in_second_chunk(low, bound):
        # Pretend integers(d) rejected a value draw of the second chunk.
        if bound == d:
            value_checks.append(low.size)
        return len(value_checks) == 2

    loop_rounds = []

    def counted_round(*args):
        loop_rounds.append(args)
        return flat_round(*args)

    flat_round = decoy._flat_round
    monkeypatch.setattr(decoy, "_rejects", reject_in_second_chunk)
    monkeypatch.setattr(decoy, "_flat_round", counted_round)
    report, played = detection_campaign(d, action, rounds, seed)
    assert value_checks == [12, 12]  # the kernel stopped at the rejection
    assert len(loop_rounds) == rounds  # and the loop replayed every round
    assert list(played) == reference
    assert report.detections == sum(r.detected for r in reference)


def test_lemire_rejection_threshold():
    # numpy's integers(d) redraws when (u * d) mod 2^32 < 2^32 mod d.
    u = np.array([0, 1, 2**32 - 1], dtype=np.uint64)
    values, rejected = decoy._integers(u, 5)
    assert values.tolist() == [0, 0, 4] and rejected  # u = 0 leaves 0 < 1
    assert not decoy._integers(u[1:], 5)[1]
    assert not decoy._integers(np.arange(2**12, dtype=np.uint64), 4)[1]
    # Only the low 32 bits of a word are a draw.
    assert decoy._integers(u + (7 << 32), 5)[0].tolist() == [0, 0, 4]


def test_pair_layouts():
    # Words a pair of rounds reads: the generator's counter after 1,000
    # rounds read 500, 750 and 875 four-word blocks.
    assert {a: decoy._pair_layout(a)[0] for a in EVE_ACTIONS} == {
        "none": 4, "measure_Z_resend": 6, "measure_X_resend": 6, "random_basis_resend": 7,
    }
    words, layout = decoy._pair_layout("random_basis_resend")
    # Round 2's basis is the high half of the word round 1's adversary
    # basis began.
    assert layout["eve_basis"][0].tolist()[0] == layout["basis"][0].tolist()[1] == 1
    assert layout["basis"][1].tolist() == [0, 32]


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
