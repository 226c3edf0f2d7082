"""Exact laws behind the paper's claims, checked against the simulator.

Each law is derived independently of the code path it checks:

* collision law -- with any non-empty set of controllers withholding
  their outcomes, each copy carries an unknown phase omega^(-w j) with w
  uniform, so the mean success fidelity is sum_J |beta_J|^4, whatever
  the channel;
* Vidal law -- the optimal LOCC probability of turning a pure state into
  a maximally entangled one is min_l E_l(psi) / E_l(Phi), E_l the tail
  sums of the sorted Schmidt weights (G. Vidal, PRL 83, 1046 (1999)); m
  copies succeed with its m-th power, the oracle's success probability;
* exact decoy rate -- the Born tables the decoy campaign draws from,
  summed over preparation, adversary and check, give (1/2)(1 - 1/d);
* G-test -- the sampler's leaf frequencies against the oracle's exact
  leaf probabilities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_protocol import GUARDED_SHAPES, _oracle_cases

from qteleport import decoy
from qteleport.primitives import ChannelSpec, channel_state
from qteleport.protocol import (
    InputStateSpec,
    _sample_trials,
    enumerate_branches,
    fidelity_without_control,
)

# Shapes of at most 20,000 leaves, so that each example takes milliseconds.
SMALL_SHAPES = [(d, m, n) for d, m, n in GUARDED_SHAPES if 2 * d ** (m * (n + 2)) <= 20_000]


@settings(max_examples=25, deadline=None)
@given(case=_oracle_cases([s for s in SMALL_SHAPES if s[2] > 0]), data=st.data())
def test_collision_law_for_every_withheld_set(case, data):
    inp, chan = case
    withheld = data.draw(st.sets(st.integers(0, chan.n - 1), min_size=1))
    # At an edge channel (success probability near 1e-18) every success
    # group can sit below the oracle's floor: no success fidelity is
    # defined, so there is no mean to take, and the law is refused.
    if np.isnan(enumerate_branches(inp, chan).branches.fidelity[0::2]).all():
        with pytest.raises(ValueError, match="defined fidelity"):
            fidelity_without_control(inp, chan, withheld)
        return
    collision = float(np.sum(np.abs(inp.beta) ** 4))
    assert abs(fidelity_without_control(inp, chan, withheld) - collision) < 1e-12


@settings(max_examples=25, deadline=None)
@given(case=_oracle_cases(SMALL_SHAPES))
def test_vidal_law_gives_the_oracles_success_probability(case):
    inp, chan = case
    d = chan.d
    # Schmidt weights of one copy across sender | (controllers, receiver).
    amps = channel_state(chan).amps.reshape(d, -1)
    weights = np.linalg.svd(amps, compute_uv=False) ** 2
    tails = np.cumsum(weights[::-1])[::-1]  # E_l = sum of weights l..d-1
    optimal = np.min(tails / ((d - np.arange(d)) / d))
    assert abs(optimal**chan.m - enumerate_branches(inp, chan).success_probability) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("eve_action", decoy.EVE_ACTIONS)
def test_born_tables_give_the_exact_detection_rate(d, eve_action):
    # The campaign's cross-basis tables, [ket basis, ket value, outcome]
    # with Z = 0 and X = 1; in its own basis a ket's value is certain.
    cross = np.diff(decoy._cross_tables(d), axis=-1, prepend=0.0)

    def born(ket, value, basis):
        return np.eye(d)[value] if ket == basis else cross[ket, value]

    eve = {
        "none": {}, "measure_Z_resend": {0: 1.0}, "measure_X_resend": {1: 1.0},
        "random_basis_resend": {0: 0.5, 1: 0.5},
    }[eve_action]
    rate = 0.0
    for basis in (0, 1):
        for value in range(d):
            # The check's outcome weights on the qudit that reaches it.
            check = born(basis, value, basis) if not eve else sum(
                p * born(guess, k, basis) * born(basis, value, guess)[k]
                for guess, p in eve.items()
                for k in range(d)
            )
            rate += (1.0 - check[value]) / (2 * d)
    assert abs(rate - decoy.analytic_detection_rate(d, eve_action)) < 1e-14


@pytest.mark.parametrize("d, m, n, seed", [(2, 1, 1, 1), (3, 1, 1, 2), (2, 2, 1, 3), (3, 2, 0, 4)])
def test_sampled_leaves_follow_the_oracle(d, m, n, seed):
    trials = 40_000
    inp = InputStateSpec.random(d, m, seed)
    chan = ChannelSpec(d, n, m, tuple(np.sqrt((1.0 + np.arange(d)) * 2 / (d + 1))))
    leaves = enumerate_branches(inp, chan).branches.probability
    runs = _sample_trials(inp.state(), chan, seed, trials)
    # Leaf index: (sender digits, controller digits, aux), copy-major.
    sender = runs.gbs.reshape(trials, -1) @ d ** np.arange(2 * m - 1, -1, -1)
    ctrl = runs.controllers.reshape(trials, -1) @ d ** np.arange(m * n - 1, -1, -1)
    index = (sender * d ** (m * n) + ctrl) * 2 + runs.aux
    np.testing.assert_allclose(runs.probability, leaves[index], rtol=1e-12)
    counts = np.bincount(index, minlength=leaves.size)
    live = leaves > 1e-12
    assert not counts[~live].any()
    observed, expected = counts[live], trials * leaves[live]
    hit = observed > 0
    # G is chi-square distributed with df degrees of freedom: bound its z-score.
    g = 2 * np.sum(observed[hit] * np.log(observed[hit] / expected[hit]))
    df = live.sum() - 1
    assert abs(g - df) / np.sqrt(2 * df) < 4.0
