"""The paper's claims at the edges of the channels ChannelSpec admits.

ChannelSpec admits every |c_j|^2 >= 1e-12, so these strategies reach
the smallest weight from 1e-12 up, exact and near ties (equal to within
a few ulps) between the smallest weights, complex phases, and larger d
at m = 1, n = 0; the oracle, protocol, sampler and receiver property
tests draw their channels from them too.  There the oracle's success probability must still be
(min_j |c_j|^2)^m to a relative error, not only to an absolute one that
any tiny value passes, and every sampled success must have unit
fidelity.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qteleport.cli import main
from qteleport.primitives import ChannelSpec
from qteleport.protocol import (
    InputStateSpec,
    _draw_count,
    _sample_runs,
    _success_probability,
    enumerate_branches,
    fidelity_without_control,
    theoretical_success_probability,
)

REL_TOL = 1e-12
# d <= 4, m <= 3, n <= 1 with at most 10^5 leaves.
EDGE_SHAPES = [
    (d, m, n)
    for d in (2, 3, 4)
    for m in (1, 2, 3)
    for n in (0, 1)
    if 2 * d ** (m * (n + 2)) <= 10**5
]


@st.composite
def edge_weights(draw, d):
    """d channel weights |c_j|^2 summing to d: the smallest 10^e for e
    in [-12, 0], shared by 1..d of them, each tie exact or a few ulps
    off, the others in [0.2, 2.0] before normalising."""
    ties = draw(st.integers(1, d))
    low = 1.0 if ties == d else 10.0 ** (draw(st.integers(-12, -1)) + draw(st.floats(0.0, 1.0)))
    ulps = np.array(draw(st.lists(st.integers(0, 4), min_size=ties, max_size=ties)))
    others = np.array(draw(st.lists(st.floats(0.2, 2.0), min_size=d - ties, max_size=d - ties)))
    tied = low * (1.0 + ulps * np.finfo(float).eps)
    weights = np.concatenate((tied, others * (d - tied.sum()) / others.sum()))
    return weights[draw(st.permutations(range(d)))]


@st.composite
def edge_coefficients(draw, d, real=False):
    """d channel coefficients of edge_weights' weights, with complex
    phases, or real positive ones."""
    weights = draw(edge_weights(d))
    if real:
        phases = np.zeros(d)
    else:
        phases = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=d, max_size=d)))
    coeffs = np.sqrt(weights) * np.exp(1j * phases)
    # Rounding can put |c|^2 a few ulps below a 1e-12 weight.
    assume(np.all(np.abs(coeffs) ** 2 >= 1e-12))
    return tuple(coeffs)


@st.composite
def edge_cases(draw, shapes=EDGE_SHAPES):
    """(input, channel): edge_coefficients' channel and a random or
    basis input."""
    d, m, n = draw(shapes if isinstance(shapes, st.SearchStrategy) else st.sampled_from(shapes))
    coeffs = draw(edge_coefficients(d))
    if draw(st.booleans()):
        inp = InputStateSpec.basis(d, m, draw(st.integers(0, d**m - 1)))
    else:
        inp = InputStateSpec.random(d, m, draw(st.integers(0, 2**32 - 1)))
    return inp, ChannelSpec(d, n, m, coeffs)


def _assert_success_is_the_min_weight_power(inp, spec):
    # (min |c|^2)^m >= 1e-36 here: a normal float, so a relative error.
    theory = theoretical_success_probability(spec)
    p = _success_probability(inp, spec)
    assert p == enumerate_branches(inp, spec).success_probability
    assert abs(p - theory) <= REL_TOL * theory, (p, theory)


def _assert_sampled_successes_are_unit(inp, spec, seed):
    # Uniform draws for the sender and controllers, 0 for the aux: every
    # row takes its success outcome, however small its weight.
    draws = np.random.default_rng(seed).random((16, _draw_count(spec)))
    draws[:, -1] = 0.0
    sample = _sample_runs(inp.state(), spec, draws)
    assert np.all(sample.aux == 0)
    assert np.max(np.abs(sample.fidelity - 1.0)) <= REL_TOL


@settings(max_examples=60, deadline=None)
@given(case=edge_cases(), seed=st.integers(0, 2**32 - 1))
def test_success_probability_and_fidelity_hold_at_the_edges(case, seed):
    inp, spec = case
    _assert_success_is_the_min_weight_power(inp, spec)
    _assert_sampled_successes_are_unit(inp, spec, seed)


def _fixed_edge_case(d, seed):
    """An m = 1, n = 0 case past the strategy's d <= 24: one weight
    1e-12, the others spread over [0.2, 2.0], complex phases, a random
    input."""
    rng = np.random.default_rng(seed)
    others = rng.uniform(0.2, 2.0, d - 1)
    weights = np.concatenate(([1e-12], others * (d - 1e-12) / others.sum()))
    coeffs = np.sqrt(rng.permutation(weights)) * np.exp(1j * rng.uniform(-np.pi, np.pi, d))
    return InputStateSpec.random(d, 1, seed), ChannelSpec(d, 0, 1, tuple(coeffs))


@settings(max_examples=10, deadline=None)
@given(
    case=edge_cases(st.tuples(st.integers(5, 24), st.just(1), st.just(0))),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=_fixed_edge_case(32, 1), seed=1)
@example(case=_fixed_edge_case(48, 2), seed=2)
def test_success_probability_and_fidelity_hold_at_larger_d(case, seed):
    inp, spec = case
    _assert_success_is_the_min_weight_power(inp, spec)
    _assert_sampled_successes_are_unit(inp, spec, seed)


@pytest.mark.parametrize(
    "argv",
    [
        # Weights 2e-6 and 2: success 1.6e-23.
        ["--d", "2", "--m", "4", "--n", "0", "--beta", "random:3",
         "--coeffs", "0.0014142128552668443,1.4142128552668443"],
        # Weights 2e-9 and 2: success 4e-18, its groups ~1e-18 of their
        # sender outcome's weight.
        ["--d", "2", "--m", "2", "--n", "1", "--beta", "random:2",
         "--coeffs", "4.4721359527635115e-05,1.414213561665988"],
    ],
)
def test_enumerate_sums_every_group_of_a_tiny_success(argv, tmp_path):
    out = tmp_path / "out.json"
    assert main(["enumerate", *argv, "--out", str(out)]) == 0
    aggregate = json.loads(out.read_text())["aggregate"]
    theory = aggregate["theoretical_success_probability"]
    assert abs(aggregate["success_probability"] - theory) <= REL_TOL * theory


def test_fidelity_without_control_averages_the_leaves_with_a_fidelity():
    # Weights 2e-9 and 2: 48 of the 64 success leaves sit in groups below
    # the oracle's 1e-18 floor, so their fidelity is NaN, yet they carry
    # success probability.  The mean is over the other leaves alone.
    inp = InputStateSpec.random(2, 2, 2)
    spec = ChannelSpec(2, 1, 2, (4.4721359527635115e-05, 1.414213561665988))
    assert abs(fidelity_without_control(inp, spec, set()) - 1.0) <= REL_TOL
    # Without the one controller's sums the mean is the collision law.
    collision = np.sum(np.abs(inp.beta) ** 4)
    assert abs(fidelity_without_control(inp, spec, {0}) - collision) <= REL_TOL


def test_fidelity_without_control_refuses_when_no_leaf_has_a_fidelity():
    # Weights 1e-9 and 4/3 (three times), m = 2: success probability
    # 1e-18, spread over 16 controller leaves, so every success group is
    # below the oracle's 1e-18 floor and no success fidelity is defined.
    inp = InputStateSpec(4, 2, [0.5j if k in (10, 11, 14, 15) else 0.0 for k in range(16)])
    spec = ChannelSpec(4, 1, 2, (3.1622776601683795e-05,) + (1.1547005382349138,) * 3)
    assert np.isnan(enumerate_branches(inp, spec).branches.fidelity[0::2]).all()
    for withheld in (set(), {0}):
        with pytest.raises(ValueError, match="defined fidelity"):
            fidelity_without_control(inp, spec, withheld)
