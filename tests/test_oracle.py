"""The array oracle against the branch-by-branch reference.

protocol._enumerate collapses each copy's controllers to the sum of
their X outcomes and projects every sender outcome at once.  The
reference (oracle_reference.py) projects one sender branch and one
controller axis at a time, so these properties check the collapse, the
leaf order and the chunking over d in 2..4, m in 1..2, n in 0..3, real
and complex-phase channels, basis and random inputs, and every subset of
withheld controllers.
"""

import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_reference import reference_enumerate

from qteleport import protocol
from qteleport.config import random_coeffs
from qteleport.primitives import ChannelSpec
from qteleport.protocol import InputStateSpec, _branch_count, _enumerate, enumerate_branches

SHAPES = [
    (d, m, n)
    for d in (2, 3, 4)
    for m in (1, 2)
    for n in (0, 1, 2, 3)
    if 2 * d ** (2 * m + m * n) <= 10**5
]


@st.composite
def cases(draw):
    """(input, channel): real or complex-phase coefficients, a basis or a
    random input."""
    d, m, n = draw(st.sampled_from(SHAPES))
    weights = np.array(draw(st.lists(st.floats(0.2, 2.0), min_size=d, max_size=d)))
    weights *= d / weights.sum()
    phases = np.zeros(d)
    if draw(st.booleans()):
        phases = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=d, max_size=d)))
    spec = ChannelSpec(d, n, m, tuple(np.sqrt(weights) * np.exp(1j * phases)))
    if draw(st.booleans()):
        inp = InputStateSpec.basis(d, m, draw(st.integers(0, d**m - 1)))
    else:
        inp = InputStateSpec.random(d, m, draw(st.integers(0, 2**32 - 1)))
    return inp, spec


def _success_leaves(branches):
    live = ~np.isnan(branches.fidelity[0::2])
    return branches.probability[0::2][live]


@settings(max_examples=40, deadline=None)
@given(case=cases(), chunked=st.booleans())
def test_array_oracle_matches_the_branch_walk(case, chunked):
    inp, spec = case
    # A chunk floor of 1 runs the sender outcomes in several chunks
    # wherever the leaf count allows (n <= 1).
    floor = 1 if chunked else protocol.ORACLE_CHUNK_AMPLITUDES
    for k in range(spec.n + 1):
        for withheld in combinations(range(spec.n), k):
            cooperating = set(range(spec.n)) - set(withheld)
            with mock.patch.object(protocol, "ORACLE_CHUNK_AMPLITUDES", floor):
                fast, success, total = _enumerate(inp, spec, withheld)
            ref, _, _ = reference_enumerate(inp, spec, cooperating)
            assert len(fast) == len(ref) == _branch_count(spec)
            empty = np.isnan(ref.fidelity)
            assert np.array_equal(np.isnan(fast.fidelity), empty)
            assert np.max(np.abs(fast.probability - ref.probability)) <= 1e-15
            bound = 1e-13 if withheld else 2e-15
            assert np.max(np.abs(fast.fidelity - ref.fidelity)[~empty]) <= bound
            # The sums are the leaves' exact sums, rounded.  The reference
            # sums its leaves one at a time, which rounds by up to ~1e-14
            # at 10^4 leaves, so it is compared by its leaves' exact sums,
            # which differ by at most the leaves' summed differences.
            drift = math.fsum(np.abs(fast.probability - ref.probability))
            for ours, leaves, theirs in (
                (success, _success_leaves(fast), _success_leaves(ref)),
                (total, fast.probability, ref.probability),
            ):
                assert abs(ours - math.fsum(leaves)) <= 1e-15
                assert abs(ours - math.fsum(theirs)) <= 1e-15 + drift


def test_leaf_records_match_the_branch_walk():
    spec = ChannelSpec(3, 2, 2, random_coeffs(3, 17))
    inp = InputStateSpec.random(3, 2, 18)
    fast = enumerate_branches(inp, spec).branches
    ref, _, _ = reference_enumerate(inp, spec)
    for i in (0, 1, 161, 162, 5000, len(ref) - 1):
        a, b = fast[i], ref[i]
        assert (a.gbs, a.controllers, a.aux) == (b.gbs, b.controllers, b.aux)
        assert abs(a.probability - b.probability) <= 1e-15
        assert abs(a.fidelity - b.fidelity) <= 2e-15


def test_oracle_projects_all_sender_outcomes_at_once(monkeypatch):
    calls = []
    pullback = protocol._pullback

    def counted(*args):
        calls.append(args[2].shape)
        return pullback(*args)

    def unreachable(*args):
        raise AssertionError("the oracle listed branches one at a time")

    monkeypatch.setattr(protocol, "_pullback", counted)
    monkeypatch.setattr(protocol, "branch_outcomes", unreachable)
    spec = ChannelSpec(3, 2, 2, random_coeffs(3, 19))
    report = enumerate_branches(InputStateSpec.random(3, 2, 20), spec)
    assert len(report.branches) == 13_122
    # One call, with the (r, s) pairs of all 81 sender outcomes.
    assert calls == [(81, 2, 2)]


@pytest.mark.parametrize("d, m, n", [(2, 2, 0), (3, 2, 1), (4, 1, 1)])
def test_chunked_oracle_equals_one_chunk(d, m, n, monkeypatch):
    spec = ChannelSpec(d, n, m, random_coeffs(d, 21))
    inp = InputStateSpec.random(d, m, 22)
    whole = enumerate_branches(inp, spec)
    monkeypatch.setattr(protocol, "ORACLE_CHUNK_AMPLITUDES", 1)
    chunked = enumerate_branches(inp, spec)
    for name, tol in (("probability", 1e-15), ("fidelity", 2e-15)):
        np.testing.assert_allclose(
            getattr(chunked.branches, name), getattr(whole.branches, name), rtol=0, atol=tol
        )
    assert abs(whole.success_probability - chunked.success_probability) <= 1e-15
