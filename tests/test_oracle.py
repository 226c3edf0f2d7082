"""The array oracle against the branch-by-branch reference.

protocol._enumerate collapses each copy's controllers to the sum of
their X outcomes and projects every sender outcome at once.  The
reference (oracle_reference.py) projects one sender branch and one
controller axis at a time, so these properties check the collapse, the
leaf order and the chunking over d in 2..4, m in 1..2, n in 0..3, the
edge channels of test_edges (smallest weights from 1e-12, ties, complex
phases), basis and random inputs, and every subset of withheld
controllers.
"""

import math
import tracemalloc
from functools import reduce
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_reference import reference_enumerate
from test_edges import _fixed_edge_case, edge_cases

from qteleport import protocol
from qteleport.config import random_coeffs
from qteleport.primitives import (
    ChannelSpec,
    _receiver_constants,
    channel_state,
    gbs_basis_matrix,
    x_basis_matrix,
)
from qteleport.protocol import (
    InputStateSpec,
    _branch_count,
    _copy_tensor,
    _enumerate,
    _joint_amplitudes,
    _joint_weights,
    _Kept,
    _stage_one,
    _success_probability,
    enumerate_branches,
)

SHAPES = [
    (d, m, n)
    for d in (2, 3, 4)
    for m in (1, 2)
    for n in (0, 1, 2, 3)
    if 2 * d ** (2 * m + m * n) <= 10**5
]


@settings(max_examples=40, deadline=None)
@given(case=edge_cases(SHAPES), chunked=st.booleans())
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
                (success, fast.probability[0::2], ref.probability[0::2]),
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


def _einsum_copy_tensor(spec):
    """_copy_tensor over the dense GBS bras, one einsum: the reference
    for the one-nonzero product, bit for bit."""
    d, n = spec.d, spec.n
    x_bra = x_basis_matrix(d).conj()
    bras = reduce(np.kron, [x_bra[:1]] * (n - 1), x_bra) if n else np.ones((1, 1))
    copy = bras @ channel_state(spec).amps.reshape(d, d**n, d)
    gbs_bra = gbs_basis_matrix(d).conj().reshape(d * d, d, d)  # [g, k, sender]
    return np.einsum("gka,axj->kgxj", gbs_bra, copy)


@settings(max_examples=30, deadline=None)
@given(
    case=edge_cases(
        st.tuples(st.integers(2, 16), st.just(1), st.integers(0, 3)).filter(
            lambda shape: shape[0] ** (shape[2] + 3) <= 2**16
        )
    )
)
@example(case=_fixed_edge_case(32, 3))
def test_copy_tensor_has_the_bits_of_the_dense_einsum(case):
    _, spec = case
    fast, dense = _copy_tensor(spec), _einsum_copy_tensor(spec)
    assert fast.shape == dense.shape
    assert np.array_equal(fast.view(np.uint64), dense.view(np.uint64))


# The sweep's grid and the shapes where the in-place squares gain most.
WEIGHT_SHAPES = [
    (d, m, n) for d in (2, 3, 4) for m in (1, 2) for n in (0, 1, 2)
] + [(5, 2, 0), (3, 3, 0), (2, 4, 1), (3, 3, 1)]


def _assert_weights_have_the_complex_routes_bits(inp, spec):
    # The reference reorders the complex amplitudes, then squares them:
    # what _enumerate reads.  _joint_weights squares where the matmul
    # wrote them and reorders the real density.
    state, (_, chunks) = inp.state(), _stage_one(spec)
    extraction = _receiver_constants(spec)[1]
    for _, tensors in chunks:
        amps = _joint_amplitudes(state.amps, tensors)
        density = amps.real**2
        density += amps.imag**2
        expected = density @ extraction
        weights = _joint_weights(state.amps, tensors, extraction, _Kept())
        assert weights.shape == expected.shape
        assert np.array_equal(weights.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("d, m, n", WEIGHT_SHAPES)
@pytest.mark.parametrize("floor", [1, protocol.ORACLE_CHUNK_AMPLITUDES])
def test_stage_one_weights_have_the_bits_of_the_complex_route(d, m, n, floor, monkeypatch):
    # Complex coefficients and input; a chunk floor of 1 fixes the
    # leading copies where the leaf count allows.
    monkeypatch.setattr(protocol, "ORACLE_CHUNK_AMPLITUDES", floor)
    phases = np.exp(1j * np.linspace(-2.5, 2.9, d))
    spec = ChannelSpec(d, n, m, tuple(np.array(random_coeffs(d, 7 * d + m)) * phases))
    _assert_weights_have_the_complex_routes_bits(InputStateSpec.random(d, m, d + m + n), spec)


@settings(max_examples=30, deadline=None)
@given(case=edge_cases(WEIGHT_SHAPES))
def test_stage_one_weights_have_the_bits_of_the_complex_route_at_the_edges(case):
    _assert_weights_have_the_complex_routes_bits(*case)


def test_stage_one_weights_hold_one_and_a_half_complex_chunks():
    # (4, 2, 1) runs in one chunk of 256 x 16 x 16 complex amplitudes:
    # the matmul output and its real density (1.5 chunks), then the
    # reordered density; no reordered complex copy (2 chunks).
    spec = ChannelSpec(4, 1, 2, random_coeffs(4, 1))
    inp = InputStateSpec.random(4, 2, 1)
    expected = _success_probability(inp, spec)  # the tables, cached
    chunk = 4**4 * 4**2 * 4**2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        assert _success_probability(inp, spec) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * chunk, peak / chunk
