"""Protocol runs, exact branch enumeration, and control necessity."""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_edges import edge_coefficients

from qteleport import protocol
from qteleport.config import random_coeffs
from qteleport.protocol import (
    ENUMERATION_GUARD,
    EnumerationGuardError,
    ForcedBranch,
    InputStateSpec,
    _branch_count,
    _Kept,
    _stage_one_success,
    _success_probability,
    enumerate_branches,
    fidelity_without_control,
    run_protocol,
    run_structured,
    theoretical_success_probability,
)
from qteleport.primitives import ChannelSpec
from qteleport.state import SizeGuardError


def _spec(d, n, m, weights):
    return ChannelSpec(d, n, m, tuple(np.sqrt(w) for w in weights))


def test_input_spec_validation():
    InputStateSpec(2, 1, [0.6, 0.8])
    with pytest.raises(ValueError, match="length"):
        InputStateSpec(2, 2, [1.0, 0.0])
    with pytest.raises(ValueError, match=r"sum\|beta\|\^2 = 1, got 2.0000000000000004$"):
        InputStateSpec(2, 1, [1.0, 1.0])
    # Squaring 1e308 overflows: the norm check rejects it, with no numpy
    # warning before the error.
    with pytest.raises(ValueError, match=r"sum\|beta\|\^2 = 1, got inf$"):
        InputStateSpec(2, 1, [1e308, 1e308])


def test_input_spec_constructors():
    basis = InputStateSpec.basis(3, 2, 4)
    assert basis.beta[4] == 1.0
    assert abs(np.linalg.norm(basis.beta) - 1.0) < 1e-12
    a = InputStateSpec.random(3, 1, 9)
    b = InputStateSpec.random(3, 1, 9)
    assert np.array_equal(a.beta, b.beta)
    assert not np.array_equal(a.beta, InputStateSpec.random(3, 1, 10).beta)


def test_input_register_is_built_once_and_read_only():
    inp = InputStateSpec.random(3, 2, 21)
    register = inp.state()
    assert inp.state() is register
    assert not register.amps.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        register.amps[0] = 0.0
    snapshot = register.amps.copy()
    spec = _spec(3, 1, 2, (1.5, 1.0, 0.5))
    for seed in range(5):
        # A fresh spec builds its own register; the shared one must give
        # the same transcripts and stay untouched.
        fresh = InputStateSpec.random(3, 2, 21)
        assert run_structured(inp, spec, seed=seed) == run_structured(fresh, spec, seed=seed)
        assert run_protocol(inp, spec, seed=seed) == run_protocol(fresh, spec, seed=seed)
    enumerate_branches(inp, spec)
    assert np.array_equal(register.amps, snapshot)


def test_success_probability_uniform_channel_is_one():
    report = enumerate_branches(
        InputStateSpec.random(2, 1, 1), _spec(2, 1, 1, (1.0, 1.0))
    )
    assert abs(report.success_probability - 1.0) < 1e-10
    assert abs(report.total_probability - 1.0) < 1e-10


def test_success_probability_weighted_qubit_channel():
    report = enumerate_branches(
        InputStateSpec.random(2, 1, 2), _spec(2, 2, 1, (1.5, 0.5))
    )
    assert abs(report.success_probability - 0.5) < 1e-10
    assert abs(report.theoretical - 0.5) < 1e-12


def test_success_probability_two_copies_qutrit():
    spec = _spec(3, 1, 2, (1.2, 0.9, 0.9))
    report = enumerate_branches(InputStateSpec.random(3, 2, 4), spec)
    assert abs(report.success_probability - 0.81) < 1e-10
    assert abs(theoretical_success_probability(spec) - 0.81) < 1e-12


def test_success_probability_independent_of_input_state():
    spec = _spec(3, 1, 1, (1.5, 1.0, 0.5))
    values = [
        enumerate_branches(InputStateSpec.random(3, 1, seed), spec).success_probability
        for seed in (1, 2, 3)
    ]
    values.append(
        enumerate_branches(InputStateSpec.basis(3, 1, 2), spec).success_probability
    )
    assert max(values) - min(values) < 1e-12
    assert abs(values[0] - 0.5) < 1e-10


def test_success_branches_have_unit_fidelity():
    spec = _spec(3, 2, 1, (1.5, 1.0, 0.5))
    report = enumerate_branches(InputStateSpec.random(3, 1, 8), spec)
    for b in report.branches:
        if b.aux == 0 and b.probability > 1e-12:
            assert b.fidelity >= 1.0 - 1e-10


def test_complex_coefficients_still_unit_fidelity():
    w = np.exp(0.4j)
    spec = ChannelSpec(2, 1, 1, (np.sqrt(1.5) * w, np.sqrt(0.5) * w.conjugate()))
    report = enumerate_branches(InputStateSpec.random(2, 1, 12), spec)
    assert abs(report.success_probability - 0.5) < 1e-10
    for b in report.branches:
        if b.aux == 0 and b.probability > 1e-12:
            assert b.fidelity >= 1.0 - 1e-10


def test_branch_count_and_probability_closure():
    spec = _spec(2, 2, 1, (1.5, 0.5))
    report = enumerate_branches(InputStateSpec.random(2, 1, 3), spec)
    # d^2 sender outcomes, d^n controller outcomes, 2 aux outcomes.
    assert len(report.branches) == 4 * 4 * 2
    assert abs(report.total_probability - 1.0) < 1e-10


def test_branch_sequence_reads_records_in_product_order():
    d, n, m = 2, 2, 2  # m * n = 4 controller axes
    spec = ChannelSpec(d, n, m, random_coeffs(d, 6))
    branches = enumerate_branches(InputStateSpec.random(d, m, 3), spec).branches
    records = list(branches)
    assert len(branches) == len(records) == _branch_count(spec)
    gbs = product(product(range(d), repeat=2), repeat=m)
    controllers = list(product(product(range(d), repeat=n), repeat=m))
    expected = list(product(gbs, controllers, (0, 1)))
    assert [(b.gbs, b.controllers, b.aux) for b in records] == expected
    assert list(iter(branches)) == records
    for i in (0, 1, 37, len(records) - 1, -1, -2, -len(records)):
        assert branches[i] == records[i]
    for cut in (slice(None, 6), slice(3, 200, 7), slice(-5, None), slice(None, None, -50)):
        assert branches[cut] == records[cut]
    for i in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            branches[i]


def test_enumeration_memory_is_bounded():
    # 131,072 leaves: reading the count and the sum builds no record.
    spec = ChannelSpec(4, 2, 2, random_coeffs(4, 3))
    inp = InputStateSpec.random(4, 2, 5)
    tracemalloc.start()
    try:
        report = enumerate_branches(inp, spec)
        assert len(report.branches) == 131_072
        assert abs(report.success_probability - report.theoretical) < 1e-12
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_no_controllers_case():
    spec = _spec(3, 0, 1, (1.5, 1.0, 0.5))
    report = enumerate_branches(InputStateSpec.random(3, 1, 5), spec)
    assert abs(report.success_probability - 0.5) < 1e-10
    for b in report.branches:
        assert b.controllers == ((),)


def test_forced_run_trivial_branch():
    # All-zero outcomes on a uniform channel: success with no correction.
    spec = _spec(2, 1, 1, (1.0, 1.0))
    inp = InputStateSpec(2, 1, [0.6, 0.8])
    forced = ForcedBranch(gbs=((0, 0),), controllers=((0,),), aux=0)
    t = run_protocol(inp, spec, forced=forced)
    assert t.success
    assert abs(t.fidelity - 1.0) < 1e-12
    # p = (1/4 per Bell outcome) * (1/2 per controller) * 1 for aux.
    assert abs(t.probability - 0.125) < 1e-12
    assert t.gbs == ((0, 0),)
    assert t.r_sums == (0,)


def test_forced_aux_failure_branch():
    spec = _spec(2, 0, 1, (1.5, 0.5))
    inp = InputStateSpec.random(2, 1, 6)
    forced = ForcedBranch(gbs=((0, 0),), controllers=((),), aux=1)
    t = run_protocol(inp, spec, forced=forced)
    assert not t.success
    assert t.aux == 1


def test_transcript_probability_matches_enumeration():
    spec = _spec(3, 1, 1, (1.5, 1.0, 0.5))
    inp = InputStateSpec.random(3, 1, 7)
    report = enumerate_branches(inp, spec)
    by_key = {(b.gbs, b.controllers, b.aux): b for b in report.branches}
    forced = ForcedBranch(gbs=((1, 2),), controllers=((2,),), aux=0)
    t = run_protocol(inp, spec, forced=forced)
    ref = by_key[(t.gbs, t.controllers, t.aux)]
    assert abs(t.probability - ref.probability) < 1e-12
    assert abs(t.fidelity - ref.fidelity) < 1e-10


def test_structured_and_dense_agree_on_forced_branches():
    spec = _spec(3, 2, 2, (1.5, 1.0, 0.5))
    inp = InputStateSpec.random(3, 2, 21)
    rng = np.random.default_rng(20)
    for _ in range(50):
        forced = ForcedBranch(
            gbs=tuple((int(rng.integers(3)), int(rng.integers(3))) for _ in range(2)),
            controllers=tuple(
                tuple(int(rng.integers(3)) for _ in range(2)) for _ in range(2)
            ),
            aux=int(rng.integers(2)),
        )
        a = run_protocol(inp, spec, forced=forced)
        b = run_structured(inp, spec, forced=forced)
        assert abs(a.probability - b.probability) < 1e-10
        assert abs(a.fidelity - b.fidelity) < 1e-10


def test_structured_and_dense_agree_on_sampled_seeds():
    spec = _spec(2, 1, 2, (1.5, 0.5))
    inp = InputStateSpec.random(2, 2, 2)
    for seed in range(10):
        a = run_protocol(inp, spec, seed=seed)
        b = run_structured(inp, spec, seed=seed)
        assert a.gbs == b.gbs
        assert a.controllers == b.controllers
        assert a.aux == b.aux
        assert abs(a.fidelity - b.fidelity) < 1e-10


def test_structured_path_survives_dense_size_guard():
    spec = _spec(5, 4, 2, (1.5, 1.2, 1.0, 0.8, 0.5))
    inp = InputStateSpec.random(5, 2, 1)
    with pytest.raises(SizeGuardError):
        run_protocol(inp, spec, seed=0)
    t = run_structured(inp, spec, seed=0)
    assert t.aux in (0, 1)
    if t.success:
        assert t.fidelity >= 1.0 - 1e-9


def test_run_requires_exactly_one_of_seed_and_forced():
    spec = _spec(2, 0, 1, (1.0, 1.0))
    inp = InputStateSpec.basis(2, 1, 0)
    forced = ForcedBranch(gbs=((0, 0),), controllers=((),), aux=0)
    for run in (run_protocol, run_structured):
        with pytest.raises(ValueError, match="exactly one"):
            run(inp, spec)
        with pytest.raises(ValueError, match="exactly one"):
            run(inp, spec, seed=1, forced=forced)


@pytest.mark.parametrize("run", [run_protocol, run_structured])
@pytest.mark.parametrize(
    "gbs, controllers, aux, field",
    [
        (((0, 4),), ((0,),), 0, "gbs"),  # s past d - 1
        (((1, -1),), ((0,),), 0, "gbs"),  # negative s
        (((0, 1.5),), ((0,),), 0, "gbs"),  # not an integer
        ((), ((0,),), 0, "gbs"),  # too few copies
        (((0, 0), (1, 1)), ((0,), (0,)), 0, "gbs"),  # too many copies
        (((0, 0, 1),), ((0,),), 0, "gbs"),  # not an (r, s) pair
        (((0, 0),), (), 0, "controllers"),  # too few copies
        (((0, 0),), ((0, 1),), 0, "controllers"),  # too many controllers
        (((0, 0),), ((3,),), 0, "controllers"),  # x past d - 1
        (((0, 0),), ((0,),), 2, "aux"),
        (((0, 0),), ((0,),), 1.0, "aux"),  # not an integer
    ],
)
def test_forced_branch_is_checked_against_the_spec(run, gbs, controllers, aux, field):
    spec = _spec(3, 1, 1, (1.5, 1.0, 0.5))
    inp = InputStateSpec.random(3, 1, 4)
    with pytest.raises(ValueError, match=f"forced {field}"):
        run(inp, spec, forced=ForcedBranch(gbs, controllers, aux))


@pytest.mark.parametrize("d, m, n", [(2, 2, 1), (3, 1, 2)])
@pytest.mark.parametrize("skewed", [True, False])
def test_every_oracle_leaf_replays_on_both_runners(d, m, n, skewed):
    # The uniform channel's aux = 1 leaves are empty: forcing one raises.
    spec = _spec(d, n, m, np.linspace(1.5, 0.5, d) if skewed else np.ones(d))
    inp = InputStateSpec.random(d, m, 7)
    for leaf in enumerate_branches(inp, spec).branches:
        forced = ForcedBranch(leaf.gbs, leaf.controllers, leaf.aux)
        assert (leaf.probability == 0.0) == (not skewed and leaf.aux == 1)
        for run in (run_protocol, run_structured):
            if leaf.probability == 0.0:
                with pytest.raises(ValueError, match="negligible"):
                    run(inp, spec, forced=forced)
                continue
            t = run(inp, spec, forced=forced)
            assert (t.gbs, t.controllers, t.aux) == (leaf.gbs, leaf.controllers, leaf.aux)
            assert abs(t.probability - leaf.probability) < 1e-12
            assert abs(t.fidelity - leaf.fidelity) < 1e-12


def test_mismatched_input_and_channel_rejected():
    with pytest.raises(ValueError, match="does not match"):
        run_protocol(InputStateSpec.basis(2, 1, 0), _spec(3, 0, 1, (1, 1, 1)), seed=0)
    with pytest.raises(ValueError, match="does not match"):
        enumerate_branches(InputStateSpec.basis(2, 2, 0), _spec(2, 0, 1, (1, 1)))


def test_enumeration_guard():
    spec = _spec(4, 8, 2, (1.0, 1.0, 1.0, 1.0))  # 4^20 branches
    with pytest.raises(EnumerationGuardError, match="enumeration guard"):
        enumerate_branches(InputStateSpec.basis(4, 2, 0), spec)
    assert ENUMERATION_GUARD == 10**6
    with pytest.raises(EnumerationGuardError, match="enumeration guard"):
        _success_probability(InputStateSpec.basis(4, 2, 0), spec)


@pytest.mark.parametrize("d, m, n", list(product((2, 3, 4), (1, 2), (0, 1, 2))))
def test_stage_one_success_equals_the_full_oracle_on_the_sweep_grid(d, m, n):
    # The sweep's stage-1 success probability is the full oracle's float,
    # bit for bit: the same sums over the same chunks in the same order.
    for seed in (1, 2):
        spec = ChannelSpec(d, n, m, random_coeffs(d, 100 * seed + d))
        inp = InputStateSpec.random(d, m, 100 * seed + m)
        report = enumerate_branches(inp, spec)
        assert _success_probability(inp, spec) == report.success_probability


# Sizes that grow, shrink and repeat: a point takes the front of arrays a
# larger earlier point made, or makes larger ones.  (3, 3, 1), (4, 3, 0)
# and (5, 2, 1) run in several chunks at the default chunk floor.
KEPT_SEQUENCE = [
    (4, 2, 1), (2, 1, 0), (4, 2, 2), (3, 3, 1), (2, 2, 1), (5, 2, 1),
    (4, 3, 0), (3, 2, 2), (5, 2, 0), (4, 2, 1), (2, 2, 0),
]


@pytest.mark.parametrize("floor", [1, protocol.ORACLE_CHUNK_AMPLITUDES])
def test_stage_one_success_with_kept_arrays_equals_the_full_oracle(floor, monkeypatch):
    # One _Kept serves every point, as in a sweep run: each point's float
    # is the full oracle's, bit for bit.  A chunk floor of 1 fixes the
    # leading copies wherever the leaf count allows.
    monkeypatch.setattr(protocol, "ORACLE_CHUNK_AMPLITUDES", floor)
    kept = _Kept()
    for i, (d, m, n) in enumerate(KEPT_SEQUENCE):
        spec = ChannelSpec(d, n, m, random_coeffs(d, 30 + i))
        inp = InputStateSpec.random(d, m, 60 + i)
        expected = enumerate_branches(inp, spec).success_probability
        assert _stage_one_success(inp, spec, kept) == expected, (d, m, n)


GUARDED_SHAPES = [
    (d, m, n)
    for d, m, n in product((2, 3, 4, 5), (1, 2, 3), (0, 1, 2, 3, 4))
    if 2 * d ** (m * (n + 2)) <= ENUMERATION_GUARD
]


@st.composite
def _oracle_cases(draw, shapes=GUARDED_SHAPES):
    """(input, channel) within the enumeration guard: test_edges' edge
    coefficients and a random complex input."""
    d, m, n = draw(st.sampled_from(shapes))
    coeffs = draw(edge_coefficients(d))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d**m, max_size=2 * d**m))
    beta = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    norm = np.linalg.norm(beta)
    beta = beta / norm if norm > 1e-3 else np.eye(d**m)[0]
    return InputStateSpec(d, m, beta), ChannelSpec(d, n, m, coeffs)


@settings(max_examples=30, deadline=None)
@given(case=_oracle_cases())
def test_stage_one_success_equals_the_full_oracle(case):
    inp, spec = case
    report = enumerate_branches(inp, spec)
    assert _success_probability(inp, spec) == report.success_probability
    assert abs(report.success_probability - report.theoretical) < 1e-12


def test_fidelity_without_control_full_cooperation_is_unit():
    spec = _spec(2, 1, 1, (1.0, 1.0))
    inp = InputStateSpec(2, 1, [0.6, 0.8])
    assert abs(fidelity_without_control(inp, spec, set()) - 1.0) < 1e-10


def test_fidelity_without_control_regression_value():
    # Enumeration oracle for beta = (0.6, 0.8) with the lone controller
    # withheld; agrees with (1 + (|b0|^2 - |b1|^2)^2) / 2 = 0.5392.
    spec = _spec(2, 1, 1, (1.0, 1.0))
    inp = InputStateSpec(2, 1, [0.6, 0.8])
    value = fidelity_without_control(inp, spec, {0})
    assert abs(value - 0.5392) < 1e-10
    assert value < 0.999


def test_fidelity_without_control_basis_state_is_immune():
    # Computational basis inputs only need the shift correction, which
    # does not involve the controllers' outcomes.
    spec = _spec(2, 1, 1, (1.0, 1.0))
    value = fidelity_without_control(InputStateSpec.basis(2, 1, 1), spec, {0})
    assert abs(value - 1.0) < 1e-10


@pytest.mark.parametrize("k", [0, 5])
def test_fidelity_without_control_never_exceeds_one(k):
    # d=2 m=3 n=4 with nothing withheld: a float64 running sum of the
    # weighted success leaves read 1.000000000003651 here.
    spec = ChannelSpec(2, 4, 3, random_coeffs(2, 2))
    assert fidelity_without_control(InputStateSpec.basis(2, 3, k), spec, set()) <= 1.0


def test_fidelity_without_control_validates_range():
    spec = _spec(2, 1, 1, (1.0, 1.0))
    with pytest.raises(ValueError, match="out of range"):
        fidelity_without_control(InputStateSpec.basis(2, 1, 0), spec, {3})


def test_sampled_success_rate_short_run():
    spec = _spec(2, 1, 1, (1.5, 0.5))
    inp = InputStateSpec.random(2, 1, 30)
    root = np.random.SeedSequence(17)
    trials = 600
    wins = sum(run_structured(inp, spec, seed=c).success for c in root.spawn(trials))
    sigma = np.sqrt(0.5 * 0.5 / trials)
    assert abs(wins / trials - 0.5) < 5 * sigma


def test_transcript_records_integer_seed():
    spec = _spec(2, 0, 1, (1.0, 1.0))
    inp = InputStateSpec.basis(2, 1, 0)
    assert run_protocol(inp, spec, seed=42).seed == 42
    child = np.random.SeedSequence(1).spawn(1)[0]
    assert run_structured(inp, spec, seed=child).seed is None
