"""The batched closed-form sampler against numpy's generators and the
state engine's copy loop.

_streams computes every spawned child's Philox stream with array
arithmetic; it must equal numpy's own SeedSequence/Philox/Generator bit
for bit.  The montecarlo campaign runs _sample_runs on those streams in
chunks; its rows must carry the outcomes the engine's copy loop draws
from each child's generator, with fidelity and probability equal to
rounding.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_edges import edge_coefficients

from qteleport import protocol
from qteleport._streams import child_uniforms
from qteleport.campaign import _Column, run_campaign
from qteleport.config import load_config, random_coeffs
from qteleport.primitives import ChannelSpec, multi_correction_unitary
from qteleport.protocol import (
    ForcedBranch,
    InputStateSpec,
    _draw_count,
    _pullback,
    _rng_from_seed,
    _run,
    _sample_runs,
    run_protocol,
    run_structured,
)
from qteleport.state import SizeGuardError, _draw

# Relative agreement of fidelity and probability with the copy loop.
# Both are rounding-level; a failure row's fidelity is a small overlap,
# so its relative error is the largest (about 1e-14 at m = 3).
REL_TOL = 1e-13


def _numpy_uniforms(seed, start, stop, draws):
    children = np.random.SeedSequence(seed).spawn(stop)[start:]
    return np.array([np.random.Generator(np.random.Philox(c)).random(draws) for c in children])


@pytest.mark.parametrize(
    "seed",
    [0, 1, 404, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, 2**64 + 5, 2**130 + 3],
)
@pytest.mark.parametrize("draws", [1, 4, 5, 11])
def test_child_uniforms_match_numpy(seed, draws):
    # Seeds wider than 32, 64 and 128 bits; more than 4 draws read the
    # second and third counter blocks.
    expected = _numpy_uniforms(seed, 0, 40, draws)
    assert np.array_equal(child_uniforms(seed, 0, 40, draws), expected)
    assert np.array_equal(child_uniforms(seed, 25, 40, draws), expected[25:])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**96), st.integers(1, 13))
def test_child_uniforms_match_numpy_for_any_seed(seed, draws):
    assert np.array_equal(child_uniforms(seed, 3, 9, draws), _numpy_uniforms(seed, 3, 9, draws))


def test_child_uniforms_reject_bad_ranges():
    with pytest.raises(ValueError, match="non-negative"):
        child_uniforms(-1, 0, 2, 1)
    with pytest.raises(ValueError, match="child range"):
        child_uniforms(1, 0, 2**32 + 1, 1)
    assert child_uniforms(1, 5, 5, 3).shape == (0, 3)


def test_a_batch_of_one_reads_the_copy_loops_draws():
    # The copy loop calls rng.random() once per measurement; the sampler
    # reads rng.random(k) in one call.  The two give the same values.
    child = np.random.SeedSequence(8).spawn(3)[2]
    rng = _rng_from_seed(child)
    one_by_one = [rng.random() for _ in range(9)]
    assert _rng_from_seed(child).random(9).tolist() == one_by_one


def _channel(d, m, n, complex_phases, seed):
    coeffs = np.array(random_coeffs(d, seed))
    if complex_phases:
        coeffs = coeffs * np.exp(1j * np.linspace(0.3, 2.9, d))
    return ChannelSpec(d, n, m, tuple(coeffs))


def _config(spec, seed, trials):
    return load_config(
        {
            "kind": "montecarlo",
            "d": spec.d,
            "m": spec.m,
            "n": spec.n,
            "coeffs": [[c.real, c.imag] for c in spec.coeffs],
            "beta": f"random:{seed}",
            "trials": trials,
            "seed": seed,
        }
    )


def _assert_row_matches(row, t):
    assert row["gbs"] == ";".join(f"{r}:{s}" for r, s in t.gbs)
    assert row["controllers"] == "|".join(",".join(map(str, c)) for c in t.controllers)
    assert row["r_sums"] == ";".join(map(str, t.r_sums))
    assert (row["aux"], row["success"]) == (t.aux, int(t.success))
    assert row["fidelity"] == pytest.approx(t.fidelity, rel=REL_TOL)
    assert row["probability"] == pytest.approx(t.probability, rel=REL_TOL)


# (d, m, n, complex phases): m >= 3, n = 0, several controllers, and
# d >= 3 so that a controller phase's sign matters.
SHAPES = [
    (3, 1, 2, False),
    (2, 3, 1, True),
    (3, 2, 1, True),
    (2, 4, 0, False),
    (4, 1, 1, True),
]


@pytest.mark.parametrize("d, m, n, complex_phases", SHAPES)
def test_campaign_rows_equal_per_trial_runs(monkeypatch, d, m, n, complex_phases):
    # A chunk of a few trials, so that the 23 trials cross chunk
    # boundaries at every shape.
    monkeypatch.setattr(protocol, "SAMPLE_CHUNK_AMPLITUDES", 64)
    spec = _channel(d, m, n, complex_phases, 10 * d + m)
    seed = d * 100 + m * 10 + n
    cfg = _config(spec, seed, 23)
    record = run_campaign(cfg)
    inp = cfg.input_spec()
    children = np.random.SeedSequence(seed).spawn(23)
    for row, child in zip(record.rows, children):
        _assert_row_matches(row, run_protocol(inp, spec, seed=child))
        _assert_row_matches(row, run_structured(inp, spec, seed=child))
    assert record.aggregate["successes"] == sum(row["success"] for row in record.rows)


def test_campaign_rows_cross_the_default_chunk():
    # d^m = 128: 128 trials per chunk, so 130 trials take two chunks.
    spec = _channel(2, 7, 0, True, 77)
    cfg = _config(spec, 5, 130)
    assert protocol.SAMPLE_CHUNK_AMPLITUDES // 2**7 < 130
    record = run_campaign(cfg)
    register = cfg.input_spec().state()
    for row, child in zip(record.rows, np.random.SeedSequence(5).spawn(130)):
        _assert_row_matches(row, _run(register, register, spec, child, None))


def test_sampler_rows_do_not_depend_on_the_batch():
    spec = _channel(3, 2, 2, True, 5)
    register = InputStateSpec.random(3, 2, 5).state()
    uniforms = child_uniforms(12, 0, 40, _draw_count(spec))
    whole = _sample_runs(register, spec, uniforms)
    for i in (0, 17, 39):
        one = _sample_runs(register, spec, uniforms[i : i + 1])
        for field in ("gbs", "controllers", "r_sums", "aux"):
            assert np.array_equal(getattr(one, field)[0], getattr(whole, field)[i])
        assert one.fidelity[0] == pytest.approx(whole.fidelity[i], rel=1e-14)
        assert one.probability[0] == pytest.approx(whole.probability[i], rel=1e-14)


# (d, m, n, trials a chunk) at 128 amplitudes a chunk: (2, 6, 1) runs
# blocks of 4 chunks, (3, 3, 0) blocks of 8 chunks in passes of 14 runs,
# (2, 4, 2) blocks of one chunk; controllers act in two, prefixes repeat.
BLOCK_SHAPES = [(2, 6, 1, 2), (3, 3, 0, 4), (2, 4, 2, 8)]


@pytest.mark.parametrize("d, m, n, chunk", BLOCK_SHAPES)
def test_block_rows_equal_their_chunks_sampled_alone(monkeypatch, d, m, n, chunk):
    # A campaign samples a block per call; each row must carry the bits
    # of one _sample_runs call on its chunk's uniforms alone.
    monkeypatch.setattr(protocol, "SAMPLE_CHUNK_AMPLITUDES", 128)
    spec, seed, trials = _channel(d, m, n, True, 7 * d + m), 60 + 9 * d + m + n, 70
    cfg = _config(spec, seed, trials)
    record = run_campaign(cfg)
    register = cfg.input_spec().state()
    draws = _draw_count(spec)
    parts = [
        _sample_runs(register, spec, child_uniforms(seed, lo, min(lo + chunk, trials), draws))
        for lo in range(0, trials, chunk)
    ]
    gbs, controllers, r_sums, aux, fidelity, probability = map(np.concatenate, zip(*parts))
    rows = list(record.rows)
    assert [row["gbs"] for row in rows] == [
        ";".join(f"{r}:{s}" for r, s in g) for g in gbs.tolist()
    ]
    assert [row["controllers"] for row in rows] == [
        "|".join(",".join(map(str, c)) for c in copies) for copies in controllers.tolist()
    ]
    assert [row["r_sums"] for row in rows] == [";".join(map(str, r)) for r in r_sums.tolist()]
    assert np.array_equal(record.data["aux"].codes, aux)
    assert np.array_equal(record.data["fidelity"].codes, fidelity, equal_nan=True)
    assert np.array_equal(record.data["probability"].codes, probability)


# (d, m, n, trials): chunks of 202 and 655 runs, so each campaign cuts
# its trials into more than one chunk.
DIRECT_SHAPES = [(3, 4, 1, 500), (5, 2, 1, 700)]


@pytest.mark.parametrize("seed", [1, 7, 23])
@pytest.mark.parametrize("d, m, n, trials", DIRECT_SHAPES)
def test_a_direct_call_gives_the_campaigns_bits(d, m, n, trials, seed):
    # _sample_runs cuts its own chunks, so a call on all the campaign's
    # uniforms at once gives the campaign's floats bit for bit.
    doc = {"kind": "montecarlo", "d": d, "m": m, "n": n, "trials": trials, "seed": seed}
    cfg = load_config({**doc, "coeffs": f"random:{seed}", "beta": f"random:{seed}"})
    record = run_campaign(cfg)
    spec = cfg.channel_spec()
    uniforms = child_uniforms(seed, 0, trials, _draw_count(spec))
    sample = _sample_runs(cfg.input_spec().state(), spec, uniforms)
    assert np.array_equal(record.data["fidelity"].codes, sample.fidelity)
    assert np.array_equal(record.data["probability"].codes, sample.probability)


def test_a_sender_pass_stays_within_the_chunk_budget(monkeypatch):
    # d = 64: 4,096 sender weights a run, so a pass holds 4 of the 600
    # runs that form one block.  _sample_rows compares each draw with a
    # whole row of weights, so that comparison is the size recorded.
    # Direct calls on 5,000 runs cut their own passes too: 3 controllers'
    # draws of 2 weights a run, and 10 sender draws of 4 weights a run.
    seen = []

    def recorded(weights, draws):
        seen.append(max(weights.size, draws.size * weights.shape[-1]))
        return _draw(weights, draws)

    monkeypatch.setattr(protocol, "_draw", recorded)
    doc = {"kind": "montecarlo", "d": 64, "m": 1, "n": 0, "trials": 600, "seed": 4}
    record = run_campaign(load_config({**doc, "coeffs": "random:4", "beta": "random:4"}))
    assert len(record.rows) == 600
    for d, m, n in ((2, 1, 3), (2, 10, 0)):
        spec = _channel(d, m, n, False, 4)
        uniforms = child_uniforms(4, 0, 5000, _draw_count(spec))
        _sample_runs(InputStateSpec.random(d, m, 4).state(), spec, uniforms)
    assert 0 < max(seen) <= protocol.SAMPLE_CHUNK_AMPLITUDES


@pytest.mark.parametrize(
    "d, m, n, trials, seed", [(2, 1, 2, 200_000, 11), (3, 2, 2, 100_000, 3), (2, 3, 1, 100_000, 5)]
)
def test_a_long_campaign_holds_its_columns_once(d, m, n, trials, seed):
    # Each block is written into the final columns: no block list and no
    # concatenated copy of it, so the peak stays near the record's codes.
    doc = {"kind": "montecarlo", "d": d, "m": m, "n": n, "trials": trials, "seed": seed}
    cfg = load_config({**doc, "coeffs": f"random:{seed}", "beta": f"random:{seed}"})
    run_campaign(cfg)  # warm: tables and caches are built outside the trace
    tracemalloc.start()
    try:
        record = run_campaign(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(c.codes.nbytes for c in record.data.values() if isinstance(c, _Column))
    assert peak < 2.5 * held


def test_sampler_applies_the_amplitude_guard(monkeypatch):
    # The receiver plus aux qubit holds 2 d^m amplitudes; at m = 1 the
    # sender's d^2 outcome weights are the larger array.
    wide = _channel(3, 2, 1, False, 1)
    inp = InputStateSpec.random(3, 2, 1)
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "18")
    run_structured(inp, wide, seed=1)
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "17")
    with pytest.raises(SizeGuardError):
        run_structured(inp, wide, seed=1)
    with pytest.raises(SizeGuardError):
        run_campaign(_config(wide, 1, 3))
    single = _channel(5, 1, 0, False, 2)
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "24")
    with pytest.raises(SizeGuardError):
        run_structured(InputStateSpec.random(5, 1, 2), single, seed=1)


def test_forced_structured_runs_build_no_full_register(monkeypatch):
    # d=2 m=2 n=3: the copy loop's register reaches 4 * 32 amplitudes
    # with the first copy attached; the closed form's widest array, the
    # receiver with the aux qubit, holds 2 * 2^2.
    spec = _channel(2, 2, 3, True, 3)
    inp = InputStateSpec.random(2, 2, 3)
    forced = ForcedBranch(((1, 0), (0, 1)), ((1, 0, 1), (0, 0, 1)), 0)
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "64")
    with pytest.raises(SizeGuardError):
        run_protocol(inp, spec, forced=forced)
    t = run_structured(inp, spec, forced=forced)
    assert t.success and t.fidelity > 1 - 1e-9


def test_campaign_streams_come_a_block_of_whole_chunks_at_a_time(monkeypatch):
    # d^m = 9 and 3 draws per trial: chunks of 64 // 9 = 7 trials, and
    # blocks of 3 chunks (63 uniforms), so 50 trials cross both.
    monkeypatch.setattr(protocol, "SAMPLE_CHUNK_AMPLITUDES", 64)
    calls = []

    def counted(*args):
        calls.append(args)
        return child_uniforms(*args)

    monkeypatch.setattr(protocol, "child_uniforms", counted)
    spec = _channel(3, 2, 0, True, 9)
    record = run_campaign(_config(spec, 31, 50))
    assert calls == [(31, 0, 21, 3), (31, 21, 42, 3), (31, 42, 50, 3)]
    inp = InputStateSpec.random(3, 2, 31)
    for row, child in zip(record.rows, np.random.SeedSequence(31).spawn(50)):
        _assert_row_matches(row, run_structured(inp, spec, seed=child))


SAMPLED_SHAPES = [
    (d, m, n) for d in range(2, 6) for m in range(1, 5) for n in range(3) if d**m <= 256
]


@st.composite
def sampled_cases(draw):
    """(spec, input): d in 2..5, m in 1..4 with d^m <= 256, n in 0..2,
    test_edges' edge coefficients, and a random input."""
    d, m, n = draw(st.sampled_from(SAMPLED_SHAPES))
    coeffs = draw(edge_coefficients(d))
    inp = InputStateSpec.random(d, m, draw(st.integers(0, 2**32 - 1)))
    return ChannelSpec(d, n, m, coeffs), inp


@settings(max_examples=60, deadline=None)
@given(case=sampled_cases(), seed=st.integers(0, 2**32 - 1))
def test_sampled_rows_equal_the_copy_loop(case, seed):
    # The copy loop attaching each copy just before it is measured: the
    # loop run_protocol runs, without the full register.
    spec, inp = case
    register = inp.state()
    sample = _sample_runs(register, spec, child_uniforms(seed, 0, 3, _draw_count(spec)))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(3)):
        t = _run(register, register, spec, child, None)
        assert sample.gbs[i].tolist() == [list(g) for g in t.gbs]
        assert sample.controllers[i].tolist() == [list(c) for c in t.controllers]
        assert sample.r_sums[i].tolist() == list(t.r_sums)
        assert sample.aux[i] == t.aux
        assert sample.fidelity[i] == pytest.approx(t.fidelity, rel=REL_TOL)
        assert sample.probability[i] == pytest.approx(t.probability, rel=REL_TOL)


@settings(max_examples=40, deadline=None)
@given(case=sampled_cases(), seed=st.integers(0, 2**32 - 1))
def test_pullback_equals_the_dense_adjoint_correction(case, seed):
    spec, inp = case
    d, m = spec.d, spec.m
    # Indices past d too: a sampled run pulls back through r + rho.
    shifts = np.random.default_rng(seed).integers(0, 2 * d, (4, m, 2))
    pulled = _pullback(inp.state(), spec, shifts)
    assert pulled.shape == (4, d**m)
    phase_fix = reduce(np.kron, [np.diag(np.exp(-1j * np.angle(spec.coeffs)))] * m)
    for row, (u, s) in zip(pulled, shifts.transpose(0, 2, 1)):
        # Copy l's correction U_{u, d-s} diag(e^{-i phi}) is the dense
        # reference's factor times omega^(u s).
        correction = np.exp(2j * np.pi * (u @ s) / d) * multi_correction_unitary(d, u, s)
        expected = (correction @ phase_fix).conj().T @ inp.beta
        assert np.max(np.abs(row - expected)) < 1e-12
