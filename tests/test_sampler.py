"""The batched closed-form sampler against numpy's generators and the
state engine's copy loop.

_streams computes every spawned child's Philox stream with array
arithmetic; it must equal numpy's own SeedSequence/Philox/Generator bit
for bit.  The montecarlo campaign runs _sample_runs on those streams in
chunks; its rows must carry the outcomes the engine's copy loop draws
from each child's generator, with fidelity and probability equal to
rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport import campaign
from qteleport._streams import child_uniforms
from qteleport.campaign import run_campaign
from qteleport.config import load_config, random_coeffs
from qteleport.primitives import ChannelSpec
from qteleport.protocol import (
    InputStateSpec,
    _draw_count,
    _rng_from_seed,
    _run,
    _sample_runs,
    run_protocol,
    run_structured,
)
from qteleport.state import SizeGuardError

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
    monkeypatch.setattr(campaign, "SAMPLE_CHUNK_AMPLITUDES", 64)
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
    assert campaign.SAMPLE_CHUNK_AMPLITUDES // 2**7 < 130
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
