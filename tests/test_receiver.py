"""The receiver's closed forms against the dense reference matrices.

The closed forms apply the extraction U_max^m as d^m independent 2x2
rotations and never apply the correction: they score the receiver
against the input pulled back through the correction (a shift plus a
phase per copy).  run_protocol, the dense reference, applies u_max_m
and correction_unitary with the state engine.  These properties check
forced runs of both entry points and the enumeration's reference rows
against those dense operators, over d in 2..5, m in 1..3, n in 0..2,
real and complex-phase channels and random inputs.  The enumeration
oracle's records are checked against forced runs of the dense reference
path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_reference import dense_extract
from test_edges import edge_coefficients

from qteleport import protocol
from qteleport.config import random_coeffs
from qteleport.primitives import (
    ChannelSpec,
    channel_state,
    correction_unitary,
    gbs_basis_matrix,
    u_max_m,
    x_basis_matrix,
)
from qteleport.protocol import (
    ForcedBranch,
    InputStateSpec,
    _branch_count,
    _omega_table,
    _pullback,
    enumerate_branches,
    run_protocol,
    run_structured,
)
from qteleport.state import (
    StateVector,
    apply,
    branch_outcomes,
    fidelity,
    measure_in_basis,
    tensor,
)

SETTINGS = settings(max_examples=40, deadline=None)
TOL = 1e-12


@st.composite
def channels(draw, max_amplitudes=4096, parties=1):
    """A channel whose d^(m * (n + parties)) register stays small."""
    d = draw(st.integers(2, 5))
    fits = [m for m in (2, 3) if d ** (m * parties) <= max_amplitudes]
    m = draw(st.integers(1, max(fits, default=1)))
    fits = [n for n in (1, 2) if d ** (m * (n + parties)) <= max_amplitudes]
    n = draw(st.integers(0, max(fits, default=0)))
    return ChannelSpec(d, n, m, draw(coefficients(d)))


@st.composite
def coefficients(draw, d):
    """Channel coefficients: equal weights or test_edges' edge weights,
    real or complex phases."""
    real = draw(st.booleans())
    if draw(st.booleans()):
        return draw(edge_coefficients(d, real))
    if real:
        return (1.0,) * d
    phases = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=d, max_size=d)))
    return tuple(np.exp(1j * phases))


# (d, m, n) with at most ~5k branches; several have m * n >= 2, so the
# order of the controller axes matters.
ORACLE_SHAPES = [
    (d, m, n)
    for d in (2, 3, 4)
    for m in (1, 2)
    for n in (0, 1, 2)
    if d ** (2 * m + n * m) * 2 <= 5000
]


@st.composite
def oracle_channels(draw):
    d, m, n = draw(st.sampled_from(ORACLE_SHAPES))
    return ChannelSpec(d, n, m, draw(coefficients(d)))


def _outcomes(d, m, seed):
    rng = np.random.default_rng(seed)
    gbs = [(int(rng.integers(d)), int(rng.integers(d))) for _ in range(m)]
    return gbs, rng


def _dense_correction(d, coeffs, r, rho, s):
    """U_{r+rho, d-s} diag(e^{-i phi}), as the dense path built it."""
    phase_fix = np.diag(np.exp(-1j * np.angle(np.asarray(coeffs))))
    return correction_unitary(d, r + rho, d - s) @ phase_fix


def _dense_branches(inp, spec, gbs, controllers):
    """(aux, probability, fidelity) of each live aux outcome, densely.

    The sender's and controllers' forced measurements on the full
    register, then: tensor in |0>_aux, apply u_max_m, project the aux
    and, on success, apply the _dense_correction loop to the receiver.
    """
    d = spec.d
    state = inp.state()
    for l in range(1, spec.m + 1):
        labels = tuple(f"a_{k}_{l}" for k in range(spec.n + 2))
        state = tensor(state, channel_state(spec, labels=labels))
    probability = 1.0
    for l, ((r, s), ctrl) in enumerate(zip(gbs, controllers), start=1):
        pair = [state.index_of(f"chi_{l}"), state.index_of(f"a_0_{l}")]
        out = measure_in_basis(state, pair, gbs_basis_matrix(d), forced_outcome=r * d + s)
        probability *= out.probability
        for q, x in enumerate(ctrl, start=1):
            target = [out.post_state.index_of(f"a_{q}_{l}")]
            out = measure_in_basis(out.post_state, target, x_basis_matrix(d), forced_outcome=x)
            probability *= out.probability
        state = out.post_state
    joint = dense_extract(state, spec)
    results = []
    for out in branch_outcomes(joint, [joint.index_of("aux")], np.eye(2)):
        if out.probability < 1e-12:
            continue  # forcing it may hit the 1e-15 floor
        receiver = out.post_state
        if out.value == 0:
            for l, ((r, s), ctrl) in enumerate(zip(gbs, controllers)):
                comp = _dense_correction(d, spec.coeffs, r, sum(ctrl) % d, s)
                receiver = apply(receiver, comp, [l])
        relabelled = StateVector(receiver.dims, receiver.amps, inp.state().labels)
        results.append(
            (out.value, probability * out.probability, fidelity(relabelled, inp.state()))
        )
    return results


@SETTINGS
@given(spec=channels(max_amplitudes=2**12, parties=3), seed=st.integers(0, 2**32 - 1))
def test_forced_runs_match_dense_correction(spec, seed):
    d, m = spec.d, spec.m
    inp = InputStateSpec.random(d, m, seed)
    gbs, rng = _outcomes(d, m, seed)
    controllers = tuple(
        tuple(int(x) for x in rng.integers(d, size=spec.n)) for _ in range(m)
    )
    dense = _dense_branches(inp, spec, gbs, controllers)
    weights = np.abs(spec.coeffs) ** 2
    if (weights.min() / weights.max()) ** m >= 1e-12:
        # Success's share is a mean of gamma_J^2 >= (min/max)^m: not skipped.
        assert 0 in [aux for aux, _, _ in dense]
    for aux, probability, fid in dense:
        forced = ForcedBranch(tuple(gbs), controllers, aux)
        for run in (run_protocol, run_structured):
            t = run(inp, spec, forced=forced)
            assert t.success == (aux == 0)
            assert abs(t.probability - probability) < TOL
            assert abs(t.fidelity - fid) < TOL
            if aux == 0:
                assert t.fidelity > 1 - 1e-9


@SETTINGS
@given(spec=channels(), seed=st.integers(0, 2**32 - 1))
def test_reference_table_matches_correction_unitary_loop(spec, seed):
    d, m = spec.d, spec.m
    gbs, _ = _outcomes(d, m, seed)
    input_state = InputStateSpec.random(d, m, seed).state()
    table = _omega_table(d, m) * _pullback(input_state, spec, gbs)
    assert table.shape == (d**m, d**m)
    for widx in range(d**m):
        ref = input_state
        rho_digits = np.unravel_index(widx, (d,) * m)
        for l, ((r, s), rho) in enumerate(zip(gbs, rho_digits)):
            comp = _dense_correction(d, spec.coeffs, r, rho, s)
            ref = apply(ref, comp.conj().T, [l])
        assert np.max(np.abs(table[widx] - ref.amps)) < TOL


@settings(max_examples=15, deadline=None)
@given(spec=channels(max_amplitudes=2**12, parties=3), seed=st.integers(0, 2**32 - 1))
def test_structured_and_dense_transcripts_agree(spec, seed):
    inp = InputStateSpec.random(spec.d, spec.m, seed)
    for run_seed in range(seed, seed + 3):
        a = run_protocol(inp, spec, seed=run_seed)
        b = run_structured(inp, spec, seed=run_seed)
        assert (a.gbs, a.controllers, a.r_sums, a.aux) == (b.gbs, b.controllers, b.r_sums, b.aux)
        assert abs(a.probability - b.probability) < 1e-10
        assert abs(a.fidelity - b.fidelity) < 1e-10
        if a.success:
            assert a.fidelity > 1 - 1e-9


@settings(max_examples=25, deadline=None)
@given(spec=oracle_channels(), seed=st.integers(0, 2**32 - 1))
def test_oracle_records_match_forced_dense_runs(spec, seed):
    inp = InputStateSpec.random(spec.d, spec.m, seed)
    report = enumerate_branches(inp, spec)
    assert len(report.branches) == _branch_count(spec)
    rng = np.random.default_rng(seed)
    for aux in (0, 1):
        # Near-empty leaves are skipped: forcing one may hit the 1e-15 floor.
        live = [b for b in report.branches if b.aux == aux and b.probability > 1e-12]
        for i in rng.choice(len(live), size=min(3, len(live)), replace=False):
            rec = live[i]
            t = run_protocol(inp, spec, forced=ForcedBranch(rec.gbs, rec.controllers, aux))
            assert abs(t.probability - rec.probability) < 1e-12
            assert abs(t.fidelity - rec.fidelity) < 1e-9


def test_campaign_paths_build_no_dense_operator():
    before = u_max_m.cache_info().misses
    for d, n, m, seed in ((2, 0, 3, 901), (3, 1, 2, 902), (4, 2, 1, 903)):
        spec = ChannelSpec(d, n, m, random_coeffs(d, seed))
        inp = InputStateSpec.random(d, m, seed)
        for run_seed in range(5):
            run_structured(inp, spec, seed=run_seed)
        enumerate_branches(inp, spec)
    assert u_max_m.cache_info().misses == before


def test_dense_reference_applies_u_max_m(monkeypatch):
    built = []

    def recorded(spec):
        built.append(spec)
        return u_max_m(spec)

    monkeypatch.setattr(protocol, "u_max_m", recorded)
    for d, n, m, seed in ((2, 0, 3, 904), (3, 1, 2, 905)):
        spec = ChannelSpec(d, n, m, random_coeffs(d, seed))
        inp = InputStateSpec.random(d, m, seed)
        run_protocol(inp, spec, forced=ForcedBranch(((0, 0),) * m, ((0,) * n,) * m, 0))
        run_protocol(inp, spec, seed=seed)
        assert built == [spec, spec]
        built.clear()


def test_cached_matrices_are_read_only():
    spec = ChannelSpec(3, 1, 1, random_coeffs(3, 5))
    for mat in (gbs_basis_matrix(3), x_basis_matrix(3), u_max_m(spec)):
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] = 0.0
    assert abs(gbs_basis_matrix(3)[0, 0] - 1 / np.sqrt(3)) < 1e-15


def test_channel_state_cache_is_bounded():
    maxsize = channel_state.cache_parameters()["maxsize"]
    assert maxsize is not None and maxsize >= 128


def test_dimension_caches_are_bounded():
    from qteleport.decoy import _cross_tables

    by_dimension = (gbs_basis_matrix, x_basis_matrix, _cross_tables)
    for d in range(2, 22):
        for cached in by_dimension:
            cached(d)
        u_max_m(ChannelSpec(d, 0, 1, (1.0,) * d))
    for cached in by_dimension + (u_max_m,):
        maxsize = cached.cache_parameters()["maxsize"]
        assert maxsize is not None
        assert cached.cache_info().currsize <= maxsize
