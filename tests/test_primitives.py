"""Named states and unitaries: Bell family, Pauli family, extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qteleport.primitives import (
    ChannelSpec,
    channel_state,
    correction_unitary,
    gbs_basis,
    gbs_basis_matrix,
    gbs_vector,
    hadamard_d,
    multi_correction_unitary,
    u_max,
    u_max_m,
    u_uv,
    x_basis_matrix,
    x_basis_vector,
)
from qteleport.protocol import theoretical_success_probability
from qteleport.state import apply, fidelity, is_unitary, make_state


def test_gbs_explicit_amplitudes_d3():
    # |psi_12> = (1/sqrt 3)(|0,2> + w|1,0> + w^2|2,1>), w = exp(2 pi i/3).
    w = np.exp(2j * np.pi / 3)
    want = np.zeros(9, dtype=complex)
    want[2] = 1.0
    want[3] = w
    want[7] = w * w
    got = gbs_vector(3, 1, 2).amps
    assert np.max(np.abs(got - want / np.sqrt(3))) < 1e-15


def test_gbs_qubit_case_reduces_to_bell_pairs():
    assert np.allclose(gbs_vector(2, 0, 0).amps, [1, 0, 0, 1] / np.sqrt(2))
    assert np.allclose(gbs_vector(2, 1, 1).amps, [0, 1, -1, 0] / np.sqrt(2))


def test_gbs_orthonormal_and_complete():
    for d in (2, 3, 5, 7):
        mat = gbs_basis_matrix(d)
        assert mat.shape == (d * d, d * d)
        gram = mat @ mat.conj().T
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-12
    # Completeness: resolution of identity from the stacked kets (d = 5).
    mat = gbs_basis_matrix(5)
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(25))) < 1e-12


def test_gbs_rejects_out_of_range():
    with pytest.raises(ValueError):
        gbs_vector(3, 3, 0)
    with pytest.raises(ValueError):
        gbs_vector(3, 0, -1)


def test_pauli_family_unitary_and_maps_psi00():
    for d in (2, 3, 5):
        psi00 = gbs_vector(d, 0, 0)
        for u in range(d):
            for v in range(d):
                op = u_uv(d, u, v)
                assert is_unitary(op, 1e-12)
                mapped = apply(psi00, op, [1])
                assert abs(fidelity(mapped, gbs_vector(d, u, v)) - 1.0) < 1e-12


def test_pauli_qubit_special_cases():
    assert np.allclose(u_uv(2, 0, 1), [[0, 1], [1, 0]])  # X
    assert np.allclose(u_uv(2, 1, 0), [[1, 0], [0, -1]])  # Z


def test_x_basis_explicit_d3():
    w = np.exp(2j * np.pi / 3)
    want = np.array([1, w, w * w]) / np.sqrt(3)
    assert np.max(np.abs(x_basis_vector(3, 1).amps - want)) < 1e-15


def test_x_basis_mutually_unbiased_with_computational():
    for d in (2, 3, 5, 7):
        for r in range(d):
            ket = x_basis_vector(d, r).amps
            assert np.max(np.abs(np.abs(ket) ** 2 - 1.0 / d)) < 1e-12
        mat = x_basis_matrix(d)
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(d))) < 1e-12


def test_hadamard_columns_are_x_basis_kets():
    for d in (2, 3, 5, 7):
        h = hadamard_d(d)
        assert is_unitary(h, 1e-12)
        for r in range(d):
            assert np.max(np.abs(h[:, r] - x_basis_vector(d, r).amps)) < 1e-12


def test_channel_spec_validates():
    ChannelSpec(2, 1, 1, (np.sqrt(1.5), np.sqrt(0.5)))
    with pytest.raises(ValueError, match="sum"):
        ChannelSpec(2, 1, 1, (1.0, 1.5))
    with pytest.raises(ValueError, match="zero"):
        ChannelSpec(2, 1, 1, (np.sqrt(2.0), 0.0))
    with pytest.raises(ValueError, match="need exactly d = 3 entries"):
        ChannelSpec(3, 1, 1, (1.0, 1.0))
    with pytest.raises(ValueError, match="d must"):
        ChannelSpec(1, 0, 1, (1.0,))
    with pytest.raises(ValueError, match="m must"):
        ChannelSpec(2, 0, 0, (1.0, 1.0))
    with pytest.raises(ValueError, match="n must"):
        ChannelSpec(2, -1, 1, (1.0, 1.0))


def test_channel_spec_min_weight_and_tie_break():
    spec = ChannelSpec(3, 0, 1, (np.sqrt(1.2), np.sqrt(0.9), np.sqrt(0.9)))
    assert spec.k_min == 1  # tie between indices 1 and 2 goes low
    assert abs(spec.min_weight - 0.9) < 1e-12


def test_channel_state_uniform_is_ghz():
    spec = ChannelSpec(2, 1, 1, (1.0, 1.0))
    st = channel_state(spec)
    assert st.dims == (2, 2, 2)
    want = np.zeros(8)
    want[0] = want[7] = 1 / np.sqrt(2)
    assert np.max(np.abs(st.amps - want)) < 1e-15


def test_channel_state_weighted_amplitudes():
    spec = ChannelSpec(2, 1, 1, (np.sqrt(1.5), np.sqrt(0.5)))
    st = channel_state(spec)
    assert abs(st.amps[0] - np.sqrt(0.75)) < 1e-15
    assert abs(st.amps[7] - np.sqrt(0.25)) < 1e-15
    assert abs(st.norm() - 1.0) < 1e-15


def test_channel_state_no_controllers():
    spec = ChannelSpec(3, 0, 1, (1.0, 1.0, 1.0))
    st = channel_state(spec)
    assert st.dims == (3, 3)
    assert abs(st.amps[0] - 1 / np.sqrt(3)) < 1e-15
    assert abs(st.amps[4] - 1 / np.sqrt(3)) < 1e-15
    assert abs(st.amps[8] - 1 / np.sqrt(3)) < 1e-15


def test_extraction_single_copy_entries():
    # Gamma_0 = |c_min| / |c_0| = sqrt(0.5 / 1.5) = 1/sqrt 3.
    spec = ChannelSpec(2, 1, 1, (np.sqrt(1.5), np.sqrt(0.5)))
    op = u_max(spec)
    assert op.shape == (4, 4)
    assert abs(op[0, 0] - 1 / np.sqrt(3)) < 1e-12
    assert abs(op[1, 1] - 1.0) < 1e-12  # the minimal index passes untouched
    assert abs(op[2, 0] - np.sqrt(1 - 1 / 3)) < 1e-12
    assert is_unitary(op, 1e-12)


def test_extraction_multi_copy_gamma_products():
    # Two copies: Gamma_(0,0) = |c_1|^2 / |c_0|^2 = 0.5 / 1.5 = 1/3.
    spec = ChannelSpec(2, 1, 2, (np.sqrt(1.5), np.sqrt(0.5)))
    op = u_max_m(spec)
    assert op.shape == (8, 8)
    assert abs(op[0, 0] - 1 / 3) < 1e-12
    assert abs(op[3, 3] - 1.0) < 1e-12  # index (1, 1) saturates
    assert is_unitary(op, 1e-12)


def test_extraction_m1_alias():
    spec = ChannelSpec(3, 2, 2, (np.sqrt(1.2), np.sqrt(0.9), np.sqrt(0.9)))
    single = ChannelSpec(3, 2, 1, spec.coeffs)
    assert np.array_equal(u_max(spec), u_max_m(single))


def test_extraction_identity_for_uniform_coefficients():
    for d, m in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)):
        spec = ChannelSpec(d, 1, m, (1.0,) * d)
        assert np.max(np.abs(u_max_m(spec) - np.eye(2 * d**m))) < 1e-12


def test_extraction_unitary_for_complex_coefficients():
    rng = np.random.default_rng(3)
    for d, m in ((2, 1), (3, 2), (4, 1)):
        weights = rng.uniform(0.3, 1.7, size=d)
        weights *= d / weights.sum()
        coeffs = np.sqrt(weights) * np.exp(2j * np.pi * rng.random(d))
        spec = ChannelSpec(d, 0, m, tuple(coeffs))
        assert is_unitary(u_max_m(spec), 1e-12)


def test_correction_unitary_reduces_mod_d():
    assert np.allclose(correction_unitary(3, 4, 5), u_uv(3, 1, 2))
    assert is_unitary(correction_unitary(5, 7, 9), 1e-12)


def test_multi_correction_factorizes_up_to_global_phase():
    cases = [
        (2, (1, 0), (1, 1)),
        (3, (2, 1), (1, 2)),
        (3, (0, 0), (0, 0)),
        (5, (3,), (4,)),
    ]
    for d, rhos, shifts in cases:
        direct = multi_correction_unitary(d, rhos, shifts)
        factored = np.array([[1.0 + 0j]])
        for rho, s in zip(rhos, shifts):
            factored = np.kron(factored, correction_unitary(d, rho, d - s))
        anchor = np.argmax(np.abs(direct))
        phase = factored.flat[anchor] / direct.flat[anchor]
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.max(np.abs(direct * phase - factored)) < 1e-12
        assert is_unitary(direct, 1e-12)


def test_multi_correction_validates_lengths():
    with pytest.raises(ValueError, match="equal length"):
        multi_correction_unitary(3, (1, 2), (0,))


def test_gbs_basis_list_matches_matrix():
    vecs = gbs_basis(3)
    assert len(vecs) == 9
    mat = gbs_basis_matrix(3)
    for k, v in enumerate(vecs):
        assert np.max(np.abs(mat[k] - v.amps)) < 1e-15


# The bases as they were built before the one-pass matrices: one state at
# a time, each normalized by make_state, then stacked.  The reference for
# the matrices' bits.
def _phases(d, k):
    return np.exp(2j * np.pi * k * np.arange(d) / d)


def _gbs_state_at_a_time(d, r, s):
    amps = np.zeros(d * d, dtype=complex)
    j = np.arange(d)
    amps[j * d + (j + s) % d] = _phases(d, r)
    return make_state((d, d), amps / np.sqrt(d)).amps


def _x_state_at_a_time(d, r):
    return make_state((d,), _phases(d, r) / np.sqrt(d)).amps


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# Every d to 32, then two larger: d = 64 alone takes about a second.
@pytest.mark.parametrize("d", [*range(2, 33), 48, 64])
def test_gbs_basis_matrix_has_the_bits_of_one_state_at_a_time(d):
    mat = gbs_basis_matrix.__wrapped__(d)  # uncached: d = 64 holds 2^24 entries
    assert not mat.flags.writeable
    for r in range(d):
        rows = np.vstack([_gbs_state_at_a_time(d, r, s) for s in range(d)])
        assert _same_bits(mat[r * d : (r + 1) * d], rows), r
    assert _same_bits(mat[d + 1], gbs_vector(d, 1, 1).amps)


@pytest.mark.parametrize("d", [*range(2, 65), 128, 255, 256, 511])
def test_x_basis_matrix_has_the_bits_of_one_state_at_a_time(d):
    mat = x_basis_matrix.__wrapped__(d)
    assert not mat.flags.writeable
    assert _same_bits(mat, np.vstack([_x_state_at_a_time(d, r) for r in range(d)]))
    assert _same_bits(mat[d - 1], x_basis_vector(d, d - 1).amps)


@settings(max_examples=50, deadline=None)
@given(
    weights=st.lists(st.floats(1e-6, 2.0), min_size=2, max_size=9),
    phases=st.lists(st.floats(-np.pi, np.pi), min_size=9, max_size=9),
    m=st.integers(1, 4),
)
def test_min_weight_and_k_min_are_the_numpy_expressions(weights, phases, m):
    # Python's abs(complex) differs from np.abs in the last bit for about
    # a third of complex inputs, so the weights must stay numpy's.
    d = len(weights)
    weights = np.array(weights) * d / sum(weights)
    coeffs = np.sqrt(weights) * np.exp(1j * np.array(phases[:d]))
    spec = ChannelSpec(d, 0, m, tuple(coeffs))
    mods2 = np.abs(np.asarray(spec.coeffs)) ** 2
    assert spec.k_min == int(np.argmin(mods2))
    assert spec.min_weight.hex() == float(np.min(mods2)).hex()
    assert theoretical_success_probability(spec).hex() == (float(np.min(mods2)) ** m).hex()
