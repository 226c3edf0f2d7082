"""State-vector engine: construction, operators, measurement, guards."""

import numpy as np
import pytest

from qteleport.state import (
    SizeGuardError,
    StateVector,
    apply,
    branch_outcomes,
    fidelity,
    is_unitary,
    make_state,
    max_amplitudes,
    measure_in_basis,
    tensor,
)


def test_make_state_normalizes():
    st = make_state((2,), [3.0, 4.0])
    assert abs(st.norm() - 1.0) < 1e-15
    assert abs(st.amps[0] - 0.6) < 1e-15
    assert abs(st.amps[1] - 0.8) < 1e-15


def test_make_state_default_labels_and_lookup():
    st = make_state((2, 3), np.ones(6))
    assert st.labels == ("q0", "q1")
    assert st.index_of("q1") == 1
    st2 = make_state((2, 3), np.ones(6), labels=("a", "b"))
    assert st2.index_of("b") == 1


@pytest.mark.parametrize(
    "dims, amps, msg",
    [
        ((1, 2), [1, 0], "dimension"),
        ((2, 2), [1, 0, 0], "length"),
        ((2,), [0, 0], "zero"),
    ],
)
def test_make_state_rejects_bad_input(dims, amps, msg):
    with pytest.raises(ValueError, match=msg):
        make_state(dims, amps)


def test_make_state_rejects_label_mismatch():
    with pytest.raises(ValueError, match="labels"):
        make_state((2, 2), np.ones(4), labels=("only_one",))


def test_tensor_ordering_is_row_major():
    # |1> (x) |0> on qubits must put the amplitude at index 2 (binary 10).
    a = make_state((2,), [0, 1], labels=("hi",))
    b = make_state((2,), [1, 0], labels=("lo",))
    joint = tensor(a, b)
    assert joint.dims == (2, 2)
    assert joint.labels == ("hi", "lo")
    assert np.allclose(joint.amps, [0, 0, 1, 0])


def test_tensor_matches_kron_on_random_states():
    rng = np.random.default_rng(7)
    a = make_state((3,), rng.standard_normal(3) + 1j * rng.standard_normal(3))
    b = make_state((2, 2), rng.standard_normal(4) + 1j * rng.standard_normal(4))
    joint = tensor(a, b)
    assert np.allclose(joint.amps, np.kron(a.amps, b.amps), atol=1e-15)


def test_apply_single_target_matches_dense_kron():
    rng = np.random.default_rng(11)
    st = make_state((2, 3, 2), rng.standard_normal(12) + 1j * rng.standard_normal(12))
    # Random unitary on the middle qutrit via QR.
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    got = apply(st, q, [1])
    want = np.kron(np.kron(np.eye(2), q), np.eye(2)) @ st.amps
    assert np.max(np.abs(got.amps - want)) < 1e-14


def test_apply_respects_target_order():
    rng = np.random.default_rng(13)
    st = make_state((2, 2), rng.standard_normal(4) + 1j * rng.standard_normal(4))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    forward = apply(st, q, [0, 1])
    # Applying on swapped targets must equal conjugation by SWAP.
    swap = np.zeros((4, 4))
    for a in range(2):
        for b in range(2):
            swap[a * 2 + b, b * 2 + a] = 1.0
    swapped = apply(st, swap @ q @ swap, [1, 0])
    assert np.max(np.abs(forward.amps - swapped.amps)) < 1e-14


def test_apply_validates_operator_shape_and_targets():
    st = make_state((2, 3), np.ones(6))
    with pytest.raises(ValueError, match="shape"):
        apply(st, np.eye(2), [1])
    with pytest.raises(ValueError, match="repeated"):
        apply(st, np.eye(4), [0, 0])
    with pytest.raises(ValueError, match="range"):
        apply(st, np.eye(3), [5])


def test_repeated_application_keeps_norm():
    rng = np.random.default_rng(17)
    st = make_state((2, 2, 2), rng.standard_normal(8) + 1j * rng.standard_normal(8))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    assert is_unitary(q)
    for i in range(1000):
        st = apply(st, q, [i % 3])
    assert abs(st.norm() - 1.0) < 1e-10


def test_is_unitary_rejects_nonunitary():
    assert not is_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert not is_unitary(np.ones((2, 3)))
    assert is_unitary(np.eye(5))


def test_branch_outcomes_bell_pair():
    bell = make_state((2, 2), [1, 0, 0, 1])
    outs = branch_outcomes(bell, [0], np.eye(2))
    assert [o.value for o in outs] == [0, 1]
    for o in outs:
        assert abs(o.probability - 0.5) < 1e-15
    # Measuring qubit 0 as k collapses qubit 1 to |k>.
    assert np.allclose(outs[0].post_state.amps, [1, 0])
    assert np.allclose(outs[1].post_state.amps, [0, 1])
    assert outs[0].post_state.dims == (2,)


def test_branch_probabilities_complete():
    rng = np.random.default_rng(23)
    st = make_state((3, 2, 2), rng.standard_normal(12) + 1j * rng.standard_normal(12))
    outs = branch_outcomes(st, [0, 2], np.eye(6))
    assert abs(sum(o.probability for o in outs) - 1.0) < 1e-12


def test_zero_probability_branch_has_no_post_state():
    st = make_state((2,), [1, 0])
    outs = branch_outcomes(st, [0], np.eye(2))
    assert outs[1].probability == 0.0
    assert outs[1].post_state is None


def test_measurement_reconstructs_state():
    # Sum over branches of p_k |k><k| (x) |post_k> rebuilds the state
    # up to the branch phases fixed by the projection itself.
    rng = np.random.default_rng(29)
    st = make_state((2, 3), rng.standard_normal(6) + 1j * rng.standard_normal(6))
    rebuilt = np.zeros(6, dtype=complex)
    for o in branch_outcomes(st, [0], np.eye(2)):
        ket = np.zeros(2)
        ket[o.value] = 1.0
        rebuilt += np.sqrt(o.probability) * np.kron(ket, o.post_state.amps)
    assert np.max(np.abs(rebuilt - st.amps)) < 1e-12


def test_measure_forced_outcome():
    bell = make_state((2, 2), [1, 0, 0, 1])
    out = measure_in_basis(bell, [1], np.eye(2), forced_outcome=1)
    assert out.value == 1
    assert abs(out.probability - 0.5) < 1e-15
    assert np.allclose(out.post_state.amps, [0, 1])


def test_measure_forced_rejects_impossible_branch():
    st = make_state((2,), [1, 0])
    with pytest.raises(ValueError, match="negligible"):
        measure_in_basis(st, [0], np.eye(2), forced_outcome=1)
    with pytest.raises(ValueError, match="out of range"):
        measure_in_basis(st, [0], np.eye(2), forced_outcome=2)


def test_measure_requires_rng_or_forced():
    st = make_state((2,), [1, 0])
    with pytest.raises(ValueError, match="rng or forced"):
        measure_in_basis(st, [0], np.eye(2))


def test_measure_sampled_frequencies():
    st = make_state((2,), [np.sqrt(0.8), np.sqrt(0.2)])
    rng = np.random.default_rng(31)
    ones = sum(measure_in_basis(st, [0], np.eye(2), rng).value for _ in range(4000))
    # 5 sigma band around p = 0.2.
    sigma = np.sqrt(0.2 * 0.8 / 4000)
    assert abs(ones / 4000 - 0.2) < 5 * sigma


def test_measure_sampling_is_seed_deterministic():
    rng = np.random.default_rng(37)
    st = make_state((3,), rng.standard_normal(3) + 1j * rng.standard_normal(3))
    a = [
        measure_in_basis(st, [0], np.eye(3), np.random.default_rng(99)).value
        for _ in range(20)
    ]
    b = [
        measure_in_basis(st, [0], np.eye(3), np.random.default_rng(99)).value
        for _ in range(20)
    ]
    assert a == b


def test_basis_validation():
    st = make_state((2,), [1, 0])
    with pytest.raises(ValueError, match="orthonormal"):
        measure_in_basis(st, [0], np.array([[1.0, 0.0], [1.0, 0.0]]), forced_outcome=0)
    with pytest.raises(ValueError, match="complete"):
        measure_in_basis(st, [0], np.eye(3), forced_outcome=0)


def test_fidelity_global_phase_invariant():
    rng = np.random.default_rng(41)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = make_state((2, 2), amps)
    b = make_state((2, 2), np.exp(0.7j) * amps)
    assert abs(fidelity(a, b) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="dims"):
        fidelity(a, make_state((4,), amps))


def test_size_guard_env_override(monkeypatch):
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "8")
    assert max_amplitudes() == 8
    make_state((2, 2, 2), np.ones(8))  # exactly at the limit
    with pytest.raises(SizeGuardError, match="size guard"):
        make_state((2, 2, 2, 2), np.ones(16))
    with pytest.raises(SizeGuardError):
        tensor(make_state((2, 2), np.ones(4)), make_state((2, 2), np.ones(4)))


@pytest.mark.parametrize("value", ["abc", "", "0", "-1", "2.5"])
def test_size_guard_env_rejects_non_positive_integers(monkeypatch, value):
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", value)
    with pytest.raises(ValueError, match="QTELEPORT_MAX_AMPLITUDES"):
        max_amplitudes()


def test_state_vector_is_immutable():
    st = make_state((2,), [1, 0])
    with pytest.raises(AttributeError):
        st.dims = (3,)
