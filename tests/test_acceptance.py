"""Acceptance gate: the nine release criteria, measured by qteleport.selftest at the
release sizes, seeds and bounds written here.  Run `pytest -s tests/test_acceptance.py`
to see one pass/fail line per criterion."""

import json

import pytest

from qteleport import selftest


def _line(index: int, name: str, ok: bool, measured: selftest.Measurement) -> None:
    detail = f"{measured.detail}, {measured.seconds:.2f}s"
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {index}: {name} ({detail})")
    assert ok, f"criterion {index} ({name}): {detail}"


@pytest.fixture(scope="module")
def formula_sweep():
    """24 random valid channels over d in {2,3,4}, m in {1,2}, n in {0,1,2}."""
    return selftest.formula_sweep(24)


def test_criterion_1_success_probability_formula(formula_sweep):
    v = formula_sweep.values
    ok = v["error"] < 1e-9 and v["total_error"] < 1e-9 and formula_sweep.seconds < 60.0
    _line(1, "enumerated success probability equals (min|c_j|^2)^m", ok, formula_sweep)


def test_criterion_2_unit_fidelity_on_success(formula_sweep):
    ok = formula_sweep.values["min_fidelity"] >= 1.0 - 1e-9
    _line(2, "every success branch reproduces the input state", ok, formula_sweep)


def test_criterion_3_maximally_entangled_degenerate_case():
    m = selftest.degenerate_case((2, 3, 5), (1, 2))
    ok = max(m.values["identity"], m.values["probability"], m.values["unitarity"]) < 1e-12
    _line(3, "uniform coefficients give identity extraction and certain success", ok, m)


def test_criterion_4_monte_carlo_consistency():
    m = selftest.monte_carlo_consistency(100_000, 1000)  # the first 1,000 trials replayed
    v = m.values
    ok = v["z"] < 3.0 and v["min_fidelity"] >= 1.0 - 1e-9 and m.seconds < 120.0
    ok = ok and v["replay_misses"] == v["loop_misses"] == 0 and v["loop_error"] < 1e-10
    _line(4, "sampled success rate matches the closed form", ok, m)


def test_criterion_5_algebraic_primitive_suite():
    m = selftest.algebraic_primitives()
    ok = m.values["deviation"] < 1e-12
    _line(5, "Bell/Pauli/X-basis algebra and correction factorization", ok, m)


def test_criterion_6_structured_dense_equivalence():
    m = selftest.structured_dense_equivalence(50)
    ok = m.values["delta"] < 1e-10 and m.values["guarded"] and m.values["ran"]
    _line(6, "execution paths agree; structured path scales past the dense guard", ok, m)


def test_criterion_7_decoy_detection():
    m = selftest.decoy_detection(100_000)
    ok = m.values["z"] < 3.0 and m.values["quiet"] == 0
    _line(7, "intercept-resend detection matches (1/2)(1 - 1/d)", ok, m)


def test_criterion_8_control_necessity():
    m = selftest.control_necessity()
    # Frozen regression constant from the enumeration oracle; equals
    # (1 + (|b_0|^2 - |b_1|^2)^2) / 2 for a qubit input.
    ok = abs(m.values["fidelity"] - 0.5392) < 1e-10 and m.values["fidelity"] < 0.999
    _line(8, "withholding the controller's outcome degrades fidelity (frozen 0.5392)", ok, m)


def test_criterion_9_deterministic_output():
    m = selftest.deterministic_output()
    ok = m.values["identical"] and json.loads(m.values["json"])["aggregate"]["trials"] == 200
    _line(9, "identical config and seed give byte-identical output", ok, m)
