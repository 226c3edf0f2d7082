"""Acceptance gate: the nine release criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
Criteria 1 and 2 share one enumeration sweep (module-scoped fixture).
"""

import json
import time

import numpy as np
import pytest

import qteleport as qt
from qteleport._streams import child_uniforms
from qteleport.campaign import SAMPLE_CHUNK_AMPLITUDES, run_campaign, to_csv_text, to_json_text
from qteleport.config import load_config, random_coeffs
from qteleport.protocol import _draw_count, _sample_runs


def _line(index: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {index}: {name} ({detail})")
    assert ok, f"criterion {index} ({name}): {detail}"


@pytest.fixture(scope="module")
def formula_sweep():
    """24 random valid channels over d in {2,3,4}, m in {1,2}, n in {0,1,2}."""
    grid = [(d, m, n) for d in (2, 3, 4) for m in (1, 2) for n in (0, 1, 2)]
    specs = [grid[i % len(grid)] for i in range(24)]
    start = time.perf_counter()
    reports = []
    for i, (d, m, n) in enumerate(specs):
        chan = qt.ChannelSpec(d, n, m, random_coeffs(d, 1000 + 2 * i))
        inp = qt.InputStateSpec.random(d, m, 1001 + 2 * i)
        reports.append((chan, qt.enumerate_branches(inp, chan)))
    return reports, time.perf_counter() - start


def test_criterion_1_success_probability_formula(formula_sweep):
    reports, elapsed = formula_sweep
    worst = max(
        abs(r.success_probability - qt.theoretical_success_probability(c))
        for c, r in reports
    )
    worst_total = max(abs(r.total_probability - 1.0) for _, r in reports)
    ok = worst < 1e-9 and worst_total < 1e-9 and elapsed < 60.0
    _line(
        1,
        "enumerated success probability equals (min|c_j|^2)^m",
        ok,
        f"{len(reports)} channels, max |error| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_unit_fidelity_on_success(formula_sweep):
    reports, _ = formula_sweep
    worst = min(
        b.fidelity
        for _, r in reports
        for b in r.branches
        if b.aux == 0 and b.probability > 1e-12
    )
    _line(
        2,
        "every success branch reproduces the input state",
        worst >= 1.0 - 1e-9,
        f"min success fidelity {worst:.15f}",
    )


def test_criterion_3_maximally_entangled_degenerate_case():
    worst_op = 0.0
    worst_p = 0.0
    for d in (2, 3, 5):
        for m in (1, 2):
            chan = qt.ChannelSpec(d, 1, m, (1.0,) * d)
            delta = np.max(np.abs(qt.u_max_m(chan) - np.eye(2 * d**m)))
            worst_op = max(worst_op, float(delta))
            report = qt.enumerate_branches(qt.InputStateSpec.random(d, m, d + m), chan)
            worst_p = max(worst_p, abs(report.success_probability - 1.0))
    ok = worst_op < 1e-12 and worst_p < 1e-12
    _line(
        3,
        "uniform coefficients give identity extraction and certain success",
        ok,
        f"max |U - I| {worst_op:.2e}, max |P - 1| {worst_p:.2e}",
    )


def test_criterion_4_monte_carlo_consistency():
    d, m, n = 3, 1, 2
    chan = qt.ChannelSpec(d, n, m, (np.sqrt(1.5), np.sqrt(1.0), np.sqrt(0.5)))
    inp = qt.InputStateSpec.random(d, m, 404)
    trials = 100_000
    p = qt.theoretical_success_probability(chan)
    start = time.perf_counter()
    # Trial i runs on child i of SeedSequence(404), through the batched
    # sampler in the montecarlo campaign's chunks.
    chunk = SAMPLE_CHUNK_AMPLITUDES // max(d**m, d * d)
    batches = [
        _sample_runs(
            inp.state(), chan, child_uniforms(404, lo, min(lo + chunk, trials), _draw_count(chan))
        )
        for lo in range(0, trials, chunk)
    ]
    aux = np.concatenate([b.aux for b in batches])
    fidelity = np.concatenate([b.fidelity for b in batches])
    successes = int(np.sum(aux == 0))
    worst_fid = float(np.min(fidelity[aux == 0], initial=1.0))
    elapsed = time.perf_counter() - start
    # The batch's rows are the per-trial runs: the first 1,000 children.
    for child, a, f in zip(np.random.SeedSequence(404).spawn(1000), aux, fidelity):
        t = qt.run_structured(inp, chan, seed=child)
        assert (t.aux, t.fidelity) == (a, f)
    rate = successes / trials
    sigma = np.sqrt(p * (1 - p) / trials)
    ok = abs(rate - p) < 3 * sigma and worst_fid >= 1.0 - 1e-9 and elapsed < 120.0
    _line(
        4,
        "sampled success rate matches the closed form",
        ok,
        f"rate {rate:.5f} vs {p} ({abs(rate - p) / sigma:.2f} sigma), "
        f"min success fidelity {worst_fid:.12f}, {elapsed:.0f}s",
    )


def test_criterion_5_algebraic_primitive_suite():
    worst = 0.0
    for d in (2, 3, 4, 5, 6, 7):
        mat = qt.gbs_basis_matrix(d)
        worst = max(worst, float(np.max(np.abs(mat @ mat.conj().T - np.eye(d * d)))))
        worst = max(worst, float(np.max(np.abs(mat.conj().T @ mat - np.eye(d * d)))))
        xm = qt.x_basis_matrix(d)
        worst = max(worst, float(np.max(np.abs(np.abs(xm) ** 2 - 1.0 / d))))
        h = qt.hadamard_d(d)
        for r in range(d):
            worst = max(
                worst, float(np.max(np.abs(h[:, r] - qt.x_basis_vector(d, r).amps)))
            )
    for d in (2, 3, 4, 5):
        psi00 = qt.gbs_vector(d, 0, 0)
        for u in range(d):
            for v in range(d):
                op = qt.u_uv(d, u, v)
                delta = np.max(np.abs(op.conj().T @ op - np.eye(d)))
                worst = max(worst, float(delta))
                mapped = qt.apply(psi00, op, [1])
                worst = max(
                    worst, abs(1.0 - qt.fidelity(mapped, qt.gbs_vector(d, u, v)))
                )
    # Multi-copy correction factorizes into per-copy factors (up to one
    # global phase, which fidelity cannot see).
    for d, rhos, shifts in ((2, (1, 0), (1, 1)), (3, (2, 1), (1, 2)), (5, (3, 4), (4, 1))):
        direct = qt.multi_correction_unitary(d, rhos, shifts)
        factored = np.array([[1.0 + 0j]])
        for rho, s in zip(rhos, shifts):
            factored = np.kron(factored, qt.correction_unitary(d, rho, d - s))
        anchor = np.argmax(np.abs(direct))
        phase = factored.flat[anchor] / direct.flat[anchor]
        worst = max(worst, float(np.max(np.abs(direct * phase - factored))))
    _line(
        5,
        "Bell/Pauli/X-basis algebra and correction factorization",
        worst < 1e-12,
        f"max deviation {worst:.2e}",
    )


def test_criterion_6_structured_dense_equivalence():
    chan = qt.ChannelSpec(3, 2, 2, (np.sqrt(1.5), np.sqrt(1.0), np.sqrt(0.5)))
    inp = qt.InputStateSpec.random(3, 2, 6)
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(50):
        forced = qt.ForcedBranch(
            gbs=tuple((int(rng.integers(3)), int(rng.integers(3))) for _ in range(2)),
            controllers=tuple(
                tuple(int(rng.integers(3)) for _ in range(2)) for _ in range(2)
            ),
            aux=int(rng.integers(2)),
        )
        a = qt.run_protocol(inp, chan, forced=forced)
        b = qt.run_structured(inp, chan, forced=forced)
        worst = max(worst, abs(a.probability - b.probability), abs(a.fidelity - b.fidelity))

    big = qt.ChannelSpec(5, 4, 2, tuple(np.sqrt((1.5, 1.2, 1.0, 0.8, 0.5))))
    big_inp = qt.InputStateSpec.random(5, 2, 7)
    dense_rejected = False
    try:
        qt.run_protocol(big_inp, big, seed=0)
    except qt.SizeGuardError:
        dense_rejected = True
    structured_ok = qt.run_structured(big_inp, big, seed=0).aux in (0, 1)
    ok = worst < 1e-10 and dense_rejected and structured_ok
    _line(
        6,
        "execution paths agree; structured path scales past the dense guard",
        ok,
        f"max |delta| {worst:.2e} over 50 branches, "
        f"dense guard tripped={dense_rejected}, structured d=5 m=2 n=4 ran={structured_ok}",
    )


def test_criterion_7_decoy_detection():
    worst_sigma = 0.0
    for d in (2, 3, 5):
        report, _ = qt.detection_campaign(d, "random_basis_resend", 100_000, seed=70 + d)
        worst_sigma = max(worst_sigma, abs(report.z_score))
    clean, _ = qt.detection_campaign(3, "none", 100_000, seed=77)
    ok = worst_sigma < 3.0 and clean.detections == 0
    _line(
        7,
        "intercept-resend detection matches (1/2)(1 - 1/d)",
        ok,
        f"worst |z| {worst_sigma:.2f} over d in (2,3,5); "
        f"quiet channel detections {clean.detections}",
    )


def test_criterion_8_control_necessity():
    chan = qt.ChannelSpec(2, 1, 1, (1.0, 1.0))
    inp = qt.InputStateSpec(2, 1, [0.6, 0.8])
    value = qt.fidelity_without_control(inp, chan, {0})
    # Frozen regression constant from the enumeration oracle; equals
    # (1 + (|b_0|^2 - |b_1|^2)^2) / 2 for a qubit input.
    ok = abs(value - 0.5392) < 1e-10 and value < 0.999
    _line(
        8,
        "withholding the controller's outcome degrades fidelity",
        ok,
        f"mean success fidelity {value:.10f} (frozen 0.5392)",
    )


def test_criterion_9_deterministic_output():
    docs = [
        {
            "kind": "montecarlo", "d": 2, "m": 1, "n": 1,
            "coeffs": "random:9", "beta": "random:9",
            "trials": 200, "seed": 99,
        },
        {
            "kind": "enumerate", "d": 3, "m": 1, "n": 1,
            "coeffs": [1.224744871391589, 1.0, 0.7071067811865476],
            "beta": "random:3", "seed": 5,
        },
        {"kind": "decoy", "d": 3, "eve": "random_basis_resend", "trials": 500, "seed": 4},
        {"kind": "sweep", "sweep": {"d": [2, 3], "m": [1], "n": [0, 1]}, "trials": 4, "seed": 2},
    ]
    ok = True
    for doc in docs:
        a = run_campaign(load_config(dict(doc)))
        b = run_campaign(load_config(dict(doc)))
        if to_json_text(a) != to_json_text(b) or to_csv_text(a) != to_csv_text(b):
            ok = False
    # JSON emission must be parseable and round-stable too.
    parsed = json.loads(to_json_text(run_campaign(load_config(dict(docs[0])))))
    ok = ok and parsed["aggregate"]["trials"] == 200
    _line(
        9,
        "identical config and seed give byte-identical output",
        ok,
        f"{len(docs)} campaign kinds checked in both formats",
    )
