"""The nine release criteria as measuring functions (criteria 1 and 2
share one oracle sweep), each run at the sizes it is given: small by
CHECKS, the `qteleport selftest` battery, and at the release sizes and
bounds by tests/test_acceptance.py."""

from __future__ import annotations

import functools
import json
import time
from typing import NamedTuple

import numpy as np

from . import primitives as prim
from .campaign import run_campaign, to_csv_text, to_json_text
from .config import load_config, random_coeffs
from .decoy import detection_campaign
from .protocol import (
    ForcedBranch, InputStateSpec, _sample_trials, enumerate_branches,
    fidelity_without_control, run_protocol, run_structured, theoretical_success_probability,
)
from .state import SizeGuardError, apply, fidelity


class Measurement(NamedTuple):
    values: dict
    detail: str
    seconds: float

    def judged(self, passes) -> tuple[bool, str]:
        """(passes(values), the detail and time a FAIL line carries)."""
        return bool(passes(self.values)), f"{self.detail} ({self.seconds:.3f}s)"


def _measured(measure):
    """measure(*sizes) -> (detail template, values) becomes a timed Measurement."""
    @functools.wraps(measure)
    def timed(*sizes) -> Measurement:
        start = time.perf_counter()
        template, values = measure(*sizes)
        return Measurement(values, template.format(**values), time.perf_counter() - start)
    return timed


def _deviation(a, b=0.0) -> float:
    return float(np.max(np.abs(a - b)))


def _unitarity(op: np.ndarray) -> float:
    return _deviation(op.conj().T @ op, np.eye(len(op)))


@_measured
def formula_sweep(channels: int):
    """Criteria 1 and 2: the oracle against (min|c_j|^2)^m, and its success leaves."""
    grid = [(d, m, n) for d in (2, 3, 4) for m in (1, 2) for n in (0, 1, 2)]
    error, total_error, worst_fid = 0.0, 0.0, 1.0
    for i in range(channels):
        d, m, n = grid[i % len(grid)]
        chan = prim.ChannelSpec(d, n, m, random_coeffs(d, 1000 + 2 * i))
        report = enumerate_branches(InputStateSpec.random(d, m, 1001 + 2 * i), chan)
        error = max(error, abs(report.success_probability - theoretical_success_probability(chan)))
        total_error = max(total_error, abs(report.total_probability - 1.0))
        # Success leaves (aux = 0) sit at even positions of the branch arrays.
        leaves = report.branches
        worst_fid = min(worst_fid, leaves.fidelity[0::2][leaves.probability[0::2] > 1e-12].min())
    return (
        "{channels} channels, max |error| {error:.2e}, max |total - 1| {total_error:.2e}, "
        "min success fidelity {min_fidelity:.15f}",
        dict(channels=channels, error=error, total_error=total_error, min_fidelity=worst_fid),
    )


@_measured
def degenerate_case(dims: tuple, copies: tuple):
    """Criterion 3: uniform coefficients give U = I and P = 1; random ones a unitary U."""
    worst_op = worst_p = 0.0
    for d in dims:
        for m in copies:
            chan = prim.ChannelSpec(d, 1, m, (1.0,) * d)
            worst_op = max(worst_op, _deviation(prim.u_max_m(chan), np.eye(2 * d**m)))
            report = enumerate_branches(InputStateSpec.random(d, m, d + m), chan)
            worst_p = max(worst_p, abs(report.success_probability - 1.0))
    unitarity = max(
        _unitarity(prim.u_max_m(prim.ChannelSpec(d, 0, m, random_coeffs(d, seed))))
        for d, m, seed in ((2, 1, 1), (3, 2, 2), (4, 1, 3))
    )
    return (
        "max |U - I| {identity:.2e}, max |P - 1| {probability:.2e}, "
        "random-coefficient max |U^dag U - I| {unitarity:.2e}",
        dict(identity=worst_op, probability=worst_p, unitarity=unitarity),
    )


@_measured
def monte_carlo_consistency(trials: int, replays: int):
    """Criterion 4: the success rate sampled on the montecarlo campaign's
    block path (_sample_trials) against the closed form, the first rows
    replayed through run_structured, and 8 seeded runs against the copy
    loop, 4 of them at m=3 with complex phases."""
    chan = prim.ChannelSpec(3, 2, 1, (np.sqrt(1.5), np.sqrt(1.0), np.sqrt(0.5)))
    inp = InputStateSpec.random(3, 1, 404)
    p = theoretical_success_probability(chan)
    # Trial i runs on child i of SeedSequence(404), as in a montecarlo campaign.
    runs = _sample_trials(inp.state(), chan, 404, trials)
    rate = int(np.sum(runs.aux == 0)) / trials
    children = np.random.SeedSequence(404).spawn(replays)
    replayed = [(t.aux, t.fidelity) for t in (run_structured(inp, chan, seed=c) for c in children)]
    spec = prim.ChannelSpec(3, 1, 2, tuple(np.sqrt((1.2, 0.9, 0.9))))
    phased = prim.ChannelSpec(2, 0, 3, tuple(np.sqrt((1.6, 0.4)) * np.exp((0.4j, 2.1j))))
    loop_misses, loop_error = 0, 0.0
    for seed in range(8):
        case = (InputStateSpec.random(3, 2, 8), spec) if seed < 4 else (
            InputStateSpec.random(2, 3, seed), phased)
        a, b = run_protocol(*case, seed=seed), run_structured(*case, seed=seed)
        loop_misses += (a.gbs, a.controllers, a.aux) != (b.gbs, b.controllers, b.aux)
        loop_error = max(loop_error, abs(a.fidelity - b.fidelity))
    return (
        "rate {rate:.5f} vs {p} ({z:.2f} sigma), min success fidelity {min_fidelity:.12f}, "
        "{replay_misses} of {replays} replays and {loop_misses} of 8 copy-loop runs differ "
        "(max |dF| {loop_error:.2e})",
        dict(rate=rate, p=p, z=abs(rate - p) / np.sqrt(p * (1 - p) / trials), replays=replays,
             min_fidelity=float(np.min(runs.fidelity[runs.aux == 0], initial=1.0)),
             replay_misses=sum(t != r for t, r in zip(replayed, zip(runs.aux, runs.fidelity))),
             loop_misses=loop_misses, loop_error=loop_error),
    )


@_measured
def algebraic_primitives():
    """Criterion 5: Bell, Pauli, X-basis and Hadamard identities; the correction's factors."""
    devs = []
    for d in (2, 3, 4, 5, 6, 7):
        mat, h = prim.gbs_basis_matrix(d), prim.hadamard_d(d)
        devs += [_deviation(mat @ mat.conj().T, np.eye(d * d)), _unitarity(mat), _unitarity(h)]
        devs.append(_deviation(np.abs(prim.x_basis_matrix(d)) ** 2, 1.0 / d))
        for r in range(d):
            x = prim.x_basis_vector(d, r).amps
            devs += [_deviation(h[:, r], x), _deviation(np.abs(x) ** 2, 1.0 / d)]
    for d in (2, 3, 4, 5):
        psi00 = prim.gbs_vector(d, 0, 0)
        for u, v in np.ndindex(d, d):
            op = prim.u_uv(d, u, v)
            mapped = apply(psi00, op, [1])
            devs += [_unitarity(op), abs(1.0 - fidelity(mapped, prim.gbs_vector(d, u, v)))]
    cases = ((2, (1, 0), (1, 1)), (3, (2, 1), (1, 2)), (5, (3,), (4,)), (5, (3, 4), (4, 1)))
    for d, rhos, shifts in cases:
        direct = prim.multi_correction_unitary(d, rhos, shifts)
        factored = np.array([[1.0 + 0j]])
        for rho, s in zip(rhos, shifts):
            factored = np.kron(factored, prim.correction_unitary(d, rho, d - s))
        # Equal up to one global phase, which fidelity cannot see.
        anchor = np.argmax(np.abs(direct))
        phase = factored.flat[anchor] / direct.flat[anchor]
        devs.append(_deviation(direct * phase, factored))
    return "max deviation {deviation:.2e}", dict(deviation=max(devs))


@_measured
def structured_dense_equivalence(branches: int):
    """Criterion 6: forced closed-form runs against dense ones; a run past the dense guard."""
    chan = prim.ChannelSpec(3, 2, 2, (np.sqrt(1.5), np.sqrt(1.0), np.sqrt(0.5)))
    rng = np.random.default_rng(66)
    cases = [
        (InputStateSpec.random(3, 2, 6), chan,
         ForcedBranch(*rng.integers(3, size=(2, 2, 2)).tolist(), int(rng.integers(2))))
        for _ in range(branches)
    ]
    skewed = prim.ChannelSpec(3, 1, 1, (np.sqrt(1.5), np.sqrt(1.0), np.sqrt(0.5)))
    wide = prim.ChannelSpec(2, 2, 2, (np.sqrt(1.6), np.sqrt(0.4)))
    pair = ((1, 0), (1, 1))
    cases += [
        (InputStateSpec.random(3, 1, 5), skewed, ForcedBranch(((1, 2),), ((2,),), 0)),
        (InputStateSpec.random(3, 1, 5), skewed, ForcedBranch(((1, 2),), ((2,),), 1)),
        (InputStateSpec.random(2, 2, 6), wide, ForcedBranch(pair, pair, 0)),
    ]
    worst = 0.0
    for inp, spec, forced in cases:
        a, b = run_protocol(inp, spec, forced=forced), run_structured(inp, spec, forced=forced)
        worst = max(worst, abs(a.probability - b.probability), abs(a.fidelity - b.fidelity))
    big = prim.ChannelSpec(5, 4, 2, tuple(np.sqrt((1.5, 1.2, 1.0, 0.8, 0.5))))
    big_inp = InputStateSpec.random(5, 2, 7)
    guarded = False
    try:
        run_protocol(big_inp, big, seed=0)
    except SizeGuardError:
        guarded = True
    return (
        "max |delta| {delta:.2e} over {branches} random and 3 fixed branches, "
        "dense guard tripped={guarded}, structured d=5 m=2 n=4 ran={ran}",
        dict(delta=worst, branches=branches, guarded=guarded,
             ran=run_structured(big_inp, big, seed=0).aux in (0, 1)),
    )


@_measured
def decoy_detection(rounds: int):
    """Criterion 7: intercept-resend caught at (1/2)(1 - 1/d); no quiet-channel detection."""
    eve = "random_basis_resend"
    z = max(abs(detection_campaign(d, eve, rounds, seed=70 + d)[0].z_score) for d in (2, 3, 5))
    quiet = sum(detection_campaign(d, "none", rounds, seed=74 + d)[0].detections for d in (2, 3))
    detail = "worst |z| {z:.2f} over d in (2,3,5); quiet channel detections {quiet}"
    return detail, dict(z=z, quiet=quiet)


@_measured
def control_necessity():
    """Criterion 8: the mean success fidelity when the controller withholds its outcome."""
    chan = prim.ChannelSpec(2, 1, 1, (1.0, 1.0))
    value = fidelity_without_control(InputStateSpec(2, 1, [0.6, 0.8]), chan, {0})
    return "mean success fidelity {fidelity:.10f}", dict(fidelity=value)


DETERMINISTIC_DOCS = (
    {"kind": "montecarlo", "d": 2, "m": 1, "n": 1, "coeffs": "random:9", "beta": "random:9",
     "trials": 200, "seed": 99},
    {"kind": "enumerate", "d": 3, "m": 1, "n": 1, "beta": "random:3", "seed": 5,
     "coeffs": [1.224744871391589, 1.0, 0.7071067811865476]},
    {"kind": "decoy", "d": 3, "eve": "random_basis_resend", "trials": 500, "seed": 4},
    {"kind": "sweep", "sweep": {"d": [2, 3], "m": [1], "n": [0, 1]}, "trials": 4, "seed": 2},
)


@_measured
def deterministic_output():
    """Criterion 9: each campaign kind run twice on one config, and the first's JSON."""
    texts = []
    for doc in DETERMINISTIC_DOCS:
        runs = [run_campaign(load_config(dict(doc))) for _ in range(2)]
        texts.append([(to_json_text(r), to_csv_text(r)) for r in runs])
    return (
        "{kinds} campaign kinds checked in both formats, identical={identical}",
        dict(kinds=len(texts), identical=all(a == b for a, b in texts), json=texts[0][0][0]),
    )


@functools.lru_cache(maxsize=1)
def _shared_sweep() -> Measurement:
    """Criteria 1 and 2's one formula_sweep; run_selftest clears it per call."""
    return formula_sweep(14)


CHECKS = [
    ("criterion_1_success_probability_formula", lambda: _shared_sweep().judged(
        lambda v: v["error"] < 1e-9 and v["total_error"] < 1e-9)),
    ("criterion_2_unit_fidelity_on_success", lambda: _shared_sweep().judged(
        lambda v: v["min_fidelity"] >= 1.0 - 1e-9)),
    ("criterion_3_maximally_entangled_degenerate_case", lambda: degenerate_case(
        (2, 3), (1, 2)).judged(lambda v: max(v.values()) < 1e-12)),
    ("criterion_4_monte_carlo_consistency", lambda: monte_carlo_consistency(4000, 50).judged(
        lambda v: v["z"] < 5 and v["min_fidelity"] > 1 - 1e-9 and v["loop_error"] < 1e-10
        and v["replay_misses"] == v["loop_misses"] == 0)),
    ("criterion_5_algebraic_primitive_suite", lambda: algebraic_primitives().judged(
        lambda v: v["deviation"] < 1e-12)),
    ("criterion_6_structured_dense_equivalence", lambda: structured_dense_equivalence(5).judged(
        lambda v: v["delta"] < 1e-10 and v["guarded"] and v["ran"])),
    ("criterion_7_decoy_detection", lambda: decoy_detection(4000).judged(
        lambda v: v["z"] < 5 and v["quiet"] == 0)),
    ("criterion_8_control_necessity", lambda: control_necessity().judged(
        lambda v: abs(v["fidelity"] - 0.5392) < 1e-10)),
    ("criterion_9_deterministic_output", lambda: deterministic_output().judged(
        lambda v: v["identical"] and json.loads(v["json"])["aggregate"]["trials"] == 200)),
]


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run every check: (name, passed, why it failed, else ""). A check returns a
    bool or Measurement.judged's pair; one that raised reads "<Type>: <message>"."""
    results = []
    _shared_sweep.cache_clear()
    for name, check in CHECKS:
        try:
            outcome = check()
        except Exception as exc:
            outcome = (False, f"{type(exc).__name__}: {exc}")
        passed, why = outcome if isinstance(outcome, tuple) else (bool(outcome), "")
        results.append((name, passed, "" if passed else why))
    _shared_sweep.cache_clear()
    return results
