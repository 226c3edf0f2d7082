"""Built-in invariant battery behind the `qteleport selftest` command.

A fast, dependency-free subset of the full pytest suite: algebraic
identities of the named states and unitaries, the exact branch oracle
against the closed-form success probability, forced closed-form runs
against the dense engine, the seeded sampler against the copy loop and
the success rate, and the decoy statistics.
"""

from __future__ import annotations

import numpy as np

from . import primitives as prim
from ._streams import child_uniforms
from .decoy import analytic_detection_rate, detection_campaign
from .protocol import (
    ForcedBranch,
    InputStateSpec,
    _draw_count,
    _sample_runs,
    enumerate_branches,
    run_protocol,
    run_structured,
    theoretical_success_probability,
)
from .state import apply, fidelity, is_unitary


def _gbs_orthonormal() -> bool:
    for d in (2, 3, 5, 7):
        mat = prim.gbs_basis_matrix(d)
        if np.max(np.abs(mat @ mat.conj().T - np.eye(d * d))) > 1e-12:
            return False
    return True


def _pauli_family_maps_bell_states() -> bool:
    for d in (2, 3, 5):
        psi00 = prim.gbs_vector(d, 0, 0)
        for u in range(d):
            for v in range(d):
                got = apply(psi00, prim.u_uv(d, u, v), [1])
                if abs(fidelity(got, prim.gbs_vector(d, u, v)) - 1.0) > 1e-12:
                    return False
                if not is_unitary(prim.u_uv(d, u, v)):
                    return False
    return True


def _mutually_unbiased() -> bool:
    for d in (2, 3, 5, 7):
        for k in range(d):
            for r in range(d):
                overlap = abs(prim.x_basis_vector(d, r).amps[k]) ** 2
                if abs(overlap - 1.0 / d) > 1e-12:
                    return False
    return True


def _hadamard_columns() -> bool:
    for d in (2, 3, 5, 7):
        h = prim.hadamard_d(d)
        if not is_unitary(h):
            return False
        for r in range(d):
            if np.max(np.abs(h[:, r] - prim.x_basis_vector(d, r).amps)) > 1e-14:
                return False
    return True


def _extraction_identity_when_uniform() -> bool:
    for d, m in ((2, 1), (3, 1), (3, 2)):
        spec = prim.ChannelSpec(d, 1, m, (1.0,) * d)
        if np.max(np.abs(prim.u_max_m(spec) - np.eye(2 * d**m))) > 1e-12:
            return False
    return True


def _extraction_unitary() -> bool:
    for d, m, seed in ((2, 1, 1), (3, 2, 2), (4, 1, 3)):
        from .config import random_coeffs

        spec = prim.ChannelSpec(d, 0, m, random_coeffs(d, seed))
        if not is_unitary(prim.u_max_m(spec), 1e-12):
            return False
    return True


def _correction_factorizes() -> bool:
    for d, rhos, shifts in ((2, (1, 0), (1, 1)), (3, (2, 1), (1, 2)), (5, (3,), (4,))):
        direct = prim.multi_correction_unitary(d, rhos, shifts)
        factored = np.array([[1.0 + 0j]])
        for rho, s in zip(rhos, shifts):
            factored = np.kron(factored, prim.correction_unitary(d, rho, d - s))
        # Equal up to one global phase: align on the largest entry.
        anchor = np.argmax(np.abs(direct))
        phase = factored.flat[anchor] / direct.flat[anchor]
        if np.max(np.abs(direct * phase - factored)) > 1e-12:
            return False
    return True


def _oracle_matches_formula() -> bool:
    cases = [
        (2, 1, 1, (1.0, 1.0), 1.0),
        (2, 1, 1, (np.sqrt(1.5), np.sqrt(0.5)), 0.5),
        (3, 2, 1, (np.sqrt(1.2), np.sqrt(0.9), np.sqrt(0.9)), 0.81),
    ]
    for d, m, n, coeffs, expected in cases:
        spec = prim.ChannelSpec(d, n, m, coeffs)
        report = enumerate_branches(InputStateSpec.random(d, m, 11), spec)
        if abs(report.total_probability - 1.0) > 1e-9:
            return False
        if abs(report.success_probability - expected) > 1e-9:
            return False
        for b in report.branches:
            if b.aux == 0 and b.probability > 1e-12 and b.fidelity < 1 - 1e-9:
                return False
    return True


def _paths_agree() -> bool:
    """Forced runs in closed form against the dense engine: a success
    and a failure branch, and a branch at m = 2, n = 2."""
    skewed = prim.ChannelSpec(3, 1, 1, (np.sqrt(1.5), np.sqrt(1.0), np.sqrt(0.5)))
    wide = prim.ChannelSpec(2, 2, 2, (np.sqrt(1.6), np.sqrt(0.4)))
    cases = [
        (InputStateSpec.random(3, 1, 5), skewed, ForcedBranch(((1, 2),), ((2,),), aux))
        for aux in (0, 1)
    ]
    cases.append(
        (InputStateSpec.random(2, 2, 6), wide, ForcedBranch(((1, 0), (1, 1)), ((1, 0), (1, 1)), 0))
    )
    for inp, spec, forced in cases:
        a = run_protocol(inp, spec, forced=forced)
        b = run_structured(inp, spec, forced=forced)
        if abs(a.probability - b.probability) > 1e-10 or abs(a.fidelity - b.fidelity) > 1e-10:
            return False
    return True


def _sampling_matches_copy_loop() -> bool:
    """Seeded sampler runs give the copy loop's outcomes, also at m = 3
    with complex phases, and a campaign's success rate lies within 5
    sigma of (min|c_j|^2)^m."""
    spec = prim.ChannelSpec(3, 1, 2, tuple(np.sqrt((1.2, 0.9, 0.9))))
    inp = InputStateSpec.random(3, 2, 8)
    phased = prim.ChannelSpec(2, 0, 3, tuple(np.sqrt((1.6, 0.4)) * np.exp((0.4j, 2.1j))))
    for seed in range(8):
        case = (inp, spec) if seed < 4 else (InputStateSpec.random(2, 3, seed), phased)
        a, b = run_protocol(*case, seed=seed), run_structured(*case, seed=seed)
        if (a.gbs, a.controllers, a.aux) != (b.gbs, b.controllers, b.aux):
            return False
        if abs(a.fidelity - b.fidelity) > 1e-10:
            return False
    trials = 4000
    runs = _sample_runs(inp.state(), spec, child_uniforms(9, 0, trials, _draw_count(spec)))
    p = theoretical_success_probability(spec)
    success = runs.aux == 0
    sigma = np.sqrt(p * (1 - p) / trials)
    return abs(success.mean() - p) < 5 * sigma and runs.fidelity[success].min() > 1 - 1e-9


def _decoy_statistics() -> bool:
    report, _ = detection_campaign(2, "none", 500, seed=1)
    if report.detections != 0:
        return False
    report, _ = detection_campaign(3, "random_basis_resend", 4000, seed=2)
    expected = analytic_detection_rate(3, "random_basis_resend")
    sigma = np.sqrt(expected * (1 - expected) / 4000)
    return abs(report.rate - expected) < 5 * sigma


CHECKS = [
    ("gbs_orthonormality", _gbs_orthonormal),
    ("pauli_family_maps_bell_states", _pauli_family_maps_bell_states),
    ("mutually_unbiased_bases", _mutually_unbiased),
    ("hadamard_columns_are_x_basis", _hadamard_columns),
    ("extraction_identity_when_uniform", _extraction_identity_when_uniform),
    ("extraction_unitarity", _extraction_unitary),
    ("correction_tensor_factorization", _correction_factorizes),
    ("branch_oracle_matches_formula", _oracle_matches_formula),
    ("structured_dense_equivalence", _paths_agree),
    ("sampling_matches_copy_loop", _sampling_matches_copy_loop),
    ("decoy_detection_statistics", _decoy_statistics),
]


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run every check: (name, passed, "<Type>: <message>" if it raised, else "")."""
    results = []
    for name, check in CHECKS:
        try:
            results.append((name, bool(check()), ""))
        except Exception as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
