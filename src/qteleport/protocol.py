"""Multiparty-controlled teleportation of an m-qudit state.

Cast: a sender holding the unknown m-qudit state and one qudit of each
channel copy, n controllers, and a receiver.  Per channel copy the
sender measures her qudit pair in the generalized-Bell basis, each
controller measures his qudit in the X basis, and the receiver runs a
collective extraction unitary with a two-level auxiliary system.  Aux
outcome 0 heralds success; the receiver then applies phase-and-shift
corrections built from the broadcast outcomes.

The receiver's operators are applied in closed form, never as dense
matrices: the extraction U_max^m is a direct sum of d^m 2x2 rotations,
so it scales each receiver amplitude into the two aux sectors, and each
per-copy correction is a qudit Pauli, i.e. one roll plus a phase.
u_max_m and correction_unitary remain the reference matrices the tests
check these closed forms against.

Two execution paths share one observable contract:

  * run_protocol    -- dense reference path over the full register
  * run_structured  -- processes channel copies one at a time, never
                       materializing the full register

plus an exact oracle, enumerate_branches, that walks every measurement
branch and reports exact probabilities and fidelities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .primitives import (
    ChannelSpec,
    _gamma_table,
    channel_state,
    gbs_basis_matrix,
    x_basis_matrix,
)
from .state import (
    SizeGuardError,
    StateVector,
    _check_size,
    _targets_front,
    branch_outcomes,
    fidelity,
    make_state,
    measure_in_basis,
    tensor,
)

# Not used here: the reference matrices and the dense apply stay
# importable from this module because perfbench/tracer.py wraps them
# under these names.
from .primitives import correction_unitary, u_max_m  # noqa: F401
from .state import apply  # noqa: F401

ENUMERATION_GUARD = 10**6


class EnumerationGuardError(SizeGuardError):
    """Branch count exceeds the exhaustive-enumeration guard."""


@dataclass(frozen=True)
class InputStateSpec:
    """The unknown m-qudit state to teleport: d^m amplitudes, unit norm."""

    d: int
    m: int
    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=complex).reshape(-1)
        if beta.size != self.d**self.m:
            raise ValueError(
                f"beta length {beta.size} != d^m = {self.d ** self.m}"
            )
        norm = np.linalg.norm(beta)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"beta violates sum|beta|^2 = 1: norm = {norm!r}")
        object.__setattr__(self, "beta", beta)

    @classmethod
    def basis(cls, d: int, m: int, index: int) -> "InputStateSpec":
        beta = np.zeros(d**m, dtype=complex)
        beta[index] = 1.0
        return cls(d, m, beta)

    @classmethod
    def random(cls, d: int, m: int, seed: int) -> "InputStateSpec":
        """Haar-like random state: 2 d^m standard normals, normalized."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        raw = rng.standard_normal(d**m) + 1j * rng.standard_normal(d**m)
        return cls(d, m, raw / np.linalg.norm(raw))

    def state(self) -> StateVector:
        labels = tuple(f"chi_{l + 1}" for l in range(self.m))
        return make_state((self.d,) * self.m, self.beta, labels)


@dataclass(frozen=True)
class ForcedBranch:
    """Forced measurement outcomes for one deterministic run.

    gbs          -- per copy (r, s) sender outcomes
    controllers  -- per copy, per controller X-basis outcomes
    aux          -- receiver's auxiliary outcome, 0 (success) or 1
    """

    gbs: tuple[tuple[int, int], ...]
    controllers: tuple[tuple[int, ...], ...]
    aux: int


@dataclass(frozen=True)
class Transcript:
    """Full record of one protocol run."""

    seed: int | None
    gbs: tuple[tuple[int, int], ...]
    controllers: tuple[tuple[int, ...], ...]
    r_sums: tuple[int, ...]
    aux: int
    success: bool
    fidelity: float
    probability: float


@dataclass(frozen=True)
class BranchRecord:
    gbs: tuple[tuple[int, int], ...]
    controllers: tuple[tuple[int, ...], ...]
    aux: int
    probability: float
    fidelity: float


@dataclass(frozen=True)
class BranchReport:
    """Exhaustive branch listing with exact probabilities."""

    branches: list[BranchRecord]
    success_probability: float
    theoretical: float
    total_probability: float


def theoretical_success_probability(spec: ChannelSpec) -> float:
    """(min_j |c_j|^2)^m."""
    return spec.min_weight**spec.m


def _rng_from_seed(seed) -> np.random.Generator:
    """Counter-based generator from an int seed or a pre-split SeedSequence."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def _r_sum(outcomes, d: int) -> int:
    return int(sum(outcomes)) % d


_Z2 = np.eye(2)


def _extract(state: StateVector, spec: ChannelSpec) -> StateVector:
    """Attach the aux qubit in |0> and run the collective extraction.

    U_max^m is a direct sum of 2x2 rotations, one per receiver index J
    (the receiver qudits a_{n+1}_l read in copy order): it sends
    psi_J |J>|0> to gamma_J psi_J |J>|0> + gamma+_J psi_J |J>|1>, with
    gamma+ = sqrt(1 - gamma^2).  Any other subsystems still attached
    (the controllers, during enumeration) only broadcast.  The aux qubit
    is appended last.
    """
    _check_size(2 * state.amps.size)
    receivers = [state.index_of(f"a_{spec.n + 1}_{l}") for l in range(1, spec.m + 1)]
    shape = [1] * state.num_subsystems
    for t in receivers:
        shape[t] = spec.d
    # Receivers sit in copy order, so gamma's copy-major layout carries over.
    gamma = _gamma_table(spec).reshape(shape)
    gamma_plus = np.sqrt(1.0 - gamma**2)
    amps = state.amps.reshape(state.dims)
    out = np.stack((gamma * amps, gamma_plus * amps), axis=-1)
    return StateVector(state.dims + (2,), out.reshape(-1), state.labels + ("aux",))


def _copy_shape(m: int, l: int, d: int) -> tuple[int, ...]:
    """Broadcast shape of a length-d factor on copy l of m."""
    return (1,) * l + (d,) + (1,) * (m - l - 1)


def _correct(
    receiver: StateVector, spec: ChannelSpec, gbs, r_sums
) -> StateVector:
    """Per-copy phase compensation plus phase-and-shift correction.

    On copy l, U_{r+rho, d-s} diag(e^{-i phi}) maps psi_k to
    omega^{(r+rho)(k+s)} e^{-i phi_(k+s)} psi_(k+s): an elementwise
    phase, then a roll by -s along that copy's axis.
    """
    d, m = spec.d, spec.m
    j = np.arange(d)
    coeff_fix = np.exp(-1j * np.angle(np.asarray(spec.coeffs)))
    amps = receiver.amps.reshape(receiver.dims)
    for l, ((r, s), rho) in enumerate(zip(gbs, r_sums)):
        phase = np.exp(2j * np.pi * ((r + rho) % d) * j / d) * coeff_fix
        amps = np.roll(amps * phase.reshape(_copy_shape(m, l, d)), -s, axis=l)
    return StateVector(receiver.dims, amps.reshape(-1), receiver.labels)


def _omega_table(d: int, m: int) -> np.ndarray:
    """m-fold Kronecker power of F[rho, j] = omega^(-rho j), copy-major."""
    j = np.arange(d)
    single = np.exp(-2j * np.pi * np.outer(j, j) / d)
    return reduce(np.kron, [single] * m)


def _reference_table(
    input_state: StateVector, spec: ChannelSpec, gbs, omega_table: np.ndarray
) -> np.ndarray:
    """Rows C_rho^dagger |input> for every per-copy controller sum rho.

    Row rho (flat, copy-major) is the input pulled back through the
    correction of rho, so <row| applied to the extracted receiver gives
    the corrected overlap.  C^dagger on copy l maps x_j to
    omega^(-(r+rho) j) e^{i phi_j} x_(j-s): the rho-free part is an
    inverse roll and phase of the input, the rest is omega_table.
    """
    d, m = spec.d, spec.m
    j = np.arange(d)
    coeff_phase = np.exp(1j * np.angle(np.asarray(spec.coeffs)))
    base = input_state.amps.reshape((d,) * m)
    for l, (r, s) in enumerate(gbs):
        phase = np.exp(-2j * np.pi * r * j / d) * coeff_phase
        base = np.roll(base, s, axis=l) * phase.reshape(_copy_shape(m, l, d))
    return omega_table * base.reshape(-1)


def _validate_pair(input_spec: InputStateSpec, spec: ChannelSpec) -> None:
    if input_spec.d != spec.d or input_spec.m != spec.m:
        raise ValueError(
            f"input (d={input_spec.d}, m={input_spec.m}) does not match "
            f"channel (d={spec.d}, m={spec.m})"
        )


def _copy_labels(spec: ChannelSpec, l: int) -> tuple[str, ...]:
    return tuple(f"a_{k}_{l}" for k in range(spec.n + 2))


def run_protocol(
    input_spec: InputStateSpec,
    spec: ChannelSpec,
    seed: int | None = None,
    forced: ForcedBranch | None = None,
) -> Transcript:
    """One protocol run on the full dense register.

    Outcomes are sampled from a Philox stream keyed by seed, or forced
    branch-by-branch.  The transcript records all outcomes, the success
    flag, the fidelity of the receiver's (corrected) state against the
    input, and the probability of the realized branch.
    """
    _validate_pair(input_spec, spec)
    if (forced is None) == (seed is None):
        raise ValueError("exactly one of seed or forced is required")
    rng = _rng_from_seed(seed) if forced is None else None

    d, m, n = spec.d, spec.m, spec.n
    input_state = input_spec.state()
    state = input_state
    for l in range(1, m + 1):
        state = tensor(state, channel_state(spec, labels=_copy_labels(spec, l)))

    gbs_mat = gbs_basis_matrix(d)
    x_mat = x_basis_matrix(d)
    probability = 1.0
    gbs_outcomes: list[tuple[int, int]] = []
    ctrl_outcomes: list[tuple[int, ...]] = []
    for l in range(1, m + 1):
        pair = [state.index_of(f"chi_{l}"), state.index_of(f"a_0_{l}")]
        forced_k = None if forced is None else forced.gbs[l - 1][0] * d + forced.gbs[l - 1][1]
        out = measure_in_basis(state, pair, gbs_mat, rng, forced_k)
        state = out.post_state
        probability *= out.probability
        gbs_outcomes.append((out.value // d, out.value % d))
        copy_ctrl = []
        for q in range(1, n + 1):
            forced_x = None if forced is None else forced.controllers[l - 1][q - 1]
            out = measure_in_basis(
                state, [state.index_of(f"a_{q}_{l}")], x_mat, rng, forced_x
            )
            state = out.post_state
            probability *= out.probability
            copy_ctrl.append(out.value)
        ctrl_outcomes.append(tuple(copy_ctrl))

    # Only the receiver's qudits remain, in copy order.
    r_sums = tuple(_r_sum(c, d) for c in ctrl_outcomes)
    return _finish(
        state, input_state, spec, gbs_outcomes, ctrl_outcomes, r_sums,
        probability, rng, None if forced is None else forced.aux, seed,
    )


def run_structured(
    input_spec: InputStateSpec,
    spec: ChannelSpec,
    seed: int | None = None,
    forced: ForcedBranch | None = None,
) -> Transcript:
    """Copy-at-a-time execution path; same observable contract as
    run_protocol but never materializes the full register.

    Holds at most the unmeasured input qudits, already-extracted
    receiver qudits, and one channel copy at a time.
    """
    _validate_pair(input_spec, spec)
    if (forced is None) == (seed is None):
        raise ValueError("exactly one of seed or forced is required")
    rng = _rng_from_seed(seed) if forced is None else None

    d, m, n = spec.d, spec.m, spec.n
    input_state = input_spec.state()
    state = input_state
    gbs_mat = gbs_basis_matrix(d)
    x_mat = x_basis_matrix(d)
    probability = 1.0
    gbs_outcomes: list[tuple[int, int]] = []
    ctrl_outcomes: list[tuple[int, ...]] = []
    for l in range(1, m + 1):
        state = tensor(state, channel_state(spec, labels=_copy_labels(spec, l)))
        pair = [state.index_of(f"chi_{l}"), state.index_of(f"a_0_{l}")]
        forced_k = None if forced is None else forced.gbs[l - 1][0] * d + forced.gbs[l - 1][1]
        out = measure_in_basis(state, pair, gbs_mat, rng, forced_k)
        state = out.post_state
        probability *= out.probability
        gbs_outcomes.append((out.value // d, out.value % d))
        copy_ctrl = []
        for q in range(1, n + 1):
            forced_x = None if forced is None else forced.controllers[l - 1][q - 1]
            out = measure_in_basis(
                state, [state.index_of(f"a_{q}_{l}")], x_mat, rng, forced_x
            )
            state = out.post_state
            probability *= out.probability
            copy_ctrl.append(out.value)
        ctrl_outcomes.append(tuple(copy_ctrl))

    # Receiver qudits accumulated in copy order behind the remaining inputs.
    r_sums = tuple(_r_sum(c, d) for c in ctrl_outcomes)
    return _finish(
        state, input_state, spec, gbs_outcomes, ctrl_outcomes, r_sums,
        probability, rng, None if forced is None else forced.aux, seed,
    )


def _finish(
    receiver: StateVector,
    input_state: StateVector,
    spec: ChannelSpec,
    gbs_outcomes,
    ctrl_outcomes,
    r_sums,
    probability: float,
    rng,
    forced_aux: int | None,
    seed: int | None,
) -> Transcript:
    """Extraction, aux measurement, and (on success) correction."""
    extracted = _extract(receiver, spec)
    out = measure_in_basis(extracted, [spec.m], _Z2, rng, forced_aux)
    probability *= out.probability
    aux = out.value
    if aux == 0:
        corrected = _correct(out.post_state, spec, gbs_outcomes, r_sums)
        fid = fidelity(
            StateVector(input_state.dims, corrected.amps, input_state.labels),
            input_state,
        )
    else:
        # Diagnostic only: the uncorrected leftover against the input.
        fid = fidelity(
            StateVector(input_state.dims, out.post_state.amps, input_state.labels),
            input_state,
        )
    return Transcript(
        seed=seed if isinstance(seed, int) else None,
        gbs=tuple(gbs_outcomes),
        controllers=tuple(ctrl_outcomes),
        r_sums=tuple(r_sums),
        aux=aux,
        success=aux == 0,
        fidelity=fid,
        probability=probability,
    )


def _branch_count(spec: ChannelSpec) -> int:
    return spec.d ** (2 * spec.m) * spec.d ** (spec.n * spec.m) * 2


def _enumerate(
    input_spec: InputStateSpec,
    spec: ChannelSpec,
    correction_controllers: set[int] | None = None,
):
    """Walk every measurement branch exactly.

    correction_controllers restricts which controllers' outcomes enter
    the receiver's correction (None = all); the branch probabilities are
    unaffected, only the applied correction and hence the fidelity.
    """
    _validate_pair(input_spec, spec)
    count = _branch_count(spec)
    if count > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"{count} branches exceed the enumeration guard of {ENUMERATION_GUARD}"
        )
    d, m, n = spec.d, spec.m, spec.n
    if correction_controllers is None:
        correction_controllers = set(range(n))

    full = input_spec.state()
    for l in range(1, m + 1):
        full = tensor(full, channel_state(spec, labels=_copy_labels(spec, l)))

    gbs_mat = gbs_basis_matrix(d)
    input_state = input_spec.state()

    # Stage 1: all sender outcomes, copy by copy (branch tree).
    gbs_branches = [((), 1.0, full)]
    for l in range(1, m + 1):
        grown = []
        for outcomes, prob, state in gbs_branches:
            pair = [state.index_of(f"chi_{l}"), state.index_of(f"a_0_{l}")]
            for out in branch_outcomes(state, pair, gbs_mat):
                if out.post_state is None:
                    continue  # unreachable: every sender outcome has p > 0
                grown.append(
                    (
                        outcomes + ((out.value // d, out.value % d),),
                        prob * out.probability,
                        out.post_state,
                    )
                )
        gbs_branches = grown

    # Stage 2: per sender branch, extraction commutes with the controller
    # measurements, so run it first and read off every controller+aux
    # outcome from a single joint projection.
    if n > 0:
        x_mat = x_basis_matrix(d)
        joint_basis = x_mat
        for _ in range(m * n - 1):
            joint_basis = np.kron(joint_basis, x_mat)
        joint_basis = np.kron(joint_basis, np.eye(2))
    else:
        joint_basis = np.eye(2)
    joint_bra = joint_basis.conj()

    # Controller-outcome bookkeeping, shared by every sender branch:
    # base-d digits (copy-major), the printable outcome tuples, and the
    # per-copy outcome sums that feed the correction.
    n_ctrl = d ** (m * n)
    if n > 0:
        digits = np.array(
            np.unravel_index(np.arange(n_ctrl), (d,) * (m * n))
        ).T.reshape(n_ctrl, m, n)
    else:
        digits = np.zeros((1, m, 0), dtype=int)
    ctrl_tuples = [
        tuple(tuple(int(x) for x in copy) for copy in digits[i]) for i in range(n_ctrl)
    ]
    cooperating = sorted(correction_controllers)
    if cooperating:
        r_sum_rows = digits[:, :, cooperating].sum(axis=2) % d
    else:
        r_sum_rows = np.zeros((n_ctrl, m), dtype=int)
    powers = d ** np.arange(m - 1, -1, -1)
    r_sum_index = r_sum_rows @ powers  # flat index into the reference table

    omega_table = _omega_table(d, m)

    records: list[BranchRecord] = []
    success_probability = 0.0
    total = 0.0
    for gbs_outcomes, prob, state in gbs_branches:
        extracted = _extract(state, spec)
        ctrl_targets = [
            extracted.index_of(f"a_{q}_{l}")
            for l in range(1, m + 1)
            for q in range(1, n + 1)
        ]
        targets = ctrl_targets + [extracted.index_of("aux")]
        mat, _ = _targets_front(extracted, targets)
        coeffs = joint_bra @ mat  # (outcome, receiver amplitude)
        probs = np.einsum("kr,kr->k", coeffs, coeffs.conj()).real

        # Reference vectors <input| C for every possible per-copy outcome
        # sum, so each success leaf reduces to one short dot product.
        refs = _reference_table(input_state, spec, gbs_outcomes, omega_table)
        uncorrected_ref = input_state.amps

        for ctrl_index in range(n_ctrl):
            ctrl_outcomes = ctrl_tuples[ctrl_index]
            for aux in (0, 1):
                k = ctrl_index * 2 + aux
                pk = float(probs[k])
                branch_p = prob * pk
                total += branch_p
                if pk < 1e-18:
                    records.append(
                        BranchRecord(
                            gbs_outcomes, ctrl_outcomes, aux, branch_p, float("nan")
                        )
                    )
                    continue
                if aux == 0:
                    overlap = refs[r_sum_index[ctrl_index]].conj() @ coeffs[k]
                    fid = min(1.0, float(abs(overlap) ** 2 / pk))
                    success_probability += branch_p
                else:
                    overlap = uncorrected_ref.conj() @ coeffs[k]
                    fid = min(1.0, float(abs(overlap) ** 2 / pk))
                records.append(
                    BranchRecord(gbs_outcomes, ctrl_outcomes, aux, branch_p, fid)
                )
    return records, success_probability, total


def enumerate_branches(
    input_spec: InputStateSpec, spec: ChannelSpec
) -> BranchReport:
    """Exact oracle: every (sender, controller, aux) outcome with its
    exact probability and output fidelity."""
    records, success_probability, total = _enumerate(input_spec, spec)
    return BranchReport(
        branches=records,
        success_probability=success_probability,
        theoretical=theoretical_success_probability(spec),
        total_probability=total,
    )


def fidelity_without_control(
    input_spec: InputStateSpec, spec: ChannelSpec, withheld
) -> float:
    """Mean success-branch fidelity when the receiver corrects without
    the withheld controllers' outcomes (their contributions taken as 0),
    probability-weighted over all success branches."""
    withheld = set(withheld)
    if not withheld <= set(range(spec.n)):
        raise ValueError(f"withheld controllers {withheld} out of range")
    cooperating = set(range(spec.n)) - withheld
    records, success_probability, _ = _enumerate(
        input_spec, spec, correction_controllers=cooperating
    )
    if success_probability <= 0.0:
        raise ValueError("no success branch has positive probability")
    weighted = sum(
        rec.probability * rec.fidelity for rec in records if rec.aux == 0
    )
    return float(weighted / success_probability)
