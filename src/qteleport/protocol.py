"""Multiparty-controlled teleportation of an m-qudit state.

Cast: a sender holding the unknown m-qudit state and one qudit of each
channel copy, n controllers, and a receiver.  Per channel copy the
sender measures her qudit pair in the generalized-Bell basis, each
controller measures his qudit in the X basis, and the receiver runs a
collective extraction unitary with a two-level auxiliary system.  Aux
outcome 0 heralds success; the receiver then applies phase-and-shift
corrections built from the broadcast outcomes.

The receiver's operators are never dense matrices.  The extraction
U_max^m is a direct sum of d^m 2x2 rotations, so it scales each receiver
amplitude into the two aux sectors.  The correction C is never applied:
|<input|C psi>|^2 = |<C^dagger input|psi>|^2, so sampled runs and the
oracle both score the receiver against the input pulled back through
the correction (_pullback: per copy one roll plus a phase).  The
spec-only constants (gamma, gamma+, phase rows) are built once per spec.
u_max_m and correction_unitary remain the reference matrices the tests
check these closed forms against.

Sampling runs in closed form, with no state engine: _sample_runs takes
a batch of runs as one (batch, d^m) array of input and receiver digits.
Per copy it draws the sender's outcome from the digit's marginal, rolls
and phases that digit, and draws the controllers' outcomes, which are
uniform.  The montecarlo campaign runs it in chunks of trials fed by
_streams; run_structured(seed=...) runs it as a batch of one.  Every
draw reads one uniform by the state engine's rule, so a seed gives the
outcomes the engine's copy loop gives.

The copy loop (_run) on the state engine is the reference the sampler is
tested against.  Its entry points differ only in when the channel
copies are attached:

  * run_protocol            -- all copies up front, the full dense register
  * run_structured(forced=) -- each copy just before it is measured, so
                               the full register never exists

plus an exact oracle, enumerate_branches, that walks every measurement
branch and reports exact probabilities and fidelities.  The oracle walks
the sender's branches depth first, attaching each copy by the same rule
as the copy loop, so only one root-to-leaf path of states is alive.  Per
sender branch it extracts, projects the controllers onto the X basis one
axis at a time (a d x d contraction each), and reads every controller
and aux leaf's probability and fidelity as arrays.  BranchRecords are
built only when a caller reads report.branches.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .primitives import (
    CHANNEL_CACHE_SIZE,
    ChannelSpec,
    _read_only,
    _receiver_constants,
    channel_state,
    gbs_basis_matrix,
    x_basis_matrix,
)
from .state import (
    SizeGuardError,
    StateVector,
    _check_size,
    _sample_rows,
    branch_outcomes,
    make_state,
    measure_in_basis,
    tensor,
)

# Not used here: the reference matrices, the dense apply and fidelity
# stay importable from this module because perfbench/tracer.py wraps
# them under these names.
from .primitives import correction_unitary, u_max_m  # noqa: F401
from .state import apply, fidelity  # noqa: F401

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
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta amplitudes must be finite")
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
        """The input register chi_1..chi_m; built once per spec, read-only."""
        return self._register

    @cached_property
    def _register(self) -> StateVector:
        labels = tuple(f"chi_{l + 1}" for l in range(self.m))
        register = make_state((self.d,) * self.m, self.beta, labels)
        _read_only(register.amps)
        return register


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


class _Branches(Sequence):
    """Read-only view of an enumeration's leaves, in (gbs, controllers,
    aux) product order.  A BranchRecord is built only when a leaf is read.

    gbs         -- one sender-outcome tuple per sender branch
    probability -- per-leaf branch probability
    fidelity    -- per-leaf output fidelity, NaN where the branch is empty
    """

    def __init__(self, gbs, d: int, m: int, n: int, probability, fidelity):
        self._gbs = gbs
        self._d, self._m, self._n = d, m, n
        self._per_sender = 2 * d ** (m * n)
        self.probability = _read_only(probability)
        self.fidelity = _read_only(fidelity)

    def __len__(self) -> int:
        return self.probability.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._record(i) for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"branch index {index} out of range for {len(self)} branches")
        return self._record(i)

    def __iter__(self) -> Iterator[BranchRecord]:
        return map(self._record, range(len(self)))

    def _record(self, i: int) -> BranchRecord:
        sender, leaf = divmod(i, self._per_sender)
        ctrl, aux = divmod(leaf, 2)
        digits = _controller_digits(ctrl, self._d, self._m, self._n)
        return BranchRecord(
            self._gbs[sender],
            tuple(map(tuple, digits.tolist())),
            aux,
            float(self.probability[i]),
            float(self.fidelity[i]),
        )


def _controller_digits(ctrl, d: int, m: int, n: int) -> np.ndarray:
    """Controller outcomes of controller-leaf index ctrl (int or array):
    its base-d digits, shape (..., m, n), copy-major, controller-minor."""
    place = d ** np.arange(m * n - 1, -1, -1)
    ctrl = np.asarray(ctrl)
    return (ctrl[..., None] // place % d).reshape(ctrl.shape + (m, n))


@dataclass(frozen=True)
class BranchReport:
    """Exhaustive branch listing with exact probabilities."""

    branches: Sequence[BranchRecord]
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


_Z2 = _read_only(np.eye(2, dtype=complex))


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
    gamma, gamma_plus, _ = _receiver_constants(spec)
    amps = state.amps.reshape(state.dims)
    out = np.stack(
        (gamma.reshape(shape) * amps, gamma_plus.reshape(shape) * amps), axis=-1
    )
    return StateVector(state.dims + (2,), out.reshape(-1), state.labels + ("aux",))


def _omega_table(d: int, m: int) -> np.ndarray:
    """m-fold Kronecker power of F[rho, j] = omega^(-rho j), copy-major."""
    j = np.arange(d)
    single = np.exp(-2j * np.pi * np.outer(j, j) / d)
    return reduce(np.kron, [single] * m)


@lru_cache(maxsize=None)
def _roll_sources(d: int) -> np.ndarray:
    """[s, j] = (j - s) mod d: the digit a roll by s moves to digit j."""
    j = np.arange(d)
    return _read_only((j - j[:, None]) % d)


def _shift_axis(amps, d: int, m: int, l: int, shift, row) -> np.ndarray:
    """Roll and scale copy axis l of amps (rows, d^m), rows 1 or batch:
    output row b's digit j is row[b, j] times amps's digit j - shift[b].
    Returns (batch, d^m); a single input row serves every shift."""
    view = amps.reshape(len(amps), d**l, d, -1)
    out = view[
        np.arange(len(amps))[:, None, None],
        np.arange(d**l)[:, None],
        _roll_sources(d)[shift][:, None, :],
    ]
    out *= row[:, None, :, None]
    return out.reshape(len(shift), d**m)


def _pullback(input_state: StateVector, spec: ChannelSpec, shifts) -> np.ndarray:
    """C^dagger |input> (flat, copy-major) for per-copy (u, s) pairs.

    The correction on copy l, U_{u, d-s} diag(e^{-i phi}), maps psi_k to
    omega^{u(k+s)} e^{-i phi_(k+s)} psi_(k+s); its adjoint maps x_j to
    omega^(-u j) e^{i phi_j} x_(j-s), a roll by s and a phase row.  So
    |<row|psi>|^2 is the fidelity of the corrected receiver psi.  A
    sampled run pulls back through (r + rho, s); the oracle through
    (r, s), and _omega_table supplies every rho's omega^(-rho j).
    shifts has shape (..., m, 2), and the result (..., d^m): a batch
    pulls back through one row of shifts per run.
    """
    d, m = spec.d, spec.m
    _, _, phase_rows = _receiver_constants(spec)
    shifts = np.asarray(shifts)
    batch = shifts.reshape(-1, m, 2)
    amps = input_state.amps[None]
    for l in range(m):
        u, s = batch[:, l, 0], batch[:, l, 1]
        amps = _shift_axis(amps, d, m, l, s, phase_rows[u % d])
    return amps.reshape(shifts.shape[:-2] + (d**m,))


def _validate_pair(input_spec: InputStateSpec, spec: ChannelSpec) -> None:
    if input_spec.d != spec.d or input_spec.m != spec.m:
        raise ValueError(
            f"input (d={input_spec.d}, m={input_spec.m}) does not match "
            f"channel (d={spec.d}, m={spec.m})"
        )


def _copy_labels(spec: ChannelSpec, l: int) -> tuple[str, ...]:
    return tuple(f"a_{k}_{l}" for k in range(spec.n + 2))


def _attach_copy(state: StateVector, spec: ChannelSpec, l: int) -> StateVector:
    """The register with channel copy l tensored in last, unless it holds it."""
    if f"a_0_{l}" in state.labels:
        return state
    return tensor(state, channel_state(spec, labels=_copy_labels(spec, l)))


def _full_register(input_state: StateVector, spec: ChannelSpec) -> StateVector:
    """The input followed by all m channel copies, as one dense register."""
    state = input_state
    for l in range(1, spec.m + 1):
        state = _attach_copy(state, spec, l)
    return state


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
    input_state = input_spec.state()
    return _run(_full_register(input_state, spec), input_state, spec, seed, forced)


def run_structured(
    input_spec: InputStateSpec,
    spec: ChannelSpec,
    seed: int | None = None,
    forced: ForcedBranch | None = None,
) -> Transcript:
    """Same observable contract as run_protocol, without the full register.

    A seeded run is the closed-form sampler (_sample_runs) as a batch of
    one, fed by the first _draw_count(spec) random() values of the seed's
    Philox stream, the values the copy loop would read.  A forced run is
    the copy loop attaching each channel copy just before it is measured.
    """
    _validate_pair(input_spec, spec)
    input_state = input_spec.state()
    if forced is not None or seed is None:
        return _run(input_state, input_state, spec, seed, forced)
    uniforms = _rng_from_seed(seed).random(_draw_count(spec))
    sample = _sample_runs(input_state, spec, uniforms[None])
    return Transcript(
        seed=seed if isinstance(seed, int) else None,
        gbs=tuple(map(tuple, sample.gbs[0].tolist())),
        controllers=tuple(map(tuple, sample.controllers[0].tolist())),
        r_sums=tuple(sample.r_sums[0].tolist()),
        aux=int(sample.aux[0]),
        success=bool(sample.aux[0] == 0),
        fidelity=float(sample.fidelity[0]),
        probability=float(sample.probability[0]),
    )


def _run(
    state: StateVector,
    input_state: StateVector,
    spec: ChannelSpec,
    seed: int | None,
    forced: ForcedBranch | None,
) -> Transcript:
    """The protocol on the state engine: the reference for the sampler.

    The register holds the input and any channel copies; copy l is
    tensored in just before its measurements unless the register
    already holds it.  Then come the extraction and the aux measurement.
    The receiver is scored, not corrected: on success against the input
    pulled back through the correction, on failure (a diagnostic only:
    the uncorrected leftover) against the input.
    """
    if (forced is None) == (seed is None):
        raise ValueError("exactly one of seed or forced is required")
    rng = _rng_from_seed(seed) if forced is None else None

    d, m, n = spec.d, spec.m, spec.n
    gbs_mat = gbs_basis_matrix(d)
    x_mat = x_basis_matrix(d)
    probability = 1.0
    gbs_outcomes: list[tuple[int, int]] = []
    ctrl_outcomes: list[tuple[int, ...]] = []
    for l in range(1, m + 1):
        state = _attach_copy(state, spec, l)
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

    # Only the receiver's qudits remain, in copy order; the aux joins last.
    r_sums = tuple(sum(c) % d for c in ctrl_outcomes)
    out = measure_in_basis(
        _extract(state, spec), [m], _Z2, rng, None if forced is None else forced.aux
    )
    probability *= out.probability
    if out.value == 0:
        shifts = [(r + rho, s) for (r, s), rho in zip(gbs_outcomes, r_sums)]
        ref = _pullback(input_state, spec, shifts)
    else:
        ref = input_state.amps
    return Transcript(
        seed=seed if isinstance(seed, int) else None,
        gbs=tuple(gbs_outcomes),
        controllers=tuple(ctrl_outcomes),
        r_sums=r_sums,
        aux=out.value,
        success=out.value == 0,
        fidelity=float(min(1.0, abs(np.vdot(ref, out.post_state.amps)) ** 2)),
        probability=probability,
    )


class _Samples(NamedTuple):
    """Outcomes of a batch of sampled runs, one row per run."""

    gbs: np.ndarray  # (batch, m, 2): the sender's (r, s) per copy
    controllers: np.ndarray  # (batch, m, n): X outcomes per copy
    r_sums: np.ndarray  # (batch, m): controller sums mod d
    aux: np.ndarray  # (batch,): 0 heralds success
    fidelity: np.ndarray  # (batch,)
    probability: np.ndarray  # (batch,): probability of the realized branch


def _draw_count(spec: ChannelSpec) -> int:
    """Uniforms one sampled run reads: per copy the sender's and the n
    controllers' measurements, then the aux measurement."""
    return spec.m * (spec.n + 1) + 1


def _digit_marginal(amps: np.ndarray, d: int, l: int) -> np.ndarray:
    """Per row of amps (rows, d^m), the weight on each value of digit l."""
    density = amps.real**2 + amps.imag**2
    return density.reshape(len(amps), d**l, d, -1).sum(axis=(1, 3))


@lru_cache(maxsize=CHANNEL_CACHE_SIZE)
def _sampler_constants(spec: ChannelSpec) -> tuple[np.ndarray, ...]:
    """The sampler's spec-only tables, built once per spec, read-only.

    cross    -- cross[t, s] = |c_(t+s)|^2 / d^2, so that P(r, s) is
                (p @ cross)[s] for the input digit's marginal p, any r
    outcomes -- the s of each sender outcome r d + s
    sender   -- sender[u, j] = omega^(-u j) c_j / d: the sender's and the
                controllers' factor on digit j when r + rho = u
    controller -- a controller's outcome weights, 1/d each
    rotation -- (gamma, gamma+) over the receiver indices: each aux
                outcome's amplitude factor
    extraction -- rotation^2 transposed: the aux outcomes' weights
    """
    d = spec.d
    coeffs = np.asarray(spec.coeffs)
    j = np.arange(d)
    gamma, gamma_plus, _ = _receiver_constants(spec)
    tables = (
        np.abs(coeffs[(j[:, None] + j) % d]) ** 2 / d**2,
        np.tile(j, d),
        np.exp(-2j * np.pi * j[:, None] * j / d) * coeffs / d,
        np.full(d, 1.0 / d),
        np.stack((gamma, gamma_plus)),
        np.stack((gamma, gamma_plus), axis=1) ** 2,
    )
    return tuple(map(_read_only, tables))


def _sample_runs(input_state: StateVector, spec: ChannelSpec, uniforms) -> _Samples:
    """Sampled runs in closed form, one per row of uniforms.

    Row i of uniforms (batch, _draw_count(spec)) holds the random()
    values one run reads, in the copy loop's order: per copy the sender,
    then its n controllers; the aux last.  Every draw is state._sample's
    rule (_sample_rows), so the outcomes are the copy loop's.

    The register is the (batch, d^m) array of input and receiver digits:
    copy l's sender measurement moves input digit l to the receiver.
    Per copy, in closed form:
      * the sender's outcome has P(r, s) = d^-2 sum_t p_l(t) |c_(t+s)|^2,
        with p_l the register's digit-l marginal (uniform in r);
      * she leaves omega^(-(j-s) r) c_j psi_(j-s) / d on digit j of the
        GHZ state the controllers and the receiver share, which is
        omega^(-r j) c_j psi_(j-s) / d up to a global phase;
      * each controller's X outcome x has probability exactly 1/d and
        multiplies digit j by omega^(-x j), so the draws need no state
        and the phases fold into omega^(-(r + rho) j) with rho their sum
        mod d: one row of the sender table, then a roll by s.
    The register is never renormalized: a draw reads its weights
    relative to their total, and the squared norm after the sender's
    projections is the product of their probabilities, so the aux
    outcome's weight is the probability of the whole branch up to the
    controllers' d^(-m n).  Then the extraction's 2x2 rotations give the
    aux weights, and the receiver is scored against the input pulled
    back through the correction (_pullback), as _run scores it.
    """
    d, m, n = spec.d, spec.m, spec.n
    # The receiver with the aux qubit, or the sender's d^2 outcome weights.
    _check_size(max(2 * d**m, d * d))
    cross, outcomes, sender_rows, controller, rotation, extraction = (
        _sampler_constants(spec)
    )
    batch = len(uniforms)
    u = uniforms[:, :-1].reshape(batch, m, n + 1)
    controllers = _sample_rows(controller.cumsum(), u[..., 1:])
    rho = controllers.sum(axis=-1) % d
    gbs = np.empty((batch, m, 2), dtype=int)

    amps = input_state.amps[None]  # one row until the first draw
    for l in range(m):
        sender = _digit_marginal(amps, d, l) @ cross
        drawn = _sample_rows(sender[:, outcomes].cumsum(axis=-1), u[:, l, 0])
        r, s = np.divmod(drawn, d)
        gbs[:, l, 0], gbs[:, l, 1] = r, s
        amps = _shift_axis(amps, d, m, l, s, sender_rows[(r + rho[:, l]) % d])

    weights = (amps.real**2 + amps.imag**2) @ extraction
    aux = _sample_rows(weights.cumsum(axis=-1), uniforms[:, -1])
    weight = weights[np.arange(batch), aux]
    amps *= rotation[aux]
    # Success scores against the input pulled back through (r + rho, s),
    # failure (a diagnostic only) against the input itself.
    shifts = gbs.copy()
    shifts[..., 0] += rho
    refs = _pullback(input_state, spec, shifts)
    refs[aux == 1] = input_state.amps
    overlap = np.einsum("bj,bj->b", np.conjugate(refs, out=refs), amps)
    fidelity = np.minimum(1.0, np.abs(overlap) ** 2 / weight)
    probability = weight * float(d) ** (-m * n)
    return _Samples(gbs, controllers, rho, aux, fidelity, probability)


def _branch_count(spec: ChannelSpec) -> int:
    return spec.d ** (2 * spec.m) * spec.d ** (spec.n * spec.m) * 2


def _sender_branches(state, spec, gbs_mat, l=1, gbs=(), probability=1.0):
    """Depth-first walk of the sender's outcomes, copy by copy.

    Yields (gbs outcomes, probability, post state) per sender branch in
    lexicographic order.  Copy l is attached just before its GBS
    measurement, so only one root-to-leaf path of states is alive.
    """
    if l > spec.m:
        yield gbs, probability, state
        return
    state = _attach_copy(state, spec, l)
    pair = [state.index_of(f"chi_{l}"), state.index_of(f"a_0_{l}")]
    for out in branch_outcomes(state, pair, gbs_mat):
        if out.post_state is None:
            continue  # unreachable: every sender outcome has p > 0
        yield from _sender_branches(
            out.post_state,
            spec,
            gbs_mat,
            l + 1,
            gbs + ((out.value // spec.d, out.value % spec.d),),
            probability * out.probability,
        )


def _enumerate(
    input_spec: InputStateSpec,
    spec: ChannelSpec,
    correction_controllers: set[int] | None = None,
) -> tuple[_Branches, float, float]:
    """Walk every measurement branch exactly.

    Stage 1 walks the sender's GBS outcomes depth first (see
    _sender_branches).  Stage 2, per sender branch: extraction commutes
    with the controllers' measurements, so it runs first; then each
    controller axis is projected onto the X basis by one d x d
    contraction with x_basis_matrix, which leaves one receiver vector
    per (controllers, aux) leaf.  Every leaf's probability and fidelity
    are computed as arrays, scored as a sampled run scores them: success
    against the input pulled back through the leaf's correction (the
    same _pullback, through the sender's (r, s); the controllers' rho
    picks the row of _omega_table), failure against the input itself.
    Memory is one path of states plus two floats per leaf; records are
    built on demand by _Branches.

    correction_controllers restricts which controllers' outcomes enter
    the receiver's correction (None = all); the branch probabilities are
    unaffected, only the applied correction and hence the fidelity.
    Returns the leaves, the success probability and the total
    probability, both summed in leaf order.
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

    # Controller-outcome bookkeeping, shared by every sender branch: the
    # per-copy sums of the cooperating controllers' outcomes index the
    # reference rows.
    n_ctrl = d ** (m * n)
    digits = _controller_digits(np.arange(n_ctrl), d, m, n)
    cooperating = sorted(correction_controllers)
    r_sum_rows = digits[:, :, cooperating].sum(axis=2) % d
    r_sum_index = r_sum_rows @ (d ** np.arange(m - 1, -1, -1))

    input_state = input_spec.state()
    omega_table = _omega_table(d, m)
    input_bra = input_state.amps.conj()
    x_bra = x_basis_matrix(d).conj()
    ctrl_labels = [f"a_{q}_{l}" for l in range(1, m + 1) for q in range(1, n + 1)]
    receiver_labels = [f"a_{n + 1}_{l}" for l in range(1, m + 1)]

    gbs_list = []
    probabilities = []
    fidelities = []
    for gbs_outcomes, prob, state in _sender_branches(
        input_state, spec, gbs_basis_matrix(d)
    ):
        extracted = _extract(state, spec)
        # Controllers first, then aux and receivers.  Each step contracts
        # the leading controller axis with the X bra and moves its
        # outcome last, so the outcomes end up copy-major at the back.
        order = [extracted.index_of(x) for x in ctrl_labels + ["aux"] + receiver_labels]
        amps = extracted.amps.reshape(extracted.dims).transpose(order)
        for _ in ctrl_labels:
            amps = amps.reshape(d, -1).T @ x_bra.T
        coeffs = amps.reshape(2, d**m, n_ctrl)  # (aux, receiver, controllers)
        probs = np.einsum("ark,ark->ka", coeffs, coeffs.conj()).real

        # Success leaves overlap the input pulled back through their
        # correction, failure leaves the uncorrected input.
        refs = omega_table * _pullback(input_state, spec, gbs_outcomes)
        overlaps = np.stack(
            (
                np.einsum("kr,rk->k", refs[r_sum_index].conj(), coeffs[0]),
                input_bra @ coeffs[1],
            ),
            axis=1,
        )
        empty = probs < 1e-18
        fid = np.minimum(1.0, np.abs(overlaps) ** 2 / np.where(empty, 1.0, probs))
        fid[empty] = np.nan

        gbs_list.append(gbs_outcomes)
        probabilities.append(prob * probs.reshape(-1))
        fidelities.append(fid.reshape(-1))

    probability = np.concatenate(probabilities)
    fidelity = np.concatenate(fidelities)
    # Sequential sums in leaf order, as branch-by-branch addition gives;
    # success counts the non-empty aux-0 leaves (even positions).
    success = probability[0::2][~np.isnan(fidelity[0::2])]
    success_probability = float(np.cumsum(success)[-1]) if success.size else 0.0
    total = float(np.cumsum(probability)[-1])
    branches = _Branches(tuple(gbs_list), d, m, n, probability, fidelity)
    return branches, success_probability, total


def enumerate_branches(
    input_spec: InputStateSpec, spec: ChannelSpec
) -> BranchReport:
    """Exact oracle: every (sender, controller, aux) outcome with its
    exact probability and output fidelity.

    report.branches is a read-only sequence that builds each
    BranchRecord when it is read; len() costs nothing.
    """
    branches, success_probability, total = _enumerate(input_spec, spec)
    return BranchReport(
        branches=branches,
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
    branches, success_probability, _ = _enumerate(
        input_spec, spec, correction_controllers=cooperating
    )
    if success_probability <= 0.0:
        raise ValueError("no success branch has positive probability")
    # Success leaves sit at even positions (aux = 0).
    weighted = np.cumsum(branches.probability[0::2] * branches.fidelity[0::2])[-1]
    return float(weighted / success_probability)
