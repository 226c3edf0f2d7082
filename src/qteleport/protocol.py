"""Multiparty-controlled teleportation of an m-qudit state.

Cast: a sender holding the unknown m-qudit state and one qudit of each
channel copy, n controllers, and a receiver with a two-level auxiliary
system whose outcome 0 heralds success.

Map: run_structured samples or forces runs in closed form (_sample_runs,
in batches for the montecarlo campaign); run_protocol is the dense
reference on the state engine and the paper's matrices (_run);
enumerate_branches is the exact oracle (_enumerate), and a sweep point
runs its stage 1 alone (_stage_one_success).  The guards
(_check_input_size, _check_oracle) run before any array of their size
is built.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

import numpy as np

from ._streams import standard_normals
from .primitives import (
    CHANNEL_CACHE_SIZE,
    DIMENSION_CACHE_SIZE,
    ChannelSpec,
    _channel_amps,
    _phase_rows,
    _read_only,
    _receiver_constants,
    _View,
    channel_state,
    correction_unitary,
    gbs_basis_matrix,
    u_max_m,
    x_basis_matrix,
)
from .state import (
    SizeGuardError,
    StateVector,
    _check_size,
    _draw,
    _normalized,
    _rng_from_seed,
    apply,
    fidelity,
    make_state,
    max_amplitudes,
    measure_in_basis,
    record,
    tensor,
)

# Not used here: the branch listing stays importable from this module
# because perfbench/tracer.py wraps it under this name.
from .state import branch_outcomes  # noqa: F401

ENUMERATION_GUARD = 10**6
# The oracle's arrays hold at most this many entries or the leaf count:
# d <= 4, m <= 2 runs in one chunk, and the enumeration guard bounds memory.
ORACLE_CHUNK_AMPLITUDES = 2**16


class EnumerationGuardError(SizeGuardError):
    """Branch count exceeds the exhaustive-enumeration guard."""


@record
class InputStateSpec:
    """The unknown m-qudit state to teleport: d^m finite amplitudes, unit
    norm.  The one validator of beta, as ChannelSpec is of coeffs."""

    d: int
    m: int
    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=complex).reshape(-1)
        if beta.size != self.d**self.m:
            raise ValueError(f"length must be d^m = {self.d**self.m}, got {beta.size}")
        if not np.all(np.isfinite(beta)):
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore"):  # an overflow fails the norm check
            norm = float(np.linalg.norm(beta))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"amplitudes must satisfy sum|beta|^2 = 1, got {norm**2!r}")
        object.__setattr__(self, "beta", _read_only(beta))

    @classmethod
    def basis(cls, d: int, m: int, index: int) -> "InputStateSpec":
        return cls(d, m, np.eye(1, d**m, index, dtype=complex)[0])

    @classmethod
    def random(cls, d: int, m: int, seed: int) -> "InputStateSpec":
        """Haar-like random state: Generator(Philox(seed)).standard_normal
        called twice for the d^m real and imaginary parts, normalized."""
        return cls(d, m, _random_amplitudes(standard_normals([seed], 2 * d**m)[0], d**m))

    def state(self) -> StateVector:
        """The input register chi_1..chi_m; built once per spec, read-only."""
        return self._register

    @cached_property
    def _register(self) -> StateVector:
        labels = tuple(f"chi_{l + 1}" for l in range(self.m))
        register = make_state((self.d,) * self.m, self.beta, labels)
        _read_only(register.amps)
        return register


def _random_amplitudes(normals: np.ndarray, size: int) -> np.ndarray:
    """InputStateSpec.random's amplitudes from 2 size normals, summed and scaled in place."""
    raw = 1j * normals[size : 2 * size]
    raw += normals[:size]
    raw /= np.linalg.norm(raw)
    return raw


@record
class ForcedBranch:
    """Forced measurement outcomes for one deterministic run.

    gbs          -- per copy (r, s) sender outcomes
    controllers  -- per copy, per controller X-basis outcomes
    aux          -- receiver's auxiliary outcome, 0 (success) or 1
    """

    gbs: tuple[tuple[int, int], ...]
    controllers: tuple[tuple[int, ...], ...]
    aux: int


@record
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


@record
class BranchRecord:
    gbs: tuple[tuple[int, int], ...]
    controllers: tuple[tuple[int, ...], ...]
    aux: int
    probability: float
    fidelity: float


class _Branches(_View):
    """Read-only view of an enumeration's leaves, in (gbs, controllers,
    aux) product order.

    probability -- per-leaf branch probability
    fidelity    -- per-leaf output fidelity, NaN where the branch is empty
    """

    def __init__(self, d: int, m: int, n: int, probability, fidelity):
        self._d, self._m, self._n = d, m, n
        self._per_sender = 2 * d ** (m * n)
        self.probability = _read_only(probability)
        self.fidelity = _read_only(fidelity)

    def __len__(self) -> int:
        return self.probability.size

    def _item(self, i: int) -> BranchRecord:
        sender, leaf = divmod(i, self._per_sender)
        ctrl, aux = divmod(leaf, 2)
        return BranchRecord(
            tuple(map(tuple, _digits(sender, self._d, self._m, 2).tolist())),
            tuple(map(tuple, _digits(ctrl, self._d, self._m, self._n).tolist())),
            aux,
            float(self.probability[i]),
            float(self.fidelity[i]),
        )


def _digits(index, d: int, m: int, k: int) -> np.ndarray:
    """The base-d digits of index (int or array), shape (..., m, k):
    copy-major, k per copy.  A controller-leaf index gives its per-copy
    controller outcomes (k = n), a sender index its per-copy (r, s)."""
    place = d ** np.arange(m * k - 1, -1, -1)
    index = np.asarray(index)
    return (index[..., None] // place % d).reshape(index.shape + (m, k))


@record
class BranchReport:
    """Exhaustive branch listing with exact probabilities."""

    branches: Sequence[BranchRecord]
    success_probability: float
    theoretical: float
    total_probability: float


def theoretical_success_probability(spec: ChannelSpec) -> float:
    """(min_j |c_j|^2)^m."""
    return spec.min_weight**spec.m


def _omega_table(d: int, m: int) -> np.ndarray:
    """m-fold Kronecker power of F[rho, j] = omega^(-rho j), copy-major."""
    j = np.arange(d)
    single = np.exp(-2j * np.pi * np.outer(j, j) / d)
    return reduce(np.kron, [single] * m)


def _gather(amps: np.ndarray, d: int, shifts, tables, kept: _Kept) -> np.ndarray:
    """The map the sender's outcomes leave, applied to amps, per table.

    shifts has shape (batch, m, 2): per run and copy a row index u and a
    shift s.  Receiver digit J_l comes from digit J_l - s_l, so table
    k's map sends amps to prod_l tables[k][u_l, J_l] amps[J - S]: the
    source index and the row products grow by Kronecker products from
    the last copy backwards (the long axis stays the inner one), then
    amps is gathered once for every table.  Returns (tables, batch, d^m).

    The levels alternate between kept's complex slots and the index
    between its intp slots, the last of each in slot 0; the gathered
    input goes to complex slot 1, which the last level has freed.  So a
    kept reused across calls makes no array again, and the result is
    valid until kept's next use.
    """
    batch, m = shifts.shape[:2]
    tables = np.stack(tables)
    j = np.arange(d)
    index = np.zeros((batch, 1), dtype=np.intp)
    rows = np.ones((len(tables), batch, 1))
    for l in range(m - 1, -1, -1):
        u, s = shifts[:, l, 0] % d, shifts[:, l, 1]
        digit = (j - s[:, None]) % d * d ** (m - 1 - l)
        shape = (batch, d, d ** (m - 1 - l))
        out = kept.take(shape, np.intp, l % 2)
        index = np.add(digit[:, :, None], index[:, None], out=out).reshape(batch, -1)
        out = kept.take((len(tables),) + shape, complex, l % 2)
        rows = np.multiply(tables[:, u, :, None], rows[:, :, None], out=out)
        rows = rows.reshape(len(tables), batch, -1)
    # mode="clip" lets take write straight into out; every index is in range.
    rows *= np.take(amps, index, out=kept.take(index.shape, complex, 1), mode="clip")
    return rows


def _pullback(input_state: StateVector, spec: ChannelSpec, shifts) -> np.ndarray:
    """C^dagger |input> (flat, copy-major) for per-copy (u, s) pairs.

    The correction on copy l, U_{u, d-s} diag(e^{-i phi}), maps psi_k to
    omega^{u(k+s)} e^{-i phi_(k+s)} psi_(k+s); its adjoint maps x_j to
    omega^(-u j) e^{i phi_j} x_(j-s), a shift by s and a phase row.  So
    |<row|psi>|^2 is the fidelity of the corrected receiver psi, and no
    closed form applies the correction: a success scores the receiver
    against the pulled-back input, a failure (a diagnostic only: the
    uncorrected leftover) against the input itself.  A sampled run pulls
    back through (r + rho, s); the oracle through (r, s), and
    _omega_table supplies every rho's omega^(-rho j).  shifts has shape
    (..., m, 2), the result (..., d^m): one _gather.
    """
    shifts = np.asarray(shifts)
    flat = shifts.reshape(-1, spec.m, 2)
    (pulled,) = _gather(input_state.amps, spec.d, flat, (_phase_rows(spec),), _Kept())
    return pulled.reshape(shifts.shape[:-2] + (spec.d**spec.m,))


def _validate_pair(input_spec: InputStateSpec, spec: ChannelSpec) -> None:
    if input_spec.d != spec.d or input_spec.m != spec.m:
        raise ValueError(
            f"input (d={input_spec.d}, m={input_spec.m}) does not match "
            f"channel (d={spec.d}, m={spec.m})"
        )


def _attach_copy(state: StateVector, spec: ChannelSpec, l: int) -> StateVector:
    """The register with channel copy l tensored in last, unless it holds it."""
    if f"a_0_{l}" in state.labels:
        return state
    labels = tuple(f"a_{k}_{l}" for k in range(spec.n + 2))
    return tensor(state, channel_state(spec, labels=labels))


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
    state = input_state = input_spec.state()
    for l in range(1, spec.m + 1):
        state = _attach_copy(state, spec, l)
    return _run(state, input_state, spec, seed, forced)


def run_structured(
    input_spec: InputStateSpec,
    spec: ChannelSpec,
    seed: int | None = None,
    forced: ForcedBranch | None = None,
) -> Transcript:
    """Same observable contract as run_protocol, in closed form: the
    sampler (_sample_runs) as a batch of one.  A seeded run reads the
    first _draw_count(spec) random() values of the seed's Philox stream,
    the values the copy loop would read; a forced run reads the branch's
    outcome indices."""
    _validate_pair(input_spec, spec)
    draws = _forced_draws(spec, seed, forced)
    if draws is None:
        draws = _rng_from_seed(seed).random(_draw_count(spec))
    sample = _sample_runs(input_spec.state(), spec, draws[None])
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


def _forced_draws(
    spec: ChannelSpec, seed: int | None, forced: ForcedBranch | None
) -> np.ndarray | None:
    """A forced branch as _sample_runs' draw row, checked against the
    spec; None for a seeded run.  Exactly one of seed and forced is
    required."""
    if (forced is None) == (seed is None):
        raise ValueError("exactly one of seed or forced is required")
    if forced is None:
        return None
    d, m, n = spec.d, spec.m, spec.n
    integral = (int, np.integer)
    for name, copies, width in (("gbs", forced.gbs, 2), ("controllers", forced.controllers, n)):
        if len(copies) != m:
            raise ValueError(f"forced {name} has {len(copies)} copies, not {m}")
        for l, outcomes in enumerate(copies):
            if len(outcomes) != width:
                raise ValueError(f"forced {name}[{l}] has {len(outcomes)} outcomes, not {width}")
            if not all(isinstance(x, integral) and 0 <= x < d for x in outcomes):
                raise ValueError(f"forced {name}[{l}] = {outcomes} is not in 0..{d - 1}")
    if not (isinstance(forced.aux, integral) and forced.aux in (0, 1)):
        raise ValueError(f"forced aux = {forced.aux!r} is not 0 or 1")
    gbs = np.array(forced.gbs, dtype=int).reshape(m, 2)
    controllers = np.array(forced.controllers, dtype=int).reshape(m, n)
    return np.append(np.column_stack((gbs @ (d, 1), controllers)), forced.aux)


def _run(
    state: StateVector,
    input_state: StateVector,
    spec: ChannelSpec,
    seed: int | None,
    forced: ForcedBranch | None,
) -> Transcript:
    """The protocol on the state engine: the dense reference for the
    closed form.

    The register holds the input and any channel copies; copy l is
    tensored in just before its measurements unless the register
    already holds it, so on the input alone the full register never
    exists.  Every measurement reads one uniform of the seed's stream or
    the next forced outcome, in _sample_runs' order.  Then u_max_m acts
    on the aux in |0> and the receivers, the aux is measured, a success
    gets correction_unitary(d, r + rho, d - s) diag(e^{-i phi}) per copy,
    and either is scored by its fidelity with the input.
    """
    draws = _forced_draws(spec, seed, forced)
    rng = _rng_from_seed(seed) if draws is None else None
    picks = iter([None] * _draw_count(spec) if draws is None else draws.tolist())

    d, m, n = spec.d, spec.m, spec.n
    gbs_mat = gbs_basis_matrix(d)
    x_mat = x_basis_matrix(d)
    probability = 1.0
    gbs_outcomes: list[tuple[int, int]] = []
    ctrl_outcomes: list[tuple[int, ...]] = []
    for l in range(1, m + 1):
        state = _attach_copy(state, spec, l)
        pair = [state.index_of(f"chi_{l}"), state.index_of(f"a_0_{l}")]
        out = measure_in_basis(state, pair, gbs_mat, rng, next(picks))
        state = out.post_state
        probability *= out.probability
        gbs_outcomes.append((out.value // d, out.value % d))
        copy_ctrl = []
        for q in range(1, n + 1):
            target = [state.index_of(f"a_{q}_{l}")]
            out = measure_in_basis(state, target, x_mat, rng, next(picks))
            state = out.post_state
            probability *= out.probability
            copy_ctrl.append(out.value)
        ctrl_outcomes.append(tuple(copy_ctrl))

    # The receivers remain, in copy order; u_max_m's basis puts the aux first.
    r_sums = tuple(sum(c) % d for c in ctrl_outcomes)
    state = tensor(state, make_state((2,), [1.0, 0.0], ("aux",)))
    state = apply(state, u_max_m(spec), [m, *range(m)])
    out = measure_in_basis(state, [m], np.eye(2), rng, next(picks))
    probability *= out.probability
    received = out.post_state
    if out.value == 0:
        phase_fix = np.diag(np.exp(-1j * np.angle(spec.coeffs)))
        for l, ((r, s), rho) in enumerate(zip(gbs_outcomes, r_sums)):
            received = apply(received, correction_unitary(d, r + rho, d - s) @ phase_fix, [l])
    return Transcript(
        seed=seed if isinstance(seed, int) else None,
        gbs=tuple(gbs_outcomes),
        controllers=tuple(ctrl_outcomes),
        r_sums=r_sums,
        aux=out.value,
        success=out.value == 0,
        fidelity=fidelity(input_state, received),
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


@lru_cache(maxsize=CHANNEL_CACHE_SIZE)
def _sampler_constants(spec: ChannelSpec) -> tuple[np.ndarray, ...]:
    """The sampler's sender-side tables, built once per spec, read-only
    (the receiver's are _receiver_constants' and _phase_rows').

    cross    -- cross[t, s] = a_(t+s) = |c_(t+s)|^2 / d^2, symmetric
    outcomes -- the s of each sender outcome r d + s
    sender   -- sender[u, j] = omega^(-u j) c_j / d: the sender's and the
                controllers' factor on digit j when r + rho = u
    controller -- a controller's outcome weights, 1/d each
    """
    d = spec.d
    coeffs = np.asarray(spec.coeffs)
    j = np.arange(d)
    tables = (
        np.abs(coeffs[(j[:, None] + j) % d]) ** 2 / d**2,
        np.tile(j, d),
        np.exp(-2j * np.pi * j[:, None] * j / d) * coeffs / d,
        np.full(d, 1.0 / d),
    )
    return tuple(map(_read_only, tables))


def _sample_runs(
    input_state: StateVector, spec: ChannelSpec, draws, chunk: int = 0, span: int = 0
) -> _Samples:
    """Runs in closed form, with no state engine: one per row of draws.

    Row i of draws (batch, _draw_count(spec)) holds one run's draws in
    the copy loop's order: per copy the sender's, then its n
    controllers'; the aux last.  Each is read by state._draw, the state
    engine's rule: a uniform (float), so a seed's stream gives the copy
    loop's outcomes, or a forced outcome index (int): the sender's
    r d + s, each controller's x, the aux.

    Copy l's sender measurement moves input digit l to the receiver.
    Per copy, in closed form:
      * the sender's outcome has P(r, s) = sum_t p_l(t) a_(t+s), with
        a_j = |c_j|^2 / d^2 and p_l the digit-l marginal of the input's
        density weighted by the copies before (uniform in r);
      * she leaves omega^(-r j) c_j psi_(j-s) / d on digit j of the GHZ
        state the controllers and the receiver share, up to a global phase;
      * each controller's X outcome x has probability exactly 1/d and
        multiplies digit j by omega^(-x j), so the draws need no state
        and the phases fold into omega^(-(r + rho) j), with rho their
        sum mod d: one row of the sender table.
    So the draws read only the density, kept in the input's frame as
    rest (rows, d, d^(m-l-1)): its digit-l marginal is rest.sum(-1),
    and after the draw digit l is contracted away with a_(t+s), so the
    array shrinks by d per copy.  One _gather then gives the receiver
    (sender rows) and the input pulled back through (r + rho, s) (phase
    rows).  Nothing is renormalized: a draw reads its weights relative
    to their total, so the aux weight is the branch probability up to
    the controllers' d^(-m n).

    The rows of draws are one block (by default also one pass and chunk):
      * a pass of at most span runs makes the controllers' and the
        sender's draws; rest keeps a row per distinct prefix of s
        outcomes (np.unique per copy: at most min(span, d^l) rows), and
        every step is per row, so no float depends on the pass;
      * a chunk of at most chunk runs goes through the receiver, whose
        (chunk, d^m) @ extraction matmul pins the floats by its row
        count: a run's are those of a call on its chunk alone.  _gather's
        arrays and the squared moduli live in one _Kept for the call.
    """
    d, m, n = spec.d, spec.m, spec.n
    _check_input_size(d, m)
    cross, outcomes, sender_rows, controller = _sampler_constants(spec)
    rotation, extraction = _receiver_constants(spec)
    runs = len(draws)
    chunk, span = chunk or max(runs, 1), span or max(runs, 1)
    per_copy = draws[:, :-1].reshape(runs, m, n + 1)
    controllers = np.empty((runs, m, n), dtype=int)
    gbs = np.empty((runs, m, 2), dtype=int)

    amps = input_state.amps
    density = amps.real**2 + amps.imag**2
    for lo in range(0, runs, span):
        part = slice(lo, lo + span)
        sent = per_copy[part, :, 0]
        controllers[part] = _draw(controller, per_copy[part, :, 1:])
        rest, group = density[None], np.zeros(len(sent), dtype=np.intp)
        for l in range(m):
            rest = rest.reshape(len(rest), d, d ** (m - l - 1))
            sender = (rest.sum(axis=-1) @ cross)[:, outcomes]
            drawn = _draw(sender if len(rest) == 1 else sender[group], sent[:, l])
            gbs[part, l, 0], gbs[part, l, 1] = np.divmod(drawn, d)
            if l < m - 1:  # the last copy's contraction is read by no draw
                keys, group = np.unique(group * d + gbs[part, l, 1], return_inverse=True)
                rest = cross[keys % d][:, None] @ (rest if len(rest) == 1 else rest[keys // d])
    del density  # freed before the receiver's arrays are made

    rho = controllers.sum(axis=-1) % d
    shifts = np.stack((gbs[..., 0] + rho, gbs[..., 1]), axis=-1)
    tables, kept = (sender_rows, _phase_rows(spec)), _Kept()
    aux, weight, overlap = np.empty(runs, dtype=int), np.empty(runs), np.empty(runs, complex)
    for lo in range(0, runs, chunk):
        part = slice(lo, lo + chunk)
        receiver, refs = _gather(amps, d, shifts[part], tables, kept)
        # re^2 and im^2 in complex slot 1, which _gather's last read freed
        re2, im2 = kept.take(receiver.shape, complex, 1).view(float).reshape(2, *receiver.shape)
        np.add(np.square(receiver.real, out=re2), np.square(receiver.imag, out=im2), out=re2)
        weights = re2 @ extraction
        aux[part] = chosen = _draw(weights, draws[part, -1])
        weight[part] = weights[np.arange(len(chosen)), chosen]
        receiver *= np.take(rotation, chosen, axis=0, out=im2, mode="clip")
        refs[chosen == 1] = amps  # a failure scores against the input (_pullback)
        overlap[part] = np.einsum("bj,bj->b", np.conjugate(refs, out=refs), receiver)
    fidelity = np.minimum(1.0, np.abs(overlap) ** 2 / weight)
    probability = weight * float(d) ** (-m * n)
    return _Samples(gbs, controllers, rho, aux, fidelity, probability)


def _branch_count(spec: ChannelSpec) -> int:
    return spec.d ** (2 * spec.m) * spec.d ** (spec.n * spec.m) * 2


def _check_input_size(d: int, m: int) -> None:
    """The amplitude guard on the sampler's and the oracle's widest array:
    the input with the aux qubit (2 d^m amplitudes) or the sender's d^2
    outcome weights.  An m at least the guard's bit length exceeds it for
    every d >= 2, so d**m is computed only for smaller m."""
    limit = max_amplitudes()
    small = m < limit.bit_length()
    need = max(2 * d**m, d * d) if small else None
    _check_size(need, f"an input of {d}^{m} amplitudes", limit)


def _check_branches(d: int, m: int, n: int) -> None:
    """The enumeration guard on the 2 d^(m (n + 2)) leaves.  Every d >= 2
    exceeds it once the exponent reaches its bit length: no power then."""
    exponent = m * (n + 2)
    small = exponent < ENUMERATION_GUARD.bit_length()
    if not small or 2 * d**exponent > ENUMERATION_GUARD:
        count = 2 * d**exponent if small else f"2 * {d}^{exponent}"
        raise EnumerationGuardError(
            f"{count} branches exceed the enumeration guard of {ENUMERATION_GUARD}"
        )


def _check_tables(d: int, n: int) -> None:
    """The amplitude guard on the oracle's per-copy arrays, one reading of
    the guard for both: a copy's tensor T[k, g, rho, j] (d^4 entries, d^5
    with controllers; the GBS basis holds d^4) and the channel copy it is
    made from (d^(n+2) amplitudes, more than the controllers' d x d^n
    bras).  Run after _check_branches, which bounds d and n."""
    limit = max_amplitudes()
    _check_size(d**4 * (d if n else 1), f"the oracle's copy tensor at d = {d}, n = {n}", limit)
    _check_size(d ** (n + 2), f"the oracle's channel copy at d = {d}, n = {n}", limit)


def _check_oracle(d: int, m: int, n: int) -> None:
    """Every guard of the oracle at (d, m, n), before anything of its size
    is built: the enumeration guard, the per-copy arrays, the input."""
    _check_branches(d, m, n)
    _check_tables(d, n)
    _check_input_size(d, m)


@lru_cache(maxsize=DIMENSION_CACHE_SIZE)
def _bell_entries(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_copy_tensor's sender tables for one d, built once, read-only.

    column     -- column[k, g] = (k + s) mod d for g = r d + s: the one
                  sender digit on which GBS bra g meets input digit k
    real, imag -- the conjugated GBS bra's entry there, shaped
                  (d, d^2, 1, 1) to broadcast over a copy's (rho, j)

    The entries are read from gbs_basis_matrix: each of its rows is
    divided by its norm, which is not exactly 1 (at d = 2 for every
    row), so the dense row's sum decides their bits."""
    k = np.arange(d)
    column = (k[:, None] + np.tile(k, d)) % d
    bras = gbs_basis_matrix(d).reshape(d * d, d, d)  # [g, k, sender]
    sender = bras[np.arange(d * d), k[:, None], column].conj()[..., None, None]
    return tuple(map(_read_only, (column, sender.real, sender.imag)))


@lru_cache(maxsize=DIMENSION_CACHE_SIZE)
def _controller_bras(d: int, n: int) -> np.ndarray:
    """The n controllers' conjugated X bras onto the outcomes (rho, 0,
    ..., 0), one Kronecker product (rho, d^n), built once per (d, n),
    read-only; ones((1, 1)) with no controllers."""
    if not n:
        return _read_only(np.ones((1, 1)))
    x_bra = x_basis_matrix(d).conj()
    return _read_only(reduce(np.kron, [x_bra[:1]] * (n - 1), x_bra))


def _copy_tensor(spec: ChannelSpec) -> np.ndarray:
    """T[k, g, rho, j]: one channel copy, its sender projected onto GBS
    outcome g and its controllers onto X outcomes summing to rho, as a
    map from input digit k to receiver digit j.

    The copy's controllers act only through rho = sum x mod d, the
    phase omega^(-rho j) their outcomes put on GHZ digit j (_sample_runs):
    the outcomes (rho, 0, ..., 0) stand for every outcome with that sum.
    With n = 0 there is only rho = 0.

    GBS bra g meets input digit k on one sender digit, so T is that bra
    entry times the copy's row on that digit.  The complex product is
    written out in real parts, each + 0.0: the floats, signed zeros
    included, of a sum over every sender digit, as an einsum over the
    dense bras gives them.
    """
    d, n = spec.d, spec.n
    column, br, bi = _bell_entries(d)
    # (sender, controllers, receiver) -> (sender, rho, receiver)
    copy = _controller_bras(d, n) @ _channel_amps(spec).reshape(d, d**n, d)
    rows = copy[column]  # [k, g, rho, j]
    out = np.empty(rows.shape, dtype=complex)
    out.real = br * rows.real - bi * rows.imag + 0.0
    out.imag = br * rows.imag + bi * rows.real + 0.0
    return out


class _Kept:
    """Large temporaries kept across the points of one sweep run (stage
    1's last matmul output and its real density in group order) or the
    chunks of one _sample_runs call (_gather's levels, index and
    gathered input, and the squared moduli).  take() hands out the front
    of the kept array of a dtype and slot and makes a new one only when
    a point or chunk needs more, so those of one size fault the pages in
    once.  The arrays go when the caller drops this object; no module
    holds one."""

    def __init__(self):
        self._arrays: dict[tuple[type, int], np.ndarray] = {}

    def take(self, shape, dtype: type, slot: int = 0) -> np.ndarray:
        """A C-ordered array of shape and dtype; its contents are stale."""
        key, size = (dtype, slot), math.prod(shape)
        kept = self._arrays.get(key)
        if kept is None or kept.size < size:
            kept = self._arrays[key] = None  # the smaller array goes before the larger is made
            kept = self._arrays[key] = np.empty(size, dtype)
        return kept[:size].reshape(shape)


def _product(input_amps: np.ndarray, tensors) -> np.ndarray:
    """The input after each copy's tensor T[k, g, rho, j], one copy at a
    time, as the matmuls leave it: each copy's (g, rho, j) in turn."""
    amps = input_amps
    for t in tensors:
        # (copies to come, copies done) -> (copies to come, copies done, g rho j)
        amps = amps.reshape(len(t), -1).T @ t.reshape(len(t), -1)
    return amps


def _layout(tensors) -> tuple[list[int], list[int], list[int]]:
    """_product's output shape (each copy's g, rho, j in turn), the axis
    order that groups it as (sender outcomes, rho vector, receiver
    digits), each copy-major, and the three groups' sizes."""
    shape = [size for t in tensors for size in t.shape[1:]]
    order = [axis for part in range(3) for axis in range(part, len(shape), 3)]
    sizes = [math.prod(shape[part::3]) for part in range(3)]
    return shape, order, sizes


def _joint_amplitudes(input_amps: np.ndarray, tensors) -> np.ndarray:
    """The unnormalized amplitude of every (sender outcomes, rho vector,
    receiver digits) of the copies' tensors."""
    shape, order, sizes = _layout(tensors)
    return _product(input_amps, tensors).reshape(shape).transpose(order).reshape(sizes)


def _joint_weights(
    input_amps: np.ndarray, tensors, extraction: np.ndarray, kept: _Kept
) -> np.ndarray:
    """The weights of _joint_amplitudes' groups, the same floats, with no
    complex copy reordered: re^2 + im^2 is formed in place where the last
    matmul wrote the amplitudes, and only that real density is reordered.
    The last matmul and the reordering write into kept's arrays, and the
    weights go over the amplitudes once those are read; the matmuls keep
    _product's shapes, and so its floats.  The weights are valid until
    kept's next use."""
    shape, order, sizes = _layout(tensors)
    *head, last = tensors
    left = _product(input_amps, head).reshape(len(last), -1).T
    right = last.reshape(len(last), -1)
    parts = np.matmul(left, right, out=kept.take((len(left), right.shape[1]), complex))
    parts = parts.view(float).reshape(shape + [2])
    np.square(parts, out=parts)
    density = parts[..., 0]
    np.add(density, parts[..., 1], out=density)
    grouped = kept.take([shape[axis] for axis in order], float)
    np.copyto(grouped, density.transpose(order))
    weights = parts.reshape(-1)[: sizes[0] * sizes[1] * extraction.shape[1]]
    return np.matmul(grouped.reshape(sizes), extraction, out=weights.reshape(*sizes[:2], -1))


def _stage_one(spec: ChannelSpec):
    """Stage 1 of the oracle at a point whose guards have passed: the
    chunks of sender outcomes (the leading copies' fixed) that every
    (sender, rho, aux) group is weighed in.  Returns the controller leaves
    per rho vector, and per chunk its first index and its copies'
    tensors, from a generator: _joint_weights turns a chunk into its
    weights (chunk, rho, aux), _weighed_amplitudes into its amplitudes
    (chunk, rho, j) and weights, each given the input's amplitudes."""
    d, m, n = spec.d, spec.m, spec.n
    per_copy = _copy_tensor(spec)
    sums = per_copy.shape[2] ** m  # rho vectors: d^m, or 1 with no controllers
    per_group = d ** (m * n) // sums
    budget = max(_branch_count(spec), ORACLE_CHUNK_AMPLITUDES)
    free = max(q for q in range(m + 1) if d ** (2 * q) * sums * d**m <= budget)
    chunk = d ** (2 * free)

    def chunks():
        for lo in range(0, d ** (2 * m), chunk):
            # The leading copies' outcomes g = r d + s: lo // chunk in base d^2.
            head, fixed = lo // chunk, []
            for _ in range(m - free):
                head, g = divmod(head, d * d)
                fixed.insert(0, per_copy[:, [g]])
            yield lo, fixed + [per_copy] * free

    return per_group, chunks()


def _weighed_amplitudes(input_amps: np.ndarray, chunks, extraction: np.ndarray):
    """For each of _stage_one's chunks: its first index, amplitudes
    (chunk, rho, j) and weights (chunk, rho, aux).  A generator, so a
    chunk's arrays are freed only once the next chunk's are made: freed
    earlier, at d = 2, m = 8, n = 0 they let glibc trim its heap and
    fault it back in every chunk (40,128 against 2,624 minor faults a
    warm call)."""
    for lo, tensors in chunks:
        amps = _joint_amplitudes(input_amps, tensors)
        density = amps.real**2
        density += amps.imag**2  # in place: one temporary fewer, the same floats
        yield lo, amps, density @ extraction


def _success_probability(input_spec: InputStateSpec, spec: ChannelSpec) -> float:
    """The oracle's success probability from stage 1 alone, no leaf built:
    enumerate_branches' sum over every group in its order, the same float.
    The guards run first, then _stage_one_success with a _Kept of its own."""
    _validate_pair(input_spec, spec)
    _check_oracle(spec.d, spec.m, spec.n)
    return _stage_one_success(input_spec, spec, _Kept())


def _stage_one_success(input_spec: InputStateSpec, spec: ChannelSpec, kept: _Kept) -> float:
    """_success_probability at a point whose guards have passed (a sweep's
    load walk checks every point it visits, so no guard runs again), stage
    1's large temporaries in kept's arrays.  It builds no input register:
    it reads beta normalized as make_state normalizes the register."""
    per_group, chunks = _stage_one(spec)
    extraction = _receiver_constants(spec)[1]
    amps = _normalized(input_spec.beta)
    parts = (
        np.sum(_joint_weights(amps, tensors, extraction, kept)[..., 0], dtype=np.longdouble)
        for _, tensors in chunks
    )
    return float(sum(parts, np.longdouble(0.0)) * per_group)


def _enumerate(
    input_spec: InputStateSpec, spec: ChannelSpec, withheld=()
) -> tuple[_Branches, float, float]:
    """Every measurement branch exactly, as arrays.

    A leaf's receiver depends on its controllers only through their sums
    rho (see _copy_tensor).  Stage 1 (_stage_one's chunks) weighs every
    (sender, rho, aux) group, which alone gives the success probability
    (_stage_one_success); here _weighed_amplitudes also gives the
    amplitudes stage 2 reads.  Stage 2 scores each group as _pullback
    says (one _pullback call, times _omega_table's row for the sums the
    receiver knows); a group below 1e-18 of its sender outcome's weight
    scores NaN.  Then the leaves are gathered.

    The correction misses the withheld controllers' outcomes, which
    changes only success fidelities.  Returns the leaves and the success
    and total probabilities, summed over every group (a group's leaves
    share its probability) in extended precision: the leaves' exact sums
    to within a rounding.
    """
    _validate_pair(input_spec, spec)
    _check_oracle(spec.d, spec.m, spec.n)
    input_state = input_spec.state()
    per_group, chunks = _stage_one(spec)
    d, m, n = spec.d, spec.m, spec.n

    # Per controller leaf: the rho vector of all its controllers, which
    # sets the receiver's state, and of the withheld ones, which the
    # correction misses.
    n_ctrl = d ** (m * n)
    digits = _digits(np.arange(n_ctrl), d, m, n)
    place = d ** np.arange(m - 1, -1, -1)
    state_sum = digits.sum(axis=2) % d @ place
    offsets, offset_of = np.unique(
        digits[:, :, sorted(withheld)].sum(axis=2) % d @ place, return_inverse=True
    )
    group_of = state_sum * len(offsets) + offset_of

    rotation, extraction = _receiver_constants(spec)
    omega = _omega_table(d, m)
    probability, fidelity = np.empty((2, d ** (2 * m), n_ctrl, 2))
    success = total = np.longdouble(0.0)
    for lo, amps, weights in _weighed_amplitudes(input_state.amps, chunks, extraction):
        hi = lo + len(amps)
        gbs = _digits(np.arange(lo, hi), d, m, 2)
        empty = weights < 1e-18 * (weights.sum(axis=(1, 2)) * per_group)[:, None, None]
        divisor = np.where(empty, 1.0, weights)[:, :, None]
        # The row for the known sums rho - w is omega^((rho - w) j) times
        # the pulled-back input: the state's row, then the offset's.
        pulled = _pullback(input_state, spec, gbs).conj() * rotation[0]
        hit = (amps * pulled[:, None] * omega[: amps.shape[1]].conj()) @ omega[offsets].T
        miss = (amps * rotation[1]) @ input_state.amps.conj()
        scores = np.stack(np.broadcast_arrays(hit, miss[..., None]), axis=-1)
        scores = np.minimum(1.0, np.abs(scores) ** 2 / divisor)
        scores[np.broadcast_to(empty[:, :, None], scores.shape)] = np.nan

        np.take(weights, state_sum, axis=1, out=probability[lo:hi])
        np.take(scores.reshape(len(amps), -1, 2), group_of, axis=1, out=fidelity[lo:hi])
        success += np.sum(weights[..., 0], dtype=np.longdouble)
        total += np.sum(weights, dtype=np.longdouble)

    branches = _Branches(d, m, n, probability.reshape(-1), fidelity.reshape(-1))
    return branches, float(success * per_group), float(total * per_group)


def enumerate_branches(
    input_spec: InputStateSpec, spec: ChannelSpec
) -> BranchReport:
    """Exact oracle: every (sender, controller, aux) outcome with its
    exact probability and output fidelity, in report.branches: a
    read-only sequence that builds a BranchRecord only when one is read."""
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
    probability-weighted over the success branches whose fidelity is
    defined: a leaf of a group below the oracle's floor (NaN fidelity)
    counts in neither sum."""
    withheld = set(withheld)
    if not withheld <= set(range(spec.n)):
        raise ValueError(f"withheld controllers {withheld} out of range")
    branches, _, _ = _enumerate(input_spec, spec, withheld)
    # Success leaves sit at even positions (aux = 0).
    probability, fidelity = branches.probability[0::2], branches.fidelity[0::2]
    defined = ~np.isnan(fidelity)
    weight = np.sum(probability[defined], dtype=np.longdouble)
    if weight <= 0.0:
        raise ValueError("no success branch with a defined fidelity has positive probability")
    weighted = np.sum(probability[defined] * fidelity[defined], dtype=np.longdouble)
    return float(weighted / weight)
