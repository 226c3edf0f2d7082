"""Dense complex state-vector engine for heterogeneous qudit registers.

A register is an ordered list of subsystems with arbitrary dimensions
(qudits of dimension d, plus e.g. one two-level auxiliary system).
Amplitudes are stored row-major: the first listed subsystem is the most
significant index digit.  States are immutable from the caller's point
of view; every operation returns a new :class:`StateVector`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_MAX_AMPLITUDES = 2**27
MAX_AMPLITUDES_ENV = "QTELEPORT_MAX_AMPLITUDES"

ORTHONORMALITY_TOL = 1e-10
UNITARITY_TOL = 1e-12
FORCED_OUTCOME_FLOOR = 1e-15


class SimulationError(Exception):
    """Base class for all engine errors."""


class SizeGuardError(SimulationError):
    """State would exceed the maximum amplitude count."""


def max_amplitudes() -> int:
    """Current size guard, overridable via QTELEPORT_MAX_AMPLITUDES.

    A value that is not a positive integer raises ValueError naming the
    variable.
    """
    raw = os.environ.get(MAX_AMPLITUDES_ENV)
    if raw is None:
        return DEFAULT_MAX_AMPLITUDES
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{MAX_AMPLITUDES_ENV} must be a positive integer, got {raw!r}")
    return limit


def _check_size(num_amps: int) -> None:
    limit = max_amplitudes()
    if num_amps > limit:
        raise SizeGuardError(
            f"state of {num_amps} amplitudes exceeds the size guard of {limit} "
            f"(override with {MAX_AMPLITUDES_ENV})"
        )


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over an ordered list of subsystems.

    dims   -- subsystem dimensions, each >= 2
    amps   -- complex amplitudes, length prod(dims); unit 2-norm
    labels -- opaque subsystem tags for bookkeeping
    """

    dims: tuple[int, ...]
    amps: np.ndarray
    labels: tuple[str, ...] = field(default=())

    @property
    def num_subsystems(self) -> int:
        return len(self.dims)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class MeasurementOutcome:
    """One projective-measurement branch.

    value       -- outcome index into the supplied basis
    probability -- Born probability of the branch
    post_state  -- renormalized projection, measured subsystems removed
                   (None for branches of negligible probability when
                   enumerating)
    """

    value: int
    probability: float
    post_state: StateVector | None


def make_state(dims, amps, labels=None) -> StateVector:
    """Build a normalized StateVector, validating shape and norm."""
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise ValueError(f"every subsystem dimension must be >= 2, got {dims}")
    total = math.prod(dims)
    _check_size(total)
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    if amps.size != total:
        raise ValueError(f"amplitude length {amps.size} != prod(dims) = {total}")
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise ValueError("cannot normalize the zero vector")
    if labels is None:
        labels = tuple(f"q{i}" for i in range(len(dims)))
    else:
        labels = tuple(labels)
        if len(labels) != len(dims):
            raise ValueError("labels/dims length mismatch")
    return StateVector(dims=dims, amps=amps / norm, labels=labels)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product a (x) b; b's subsystems become least significant."""
    _check_size(a.amps.size * b.amps.size)
    return StateVector(
        dims=a.dims + b.dims,
        amps=(a.amps[:, None] * b.amps[None, :]).reshape(-1),
        labels=a.labels + b.labels,
    )


def is_unitary(op: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    """Validate ||U^dag U - I||_max < tol."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        return False
    delta = op.conj().T @ op - np.eye(op.shape[0])
    return float(np.max(np.abs(delta))) < tol


def _targets_front(state: StateVector, targets: list[int]):
    """Reshape amps to (prod target dims, rest) with targets leading."""
    n = state.num_subsystems
    if len(set(targets)) != len(targets):
        raise ValueError(f"repeated target in {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"target out of range in {targets} (n={n})")
    tensor_form = state.amps.reshape(state.dims)
    moved = np.moveaxis(tensor_form, targets, range(len(targets)))
    block = math.prod(state.dims[t] for t in targets)
    return moved.reshape(block, -1), moved.shape


def apply(state: StateVector, op: np.ndarray, targets) -> StateVector:
    """Apply a (possibly multi-subsystem) operator on the listed targets.

    The operator acts on the composite index formed by the targets in
    the order given (first target = most significant digit).
    """
    targets = list(targets)
    if any(t < 0 or t >= state.num_subsystems for t in targets):
        raise ValueError(
            f"target out of range in {targets} (n={state.num_subsystems})"
        )
    op = np.asarray(op, dtype=complex)
    block = math.prod(state.dims[t] for t in targets)
    if op.shape != (block, block):
        raise ValueError(
            f"operator shape {op.shape} does not match target dims product {block}"
        )
    mat, moved_shape = _targets_front(state, targets)
    out = (op @ mat).reshape(moved_shape)
    out = np.moveaxis(out, range(len(targets)), targets)
    return StateVector(dims=state.dims, amps=out.reshape(-1), labels=state.labels)


def _remaining(state: StateVector, targets: list[int]):
    keep = [i for i in range(state.num_subsystems) if i not in targets]
    dims = tuple(state.dims[i] for i in keep)
    labels = tuple(state.labels[i] for i in keep)
    return dims, labels


# Bases already validated this session, keyed by object identity (the
# keyed arrays are retained, so ids stay live).  Bounded FIFO.
_VALIDATED_BASES: dict[int, np.ndarray] = {}


def _basis_matrix(basis, block: int) -> np.ndarray:
    """Stack basis kets into rows and validate orthonormal completeness."""
    if isinstance(basis, np.ndarray) and basis.ndim == 2:
        cached = _VALIDATED_BASES.get(id(basis))
        if cached is basis and basis.shape == (block, block):
            return basis
        mat = basis if basis.dtype == complex else basis.astype(complex)
    else:
        rows = [
            np.asarray(getattr(v, "amps", v), dtype=complex).reshape(-1) for v in basis
        ]
        mat = np.vstack(rows)
    if mat.shape != (block, block):
        raise ValueError(
            f"basis must be complete: need {block} vectors of length {block}, "
            f"got shape {mat.shape}"
        )
    gram = mat @ mat.conj().T
    if float(np.max(np.abs(gram - np.eye(block)))) > ORTHONORMALITY_TOL:
        raise ValueError("basis is not orthonormal within tolerance")
    if mat is basis:
        if len(_VALIDATED_BASES) > 64:
            _VALIDATED_BASES.pop(next(iter(_VALIDATED_BASES)))
        _VALIDATED_BASES[id(basis)] = basis
    return mat


def _project(state: StateVector, targets: list[int], basis):
    """Shared projection kernel: (branch amplitudes, probabilities,
    remaining dims, remaining labels)."""
    mat, _ = _targets_front(state, targets)
    bmat = _basis_matrix(basis, mat.shape[0])
    coeffs = bmat.conj() @ mat  # (outcome, rest)
    probs = np.einsum("kr,kr->k", coeffs, coeffs.conj()).real
    dims, labels = _remaining(state, targets)
    return coeffs, probs, dims, labels


def branch_outcomes(state: StateVector, targets, basis) -> list[MeasurementOutcome]:
    """All measurement branches of a projective measurement.

    Returns one MeasurementOutcome per basis vector; branches with
    probability below 1e-18 carry post_state=None.  Probabilities sum
    to 1 for any complete basis.
    """
    coeffs, probs, dims, labels = _project(state, list(targets), basis)
    outcomes = []
    for k, p in enumerate(probs):
        p = float(p)
        if p < 1e-18:
            outcomes.append(MeasurementOutcome(k, p, None))
            continue
        post = coeffs[k].reshape(-1) / np.sqrt(p)
        outcomes.append(
            MeasurementOutcome(k, p, StateVector(dims=dims, amps=post, labels=labels))
        )
    return outcomes


def measure_in_basis(
    state: StateVector,
    targets,
    basis,
    rng: np.random.Generator | None = None,
    forced_outcome: int | None = None,
) -> MeasurementOutcome:
    """Projective measurement of the targets in the given basis.

    The outcome is sampled with Born probabilities from rng, or forced.
    Forcing an outcome with probability below 1e-15 is an error.  The
    measured subsystems are deleted from the post state.
    """
    coeffs, probs, dims, labels = _project(state, list(targets), basis)
    if forced_outcome is not None:
        if forced_outcome < 0 or forced_outcome >= probs.size:
            raise ValueError(f"forced outcome {forced_outcome} out of range")
        idx = int(forced_outcome)
        if probs[idx] < FORCED_OUTCOME_FLOOR:
            raise ValueError(
                f"forced outcome {forced_outcome} has negligible probability "
                f"{probs[idx]:.3e}"
            )
    else:
        if rng is None:
            raise ValueError("either rng or forced_outcome is required")
        cumulative = np.cumsum(probs)
        idx = min(
            int(np.searchsorted(cumulative, rng.random() * cumulative[-1], "right")),
            probs.size - 1,
        )
    post = coeffs[idx].reshape(-1)
    post = post / np.linalg.norm(post)
    return MeasurementOutcome(
        idx, float(probs[idx]), StateVector(dims, post, labels)
    )


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; insensitive to global phase."""
    if a.dims != b.dims:
        raise ValueError(f"dims mismatch: {a.dims} vs {b.dims}")
    overlap = np.vdot(a.amps, b.amps)
    return float(min(1.0, abs(overlap) ** 2))
