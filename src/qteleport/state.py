"""Dense complex state-vector engine for heterogeneous qudit registers.

A register is an ordered list of subsystems with arbitrary dimensions
(qudits of dimension d, plus e.g. one two-level auxiliary system).
Amplitudes are stored row-major: the first listed subsystem is the most
significant index digit.  States are immutable from the caller's point
of view; every operation returns a new :class:`StateVector`.
"""

from __future__ import annotations

import math
import operator
import os

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


def _check_size(need: int | None, what: str = "a state", limit: int | None = None) -> None:
    """The amplitude guard on an array of need amplitudes named what (need
    None: too many to compute), before any of it is built; limit is the
    guard's value if the caller has read it already.  The only raiser of
    the guard's SizeGuardError."""
    if limit is None:
        limit = max_amplitudes()
    if need is None or need > limit:
        needs = "" if need is None else f" needs {need} amplitudes and"
        raise SizeGuardError(
            f"{what}{needs} exceeds the size guard of {limit} (override with {MAX_AMPLITUDES_ENV})"
        )


class FrozenRecordError(AttributeError):
    """Assignment to or deletion of a frozen record's attribute."""


def record(cls=None, /, *, frozen: bool = True):
    """Class decorator: a record of the fields cls annotates, in order; a
    class attribute of a field's name is its default.

    The record takes its fields by position or keyword, then calls any
    __post_init__.  Its repr lists them, and == holds between instances of
    one class with equal fields.  A frozen record refuses assignment and
    deletion and hashes its fields; a mutable one is unhashable.  The
    methods are closures over the field names, so creating a record class
    generates and compiles no code.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    fields, values = dict.fromkeys(names).keys(), operator.attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == len(names):  # every field by position
            self.__dict__.update(zip(names, args))
        elif not args and kwargs.keys() == fields:  # every field by keyword
            self.__dict__.update(kwargs)
        else:
            bound = {**defaults, **dict(zip(names, args)), **kwargs}
            repeated = not kwargs.keys().isdisjoint(names[: len(args)])
            if len(args) > len(names) or repeated or bound.keys() != fields:
                raise TypeError(
                    f"{cls.__qualname__}() takes the fields {', '.join(names)}; got "
                    f"{len(args)} by position and {', '.join(kwargs) or 'none'} by keyword"
                )
            self.__dict__.update(bound)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        text = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{type(self).__qualname__}({text})"

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return values(self) == values(other) if same else NotImplemented

    def refuse(self, name, *value):  # __setattr__ and __delattr__
        raise FrozenRecordError(f"cannot assign to or delete {name!r} of a frozen record")

    cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, __eq__
    cls.__hash__ = (lambda self: hash(values(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = refuse
    return cls


@record
class StateVector:
    """Normalized pure state over an ordered list of subsystems.

    dims   -- subsystem dimensions, each >= 2
    amps   -- complex amplitudes, length prod(dims); unit 2-norm
    labels -- opaque subsystem tags for bookkeeping
    """

    dims: tuple[int, ...]
    amps: np.ndarray
    labels: tuple[str, ...] = ()

    @property
    def num_subsystems(self) -> int:
        return len(self.dims)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@record
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
    amps = _normalized(amps)
    if labels is None:
        labels = tuple(f"q{i}" for i in range(len(dims)))
    else:
        labels = tuple(labels)
        if len(labels) != len(dims):
            raise ValueError("labels/dims length mismatch")
    return StateVector(dims=dims, amps=amps, labels=labels)


def _normalized(amps: np.ndarray) -> np.ndarray:
    """amps divided by their 2-norm: a state's amplitudes, as make_state
    builds them.  The one rule for a register and for the oracle's input
    read without one."""
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise ValueError("cannot normalize the zero vector")
    return amps / norm


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
    mat, moved_shape = _targets_front(state, targets)
    op = np.asarray(op, dtype=complex)
    block = mat.shape[0]
    if op.shape != (block, block):
        raise ValueError(
            f"operator shape {op.shape} does not match target dims product {block}"
        )
    out = (op @ mat).reshape(moved_shape)
    out = np.moveaxis(out, range(len(targets)), targets)
    return StateVector(dims=state.dims, amps=out.reshape(-1), labels=state.labels)


def _remaining(state: StateVector, targets: list[int]):
    keep = [i for i in range(state.num_subsystems) if i not in targets]
    dims = tuple(state.dims[i] for i in keep)
    labels = tuple(state.labels[i] for i in keep)
    return dims, labels


def _basis_matrix(basis, block: int) -> np.ndarray:
    """Stack basis kets into rows and validate orthonormal completeness."""
    if isinstance(basis, np.ndarray) and basis.ndim == 2:
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


def _rng_from_seed(seed) -> np.random.Generator:
    """The Philox stream of an int seed or a SeedSequence; an int seeds
    through SeedSequence(seed).  _streams computes the same numbers
    without importing numpy.random."""
    return np.random.Generator(np.random.Philox(seed))


def _sample_rows(cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The Born draw along the last axis of cumulative weights, one
    uniform per row: the count of weights up to u times the row's total,
    capped at the last index."""
    below = (cumulative <= u[..., None] * cumulative[..., -1:]).sum(axis=-1)
    return np.minimum(below, cumulative.shape[-1] - 1)


def _draw(weights: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The outcome each draw picks along the last axis of weights: a
    uniform (float) by _sample_rows, or a forced outcome index (int),
    which must hold at least FORCED_OUTCOME_FLOOR of its row's weight."""
    if draws.dtype.kind == "f":
        return _sample_rows(weights.cumsum(axis=-1), draws)
    weights = np.broadcast_to(weights, draws.shape + weights.shape[-1:])
    share = np.take_along_axis(weights, draws[..., None], -1)[..., 0] / weights.sum(-1)
    if (share < FORCED_OUTCOME_FLOOR).any():
        worst = np.argmin(share)
        raise ValueError(
            f"forced outcome {draws.flat[worst]} has negligible probability "
            f"{share.flat[worst]:.3e}"
        )
    return draws


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
        idx = int(_draw(probs, np.asarray(forced_outcome, dtype=np.intp)))
    else:
        if rng is None:
            raise ValueError("either rng or forced_outcome is required")
        idx = int(_draw(probs, np.asarray(rng.random())))
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
