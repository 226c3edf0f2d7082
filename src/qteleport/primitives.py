"""Named states, bases and unitaries of the teleportation protocol.

Conventions:
  * omega = exp(2*pi*i/d); all index arithmetic is mod d.
  * Generalized Bell states |psi_rs> = (1/sqrt(d)) sum_j omega^(jr) |j>|j+s>.
  * The qudit Pauli family U_uv = sum_j omega^(uj) |j+v><j| doubles as the
    receiver's correction operator.
  * X-basis kets |r>_x = (1/sqrt(d)) sum_j omega^(jr) |j> are the columns
    of the d-dimensional Hadamard.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import cached_property, lru_cache, reduce

import numpy as np

from .state import StateVector, _check_size, make_state, record

COEFF_NORM_TOL = 1e-10
# Distinct (spec, labels) channel copies kept by channel_state: a sweep
# builds a fresh spec per point, so the cache must not grow without end,
# yet one run's m labelled copies (m <= 26 under the default amplitude
# guard) must never be evicted.
CHANNEL_CACHE_SIZE = 256
# Matrices keyed by the dimension d (or one spec's dense reference): a
# process sweeping d must not keep one per d, and a run needs one or two.
DIMENSION_CACHE_SIZE = 8


def _omega_powers(d: int, k: int) -> np.ndarray:
    """[omega^(j*k) for j in 0..d-1]."""
    return np.exp(2j * np.pi * k * np.arange(d) / d)


@record
class ChannelSpec:
    """Pure entangled channel: dimension d, n controllers, m copies.

    coeffs c_0..c_{d-1} obey (1/d) * sum |c_j|^2 = 1 and are all nonzero;
    the index of the smallest |c_j|^2 (ties to the smallest index) sets
    the success probability (min |c_j|^2)^m.
    """

    d: int
    n: int
    m: int
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        coeffs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.d:
            raise ValueError(f"need exactly d = {self.d} entries, got {len(coeffs)}")
        values = np.array(coeffs)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"coefficients must be finite, got {coeffs!r}")
        with np.errstate(over="ignore"):  # an overflow fails the norm check
            weights = np.abs(values) ** 2
            total = float(weights.sum()) / self.d
        # |c_j|^2, not a field: == and hash read the coefficients alone.
        object.__setattr__(self, "_weights", _read_only(weights))
        if np.any(weights < 1e-12):
            raise ValueError(
                "zero channel coefficient: the receiver's extraction unitary "
                "does not exist and the success probability would be 0"
            )
        if abs(total - 1.0) > COEFF_NORM_TOL:
            raise ValueError(
                f"coefficients violate (1/d)*sum|c_j|^2 = 1: got {total!r}"
            )

    @property
    def k_min(self) -> int:
        """Index of the smallest |c_j|^2, ties broken by smallest index."""
        return int(np.argmin(self._weights))

    @property
    def min_weight(self) -> float:
        """min_j |c_j|^2."""
        return float(np.min(self._weights))

    # The tables derived from the coefficients, each built on first read
    # and kept, read-only, for as long as the spec lives.

    @cached_property
    def _receiver_constants(self) -> tuple[np.ndarray, np.ndarray]:
        """The receiver's extraction tables.

        rotation   -- (gamma, gamma+) over the d^m receiver indices
                      (copy-major): the extraction ratios Gamma_J = |c_k|^m /
                      prod_l |c_(J_l)| and sqrt(1 - gamma^2), each 2x2
                      rotation's aux-0 and aux-1 amplitude factors
        extraction -- rotation^2 transposed: the aux outcomes' weights
        """
        mods = np.abs(np.asarray(self.coeffs))
        per_index = mods[self.k_min] / mods  # length d, each <= 1
        table = reduce(np.multiply.outer, [per_index] * self.m).reshape(-1)
        gamma = np.minimum(table, 1.0)  # clamp float overshoot at ties
        rotation = np.array((gamma, np.sqrt(1.0 - gamma**2)))
        # extraction is C-ordered, as the sampler's and the oracle's products expect
        return _read_only(rotation), _read_only(np.square(rotation.T, order="C"))

    @cached_property
    def _phase_rows(self) -> np.ndarray:
        """phase_rows[u, j] = omega^(-u j) e^{i phi_j} with phi_j = arg c_j:
        the phase the receiver's adjoint correction puts on a copy with
        phase index u."""
        j = np.arange(self.d)
        coeff_phase = np.exp(1j * np.angle(np.asarray(self.coeffs)))
        return _read_only(np.exp(-2j * np.pi * j[:, None] * j / self.d) * coeff_phase)

    @cached_property
    def _sampler_constants(self) -> tuple[np.ndarray, ...]:
        """The sampler's sender-side tables (the receiver's are
        _receiver_constants and _phase_rows).

        cross    -- cross[t, s] = a_(t+s) = |c_(t+s)|^2 / d^2, symmetric
        outcomes -- the s of each sender outcome r d + s
        sender   -- sender[u, j] = omega^(-u j) c_j / d: the sender's and the
                    controllers' factor on digit j when r + rho = u
        controller -- a controller's outcome weights, 1/d each
        """
        d = self.d
        coeffs = np.asarray(self.coeffs)
        j = np.arange(d)
        tables = (
            np.abs(coeffs[(j[:, None] + j) % d]) ** 2 / d**2,
            np.tile(j, d),
            np.exp(-2j * np.pi * j[:, None] * j / d) * coeffs / d,
            np.full(d, 1.0 / d),
        )
        return tuple(map(_read_only, tables))


def _coeffs_from_uniforms(u: np.ndarray) -> tuple[complex, ...]:
    """random_coeffs from its stream's first d random() values."""
    weights = 0.25 + (1.75 - 0.25) * u  # Generator.uniform(0.25, 1.75)
    weights *= len(u) / weights.sum()
    return tuple(complex(v) for v in np.sqrt(weights))


def gbs_vector(d: int, r: int, s: int) -> StateVector:
    """Generalized Bell state |psi_rs> on a qudit pair."""
    if not (0 <= r < d and 0 <= s < d):
        raise ValueError(f"(r, s) = ({r}, {s}) out of range for d = {d}")
    amps, j = np.zeros(d * d, dtype=complex), np.arange(d)
    amps[j * d + (j + s) % d] = _omega_powers(d, r)
    return make_state((d, d), amps / np.sqrt(d))


def gbs_basis(d: int) -> list[StateVector]:
    """All d^2 generalized Bell states, ordered (r, s) lexicographically."""
    return [gbs_vector(d, r, s) for r in range(d) for s in range(d)]


def _read_only(mat: np.ndarray) -> np.ndarray:
    """Freeze a cached array: every caller shares the one instance."""
    mat.setflags(write=False)
    return mat


class _View(Sequence):
    """Read-only sequence that builds item i (_item) only when it is
    read; a view defines __len__ and _item.  It equals any sequence of
    equal items, as a list does, and is unhashable."""

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._item(i) for i in range(*index.indices(len(self)))]
        i, size = operator.index(index), len(self)
        if not -size <= i < size:
            raise IndexError(f"index {index} out of range for {size} items")
        return self._item(i % size)

    def __iter__(self):
        return map(self._item, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """A fresh array's rows, each divided in place by its own norm, as
    make_state divides a state: the floats of one state per row."""
    rows /= np.array([np.linalg.norm(row) for row in rows])[:, None]
    return _read_only(rows)


@lru_cache(maxsize=DIMENSION_CACHE_SIZE)
def gbs_basis_matrix(d: int) -> np.ndarray:
    """GBS basis stacked into rows, for measurement calls (read-only):
    row r d + s is gbs_vector(d, r, s), built in one pass."""
    j = np.arange(d)
    rows = np.zeros((d, d, d * d), dtype=complex)
    # |psi_rs> puts omega^(jr) on j d + (j + s) mod d.
    rows[:, j[:, None], j * d + (j + j[:, None]) % d] = _omega_powers(d, j[:, None])[:, None]
    rows /= np.sqrt(d)
    return _unit_rows(rows.reshape(d * d, d * d))


def u_uv(d: int, u: int, v: int) -> np.ndarray:
    """Qudit Pauli U_uv = sum_j omega^(uj) |j+v><j| (phase u, shift v)."""
    if not (0 <= u < d and 0 <= v < d):
        raise ValueError(f"(u, v) = ({u}, {v}) out of range for d = {d}")
    op, j = np.zeros((d, d), dtype=complex), np.arange(d)
    op[(j + v) % d, j] = _omega_powers(d, u)
    return op


def x_basis_vector(d: int, r: int) -> StateVector:
    """X-basis ket |r>_x, mutually unbiased with the computational basis."""
    if not 0 <= r < d:
        raise ValueError(f"r = {r} out of range for d = {d}")
    return make_state((d,), _omega_powers(d, r) / np.sqrt(d))


@lru_cache(maxsize=DIMENSION_CACHE_SIZE)
def x_basis_matrix(d: int) -> np.ndarray:
    """X-basis kets stacked into rows (outcome r on row r; read-only):
    row r is x_basis_vector(d, r), built in one pass."""
    return _unit_rows(_omega_powers(d, np.arange(d)[:, None]) / np.sqrt(d))


def hadamard_d(d: int) -> np.ndarray:
    """d-dimensional Hadamard: H[j, k] = omega^(jk) / sqrt(d)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def _channel_amps(spec: ChannelSpec) -> np.ndarray:
    """One copy of the channel, (1/sqrt(d)) sum_j c_j |j>^(n+2), as flat
    amplitudes divided by their norm, as make_state divides a state.

    The explicit 1/sqrt(d) prefactor makes the state unit-norm under the
    coefficient constraint (1/d) sum |c_j|^2 = 1.  The caller has passed
    the amplitude guard on its d^(n+2) amplitudes: channel_state here,
    the oracle in protocol._check_tables.
    """
    size = spec.d ** (spec.n + 2)
    amps = np.zeros(size, dtype=complex)
    stride = (size - 1) // (spec.d - 1)  # index of |j,j,...,j> is j*stride
    for j, c in enumerate(spec.coeffs):
        amps[j * stride] = c / np.sqrt(spec.d)
    return amps / np.linalg.norm(amps)


@lru_cache(maxsize=CHANNEL_CACHE_SIZE)
def channel_state(spec: ChannelSpec, labels=None) -> StateVector:
    """One copy of the channel as a state (_channel_amps): the dense
    reference's register, party k labelled a_k unless labels are given."""
    parties = spec.n + 2
    _check_size(spec.d**parties)
    if labels is None:
        labels = tuple(f"a_{k}" for k in range(parties))
    return StateVector((spec.d,) * parties, _channel_amps(spec), tuple(labels))


@lru_cache(maxsize=DIMENSION_CACHE_SIZE)
def u_max_m(spec: ChannelSpec) -> np.ndarray:
    """Receiver's collective extraction unitary on m qudits + one aux qubit.

    Basis ordering: all |j_1..j_m>|0>_aux first, then |j_1..j_m>|1>_aux.
    Built from coefficient moduli; phases of complex c_j are compensated
    separately during the correction step.

    Reference matrix, (2 d^m)^2 entries under the amplitude guard, read-only:
    run_protocol applies it, the closed forms its 2x2 rotations one by one.
    """
    _check_size((2 * spec.d**spec.m) ** 2, f"u_max_m at d = {spec.d}, m = {spec.m}")
    gamma, gamma_plus = spec._receiver_constants[0]
    dm = gamma.size
    op = np.zeros((2 * dm, 2 * dm), dtype=complex)
    idx = np.arange(dm)
    op[idx, idx] = gamma
    op[idx, idx + dm] = gamma_plus
    op[idx + dm, idx] = gamma_plus
    # The lower-right sign flip is required for unitarity only where the
    # off-diagonal entry is nonzero; keeping +1 on saturated indices makes
    # the operator reduce to the exact identity for a maximally entangled
    # channel (the aux |1> sector there is unreachable either way).
    op[idx + dm, idx + dm] = np.where(gamma_plus == 0.0, gamma, -gamma)
    return _read_only(op)


def u_max(spec: ChannelSpec) -> np.ndarray:
    """Single-copy extraction unitary (2d x 2d); the m = 1 special case."""
    if spec.m != 1:
        spec = ChannelSpec(spec.d, spec.n, 1, spec.coeffs)
    return u_max_m(spec)


def correction_unitary(d: int, rho: int, sigma: int) -> np.ndarray:
    """Receiver's phase-and-shift correction; indices reduced mod d.

    Reference matrix: run_protocol applies it, and the closed forms pull
    the input back through it by a gather (protocol._pullback).
    """
    return u_uv(d, rho % d, sigma % d)


def multi_correction_unitary(d: int, phase_indices, shifts) -> np.ndarray:
    """Direct multi-copy correction on d^m: sum over (j_1..j_m) of
    omega^(sum_l j_l * rho_l) |j_1..j_m><j_1+s_1 .. j_m+s_m|.

    Equals the tensor product of per-copy correction_unitary(d, rho_l,
    d-s_l) factors up to a global phase (verified in tests); (d^m)^2
    entries under the amplitude guard.
    """
    phase_indices = np.array(list(phase_indices), dtype=int)
    shifts = np.array(list(shifts), dtype=int)
    m = len(phase_indices)
    if len(shifts) != m:
        raise ValueError("phase_indices and shifts must have equal length")
    _check_size(d ** (2 * m), f"multi_correction_unitary at d = {d}, m = {m}")
    digits = np.indices((d,) * m).reshape(m, d**m)  # row j_1..j_m's digits
    cols = np.ravel_multi_index(tuple((digits + shifts[:, None]) % d), (d,) * m)
    op = np.zeros((d**m, d**m), dtype=complex)
    op[np.arange(d**m), cols] = np.exp(2j * np.pi * (phase_indices @ digits) / d)
    return op
