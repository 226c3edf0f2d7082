"""Experiment configuration: JSON schema, loading, validation.

The on-disk format is a single JSON object; see schema/experiment.json
and the README for the documented field set.  All validation errors
name the offending field and the violated constraint.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import numpy as np

from ._streams import standard_normals, uniforms
from .decoy import EVE_ACTIONS, _check_dimension
from .primitives import ChannelSpec, _coeffs_from_uniforms
from .protocol import InputStateSpec, _check_input_size, _check_oracle, _random_amplitudes
from .state import _check_size, record

KINDS = ("enumerate", "montecarlo", "decoy", "sweep")
FORMATS = ("json", "csv")
# The column entries a decoy round (basis, value, detected) or a sweep row
# (its eight values) holds until the campaign writes them; a montecarlo
# trial holds m (n + 3) + 3, checked once m and n are read.
HELD_PER_TRIAL = {"decoy": 3, "sweep": 8}
# The document keys each kind reads besides "kind", in its JSON echo's
# order (the CLI has a flag for each), and the field of each key not
# named for it.  A document's other keys are ignored.
_COMMON = ("seed", "trials", "format", "out")
KEYS = {
    "enumerate": (*_COMMON, "d", "m", "n", "coeffs", "beta"),
    "montecarlo": (*_COMMON, "d", "m", "n", "coeffs", "beta"),
    "decoy": (*_COMMON, "d", "m", "n", "eve"),
    "sweep": (*_COMMON, "sweep"),
}
FIELDS = {"format": "fmt"}


class ConfigError(ValueError):
    """Malformed or constraint-violating experiment configuration."""


@record
class ExperimentConfig:
    """Validated campaign description: a config is validated when built,
    by load_config or by hand, with every guard of its campaign, in one
    order.  Each field the kind reads becomes its checked value, and
    coeffs / beta take a document's forms (None as left out: uniform,
    basis 0).  A field whose key KEYS[kind] lacks stays as given, unused:
    a decoy's and a sweep's coeffs and beta, a sweep's d, m and n.
    """

    kind: str
    d: int = 2
    m: int = 1
    n: int = 0
    coeffs: tuple[complex, ...] | None = None
    beta: np.ndarray | None = None
    trials: int = 1000
    seed: int = 0
    eve: str = "random_basis_resend"
    out: str | None = None
    fmt: str = "json"
    sweep: Mapping | None = None  # checked: read-only, a tuple per axis

    def __post_init__(self):
        """The guards, in the order a document's fields are read; the
        records of coeffs and beta are kept outside the fields, as an
        InputStateSpec keeps its register."""
        kind, specs = self.kind, (None, None)
        if kind not in KINDS:
            raise ConfigError(f"kind: expected one of {KINDS}, got {kind!r}")
        if self.fmt not in FORMATS:
            raise ConfigError(f"format: expected one of {FORMATS}, got {self.fmt!r}")
        self._int("seed", 0)
        trials = self._int("trials", 1)
        if kind == "montecarlo" and trials > 2**32:  # trial i is the seed's child i
            raise ConfigError(f"trials: montecarlo runs at most 2^32 trials, got {trials}")
        if kind in HELD_PER_TRIAL:
            _check_size(HELD_PER_TRIAL[kind] * trials, f"trials: a {kind} of {trials} rows")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out: expected a path string, got {self.out!r}")
        if "sweep" in KEYS[kind]:
            grid = self._grid()
            for i in range(min(trials, math.prod(map(len, grid.values())))):
                _check_point(kind, *_sweep_point(grid, i))
        else:
            d, m, n = self._int("d", 2), self._int("m", 1), self._int("n", 0)
            if "eve" in KEYS[kind] and self.eve not in EVE_ACTIONS:
                raise ConfigError(f"eve: expected one of {EVE_ACTIONS}, got {self.eve!r}")
            _check_point(kind, d, m, n)
            # A trial's gbs 2m, controllers m n, r_sums m, aux, fidelity, probability.
            if kind == "montecarlo":
                _check_size((m * (n + 3) + 3) * trials, f"trials: a montecarlo of {trials} rows")
            if "coeffs" in KEYS[kind]:
                coeffs, beta = resolve_coeffs(self.coeffs, d), resolve_beta(self.beta, d, m)
                channel = self._record("coeffs", ChannelSpec, d, n, m, coeffs)
                specs = channel, self._record("beta", InputStateSpec, d, m, beta)
        object.__setattr__(self, "_specs", specs)

    def channel_spec(self) -> ChannelSpec | None:
        return self._specs[0]

    def input_spec(self) -> InputStateSpec | None:
        return self._specs[1]

    def _int(self, name: str, minimum: int) -> int:
        """Field name as an int >= minimum (a JSON Schema integer), which
        the field becomes."""
        value = _integer(getattr(self, name))
        if value is None or value < minimum:
            raise ConfigError(
                f"{name}: expected an integer >= {minimum}, got {getattr(self, name)!r}"
            )
        object.__setattr__(self, name, value)
        return value

    def _grid(self) -> Mapping:
        """The sweep's (d, m, n) grid, read-only with a tuple of ints per
        axis, which the field becomes: it runs only the points checked."""
        sweep = self.sweep
        if not isinstance(sweep, Mapping):
            raise ConfigError('sweep: kind "sweep" requires a "sweep" object')
        grid = {}
        for key, minimum in (("d", 2), ("m", 1), ("n", 0)):
            values = sweep.get(key)
            values = [_integer(v) for v in values] if isinstance(values, (list, tuple)) else []
            if not values or not all(v is not None and v >= minimum for v in values):
                raise ConfigError(
                    f"sweep.{key}: expected a non-empty list of integers >= {minimum}"
                )
            grid[key] = tuple(values)
        object.__setattr__(self, "sweep", MappingProxyType(grid))
        return grid

    def _record(self, name: str, cls, *args):
        """cls(*args), whose own value the field name becomes (one copy of
        the amplitudes); a ValueError becomes a ConfigError naming it."""
        try:
            spec = cls(*args)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
        object.__setattr__(self, name, getattr(spec, name))
        return spec


def random_coeffs(d: int, seed: int) -> tuple[complex, ...]:
    """Random valid channel coefficients, bounded away from zero.

    Weights |c_j|^2 are Generator(Philox(seed)).uniform(0.25, 1.75,
    size=d), rescaled so that (1/d) * sum |c_j|^2 = 1.
    """
    return _coeffs_from_uniforms(uniforms([seed], d)[0])


def _is_number(value) -> bool:
    """A JSON number: the schema's boolean is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex_list(value, fieldname: str) -> list[complex] | np.ndarray:
    """A document's list of numbers or [re, im] pairs as complex values;
    a hand-built config may also give complex entries or an array."""
    if isinstance(value, np.ndarray):
        return value  # for the record to coerce
    if not isinstance(value, (list, tuple)):
        raise ConfigError(
            f"{fieldname}: expected a list of numbers or [re, im] pairs, got {value!r}"
        )
    out = []
    for i, entry in enumerate(value):
        if _is_number(entry) or isinstance(entry, complex):
            out.append(complex(entry))
        elif (
            isinstance(entry, (list, tuple)) and len(entry) == 2
            and _is_number(entry[0]) and _is_number(entry[1])
        ):
            out.append(complex(entry[0], entry[1]))
        else:
            raise ConfigError(
                f"{fieldname}[{i}]: expected a number or [re, im] pair, got {entry!r}"
            )
    return out


def parse_directive_index(value: str, fieldname: str) -> int:
    index = value.partition(":")[2]  # the schema's form: ASCII digits only
    if not (index.isascii() and index.isdigit()):
        raise ConfigError(f"{fieldname}: malformed directive {value!r}")
    return int(index)


def resolve_coeffs(value, d: int) -> tuple[complex, ...]:
    """Expand "uniform" / "random:<seed>" / a list into c_0..c_{d-1}, unchecked."""
    if value == "uniform" or value is None:
        return (complex(1.0),) * d
    if isinstance(value, str) and value.startswith("random:"):
        return random_coeffs(d, parse_directive_index(value, "coeffs"))
    if isinstance(value, str):
        raise ConfigError(f"coeffs: unknown directive {value!r}")
    return tuple(_as_complex_list(value, "coeffs"))


def resolve_beta(value, d: int, m: int) -> np.ndarray:
    """Expand explicit amplitudes, {"basis": k} or "random:<seed>", unchecked."""
    size = d**m
    if value is None:
        value = {"basis": 0}
    if isinstance(value, dict):
        if set(value) != {"basis"}:
            raise ConfigError(f"beta: unknown object form {value!r}")
        k = _integer(value["basis"])
        if k is None or not 0 <= k < size:
            raise ConfigError(
                f"beta.basis: index {value['basis']!r} out of range for d^m = {size}"
            )
        return np.eye(1, size, k, dtype=complex)[0]  # the basis vector k
    if isinstance(value, str) and value.startswith("random:"):
        seed = parse_directive_index(value, "beta")
        return _random_amplitudes(standard_normals([seed], 2 * size)[0], size)
    if isinstance(value, str):
        raise ConfigError(f"beta: unknown directive {value!r}")
    return np.asarray(_as_complex_list(value, "beta"))


def _check_point(kind: str, d: int, m: int, n: int) -> None:
    """The guards one (d, m, n) point of a campaign passes at load, before
    anything of its size is built: a decoy's, decoy._check_dimension;
    where every branch is listed or weighed (enumerate, a sweep
    point), every guard of the oracle (_check_oracle); a montecarlo's
    input guard alone."""
    if kind == "decoy":
        _check_dimension(d)
    elif kind in ("enumerate", "sweep"):
        _check_oracle(d, m, n)
    else:
        _check_input_size(d, m)


def _sweep_point(sweep: Mapping, i: int) -> tuple[int, int, int]:
    """Point i mod the grid size of a sweep's grid, in itertools.product(d, m, n) order."""
    d, m, n = sweep["d"], sweep["m"], sweep["n"]
    return d[i // (len(m) * len(n)) % len(d)], m[i // len(n) % len(m)], n[i % len(n)]


def _integer(value) -> int | None:
    """A JSON Schema integer as an int: a number with no fractional part
    (2, 2.0, 1e3, or a numpy integer), but not a boolean, which Python
    counts as an int."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return int(value) if integral else None


def read_config(source) -> dict:
    """The config's JSON object, not yet validated, from a dict, JSON text
    (a string whose first non-blank character is "{"), or a file path
    (any other string)."""
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                text = Path(text).read_text()
            except OSError as exc:
                raise ConfigError(
                    f"config: cannot read {text!r}: {exc.strerror or exc}"
                ) from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def load_config(source) -> ExperimentConfig:
    """The config of a document (see read_config): the keys its kind
    reads (KEYS; "format" is the fmt field), validated when built."""
    doc = read_config(source)
    kind = doc.get("kind")
    keys = KEYS[kind] if kind in KINDS else ()
    return ExperimentConfig(kind, **{FIELDS.get(key, key): doc[key] for key in keys if key in doc})
