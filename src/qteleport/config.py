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
from .primitives import ChannelSpec
from .protocol import InputStateSpec, _check_input_size, _check_oracle, _random_amplitudes
from .state import _check_size, record

KINDS = ("enumerate", "montecarlo", "decoy", "sweep")
FORMATS = ("json", "csv")
# The column entries a decoy round (basis, value, detected) or a sweep row
# (its eight values) holds until the campaign writes them; a montecarlo
# trial holds m (n + 3) + 3, checked once m and n are read.
HELD_PER_TRIAL = {"decoy": 3, "sweep": 8}


class ConfigError(ValueError):
    """Malformed or constraint-violating experiment configuration."""


@record
class ExperimentConfig:
    """Validated campaign description.  load_config runs every guard of
    its campaign; a config built by hand checks only coeffs and beta, and
    run_campaign the rest it reads.  A sweep (a fresh channel and input
    per point) and a decoy leave both None.
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
    sweep: Mapping | None = None  # loaded: read-only, a tuple per axis
    _guarded = False  # not a field: load_config sets it once a sweep's points pass

    def __post_init__(self):
        """The records of coeffs and beta, built once and kept outside the
        fields, as an InputStateSpec keeps its register."""
        channel = self._validated("coeffs", ChannelSpec, self.d, self.n, self.m)
        inp = self._validated("beta", InputStateSpec, self.d, self.m)
        object.__setattr__(self, "_specs", (channel, inp))

    def channel_spec(self) -> ChannelSpec | None:
        return self._specs[0]

    def input_spec(self) -> InputStateSpec | None:
        return self._specs[1]

    def _validated(self, name: str, cls, *args):
        """cls(*args, field name's value), or None without one; the field
        becomes the record's own value (one copy of the amplitudes), and a
        ValueError a ConfigError naming the field."""
        if getattr(self, name) is None:
            return None
        try:
            spec = cls(*args, getattr(self, name))
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


def _coeffs_from_uniforms(u: np.ndarray) -> tuple[complex, ...]:
    """random_coeffs from its stream's first d random() values."""
    weights = 0.25 + (1.75 - 0.25) * u  # Generator.uniform(0.25, 1.75)
    weights *= len(u) / weights.sum()
    return tuple(complex(v) for v in np.sqrt(weights))


def _is_number(value) -> bool:
    """A JSON number: the schema's boolean is not one."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex_list(value, fieldname: str) -> list[complex]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(
            f"{fieldname}: expected a list of numbers or [re, im] pairs, got {value!r}"
        )
    out = []
    for i, entry in enumerate(value):
        if _is_number(entry):
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


def _check_kind(kind) -> None:
    if kind not in KINDS:
        raise ConfigError(f"kind: expected one of {KINDS}, got {kind!r}")


def _integer(value) -> int | None:
    """A JSON Schema integer as an int: a number with no fractional part
    (2, 2.0, 1e3), but not a boolean, which Python counts as an int."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def _expect_int(doc: dict, key: str, default: int, minimum: int) -> int:
    value = _integer(doc.get(key, default))
    if value is None or value < minimum:
        raise ConfigError(f"{key}: expected an integer >= {minimum}, got {doc[key]!r}")
    return value


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
    """Parse (see read_config) and validate a config."""
    doc = read_config(source)

    kind = doc.get("kind")
    _check_kind(kind)
    fmt = doc.get("format", "json")
    if fmt not in FORMATS:
        raise ConfigError(f"format: expected one of {FORMATS}, got {fmt!r}")
    seed = _expect_int(doc, "seed", 0, 0)
    trials = _expect_int(doc, "trials", 1000, 1)
    if kind == "montecarlo" and trials > 2**32:  # trial i is the seed's child i
        raise ConfigError(f"trials: montecarlo runs at most 2^32 trials, got {trials}")
    if kind in HELD_PER_TRIAL:
        _check_size(HELD_PER_TRIAL[kind] * trials, f"trials: a {kind} of {trials} rows")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out: expected a path string, got {out!r}")

    common = {"trials": trials, "seed": seed, "out": out, "fmt": fmt}

    if kind == "sweep":
        sweep = doc.get("sweep")
        if not isinstance(sweep, dict):
            raise ConfigError('sweep: kind "sweep" requires a "sweep" object')
        grid = {}
        for key, minimum in (("d", 2), ("m", 1), ("n", 0)):
            values = sweep.get(key)
            values = [_integer(v) for v in values] if isinstance(values, list) else []
            if not values or not all(v is not None and v >= minimum for v in values):
                raise ConfigError(
                    f"sweep.{key}: expected a non-empty list of integers >= {minimum}"
                )
            grid[key] = tuple(values)
        for i in range(min(trials, math.prod(map(len, grid.values())))):
            _check_point(kind, *_sweep_point(grid, i))
        # Read-only, so the grid runs only the points checked here.
        cfg = ExperimentConfig(kind, sweep=MappingProxyType(grid), **common)
        object.__setattr__(cfg, "_guarded", True)  # so _run_sweep checks none again
        return cfg

    d = _expect_int(doc, "d", 2, 2)
    m = _expect_int(doc, "m", 1, 1)
    n = _expect_int(doc, "n", 0, 0)

    if kind == "decoy":
        eve = doc.get("eve", "random_basis_resend")
        if eve not in EVE_ACTIONS:
            raise ConfigError(f"eve: expected one of {EVE_ACTIONS}, got {eve!r}")
    _check_point(kind, d, m, n)
    if kind == "decoy":
        return ExperimentConfig(kind, d, m, n, eve=eve, **common)
    if kind == "montecarlo":  # gbs 2m, controllers m n, r_sums m, aux, fidelity, probability
        held = m * (n + 3) + 3
        _check_size(held * trials, f"trials: a montecarlo of {trials} rows")
    coeffs = resolve_coeffs(doc.get("coeffs"), d)
    beta = resolve_beta(doc.get("beta"), d, m)
    return ExperimentConfig(kind, d, m, n, coeffs, beta, **common)
