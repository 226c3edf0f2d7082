"""Experiment configuration: JSON schema, loading, validation.

The on-disk format is a single JSON object; see schema/experiment.json
and the README for the documented field set.  All validation errors
name the offending field and the violated constraint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .decoy import EVE_ACTIONS
from .primitives import ChannelSpec
from .protocol import InputStateSpec, _check_branches
from .state import MAX_AMPLITUDES_ENV, SizeGuardError, max_amplitudes

KINDS = ("enumerate", "montecarlo", "decoy", "sweep")
FORMATS = ("json", "csv")


class ConfigError(ValueError):
    """Malformed or constraint-violating experiment configuration."""


@dataclass
class ExperimentConfig:
    """Validated campaign description.

    For kind "sweep", channel/input are generated per sweep point and
    coeffs/beta stay None; otherwise both are fully resolved here.
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
    sweep: dict | None = None

    def channel_spec(self) -> ChannelSpec:
        return ChannelSpec(self.d, self.n, self.m, self.coeffs)

    def input_spec(self) -> InputStateSpec:
        return InputStateSpec(self.d, self.m, self.beta)


def random_coeffs(d: int, seed: int) -> tuple[complex, ...]:
    """Random valid channel coefficients, bounded away from zero.

    Weights |c_j|^2 are drawn uniformly from [0.25, 1.75] and rescaled
    so that (1/d) * sum |c_j|^2 = 1.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    weights = rng.uniform(0.25, 1.75, size=d)
    weights *= d / weights.sum()
    return tuple(complex(v) for v in np.sqrt(weights))


def _as_complex_list(value, fieldname: str) -> list[complex]:
    out = []
    for i, entry in enumerate(value):
        if isinstance(entry, (int, float)):
            out.append(complex(entry))
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            out.append(complex(entry[0], entry[1]))
        else:
            raise ConfigError(
                f"{fieldname}[{i}]: expected a number or [re, im] pair, got {entry!r}"
            )
    return out


def _parse_seed_directive(value: str, fieldname: str) -> int:
    try:
        return int(value.split(":", 1)[1])
    except (IndexError, ValueError):
        raise ConfigError(f"{fieldname}: malformed directive {value!r}") from None


def resolve_coeffs(value, d: int) -> tuple[complex, ...]:
    """Expand "uniform" / "random:<seed>" / explicit list into c_0..c_{d-1}."""
    if value == "uniform" or value is None:
        return (complex(1.0),) * d
    if isinstance(value, str) and value.startswith("random:"):
        return random_coeffs(d, _parse_seed_directive(value, "coeffs"))
    if isinstance(value, str):
        raise ConfigError(f"coeffs: unknown directive {value!r}")
    coeffs = _as_complex_list(value, "coeffs")
    if len(coeffs) != d:
        raise ConfigError(f"coeffs: need exactly d = {d} entries, got {len(coeffs)}")
    return tuple(coeffs)


def resolve_beta(value, d: int, m: int) -> np.ndarray:
    """Expand explicit amplitudes, {"basis": k}, or "random:<seed>"."""
    size = d**m
    if value is None:
        value = {"basis": 0}
    if isinstance(value, dict):
        if set(value) != {"basis"}:
            raise ConfigError(f"beta: unknown object form {value!r}")
        k = value["basis"]
        if not _is_int(k) or not 0 <= k < size:
            raise ConfigError(f"beta.basis: index {k!r} out of range for d^m = {size}")
        return InputStateSpec.basis(d, m, k).beta
    if isinstance(value, str) and value.startswith("random:"):
        return InputStateSpec.random(d, m, _parse_seed_directive(value, "beta")).beta
    if isinstance(value, str):
        raise ConfigError(f"beta: unknown directive {value!r}")
    beta = np.asarray(_as_complex_list(value, "beta"))
    if beta.size != size:
        raise ConfigError(f"beta: length must be d^m = {size}, got {beta.size}")
    norm = float(np.linalg.norm(beta))
    if abs(norm - 1.0) > 1e-10:
        raise ConfigError(
            f"beta: amplitudes must satisfy sum|beta|^2 = 1, got {norm**2!r}"
        )
    return beta


def _check_amplitudes(what: str, need: int | None) -> None:
    """The amplitude guard on a campaign's widest array, need amplitudes
    (None: too many to compute), before any of it is built."""
    limit = max_amplitudes()
    if need is None or need > limit:
        needs = "" if need is None else f" needs {need} amplitudes and"
        raise SizeGuardError(
            f"{what}{needs} exceeds the size guard of {limit} "
            f"(override with {MAX_AMPLITUDES_ENV})"
        )


def _check_input_size(d: int, m: int) -> None:
    """The guard on the sampler's and the oracle's widest array: the
    input with the aux qubit (2 d^m amplitudes) or the sender's d^2
    outcome weights.  An m at least the guard's bit length exceeds it for
    every d >= 2, so d**m is computed only for smaller m."""
    small = m < max_amplitudes().bit_length()
    _check_amplitudes(f"an input of {d}^{m} amplitudes", max(2 * d**m, d * d) if small else None)


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, the schema's boolean is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect_int(doc: dict, key: str, default: int, minimum: int) -> int:
    value = doc.get(key, default)
    if not _is_int(value) or value < minimum:
        raise ConfigError(f"{key}: expected an integer >= {minimum}, got {value!r}")
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
    if kind not in KINDS:
        raise ConfigError(f"kind: expected one of {KINDS}, got {kind!r}")
    fmt = doc.get("format", "json")
    if fmt not in FORMATS:
        raise ConfigError(f"format: expected one of {FORMATS}, got {fmt!r}")
    seed = _expect_int(doc, "seed", 0, 0)
    trials = _expect_int(doc, "trials", 1000, 1)
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out: expected a path string, got {out!r}")

    cfg = ExperimentConfig(kind=kind, trials=trials, seed=seed, out=out, fmt=fmt)

    if kind == "sweep":
        sweep = doc.get("sweep")
        if not isinstance(sweep, dict):
            raise ConfigError('sweep: kind "sweep" requires a "sweep" object')
        for key, minimum in (("d", 2), ("m", 1), ("n", 0)):
            values = sweep.get(key)
            if (
                not isinstance(values, list)
                or not values
                or not all(_is_int(v) and v >= minimum for v in values)
            ):
                raise ConfigError(
                    f"sweep.{key}: expected a non-empty list of integers >= {minimum}"
                )
        cfg.sweep = {k: list(sweep[k]) for k in ("d", "m", "n")}
        # Every point the sweep will enumerate (trial i runs point i mod
        # the grid size) passes the guards before the first one runs.
        grid = list(product(cfg.sweep["d"], cfg.sweep["m"], cfg.sweep["n"]))
        for d, m, n in grid[:trials]:
            _check_branches(d, m, n)
            _check_input_size(d, m)
        return cfg

    cfg.d = _expect_int(doc, "d", 2, 2)
    cfg.m = _expect_int(doc, "m", 1, 1)
    cfg.n = _expect_int(doc, "n", 0, 0)

    if kind == "decoy":
        eve = doc.get("eve", "random_basis_resend")
        if eve not in EVE_ACTIONS:
            raise ConfigError(f"eve: expected one of {EVE_ACTIONS}, got {eve!r}")
        cfg.eve = eve
        # The d x d X basis and the campaign's Born tables.
        _check_amplitudes(f"a decoy of dimension {cfg.d}", cfg.d * cfg.d)
        return cfg

    cfg.coeffs = resolve_coeffs(doc.get("coeffs"), cfg.d)
    try:
        cfg.channel_spec()
    except ValueError as exc:
        raise ConfigError(f"coeffs: {exc}") from None
    _check_input_size(cfg.d, cfg.m)
    cfg.beta = resolve_beta(doc.get("beta"), cfg.d, cfg.m)
    try:
        cfg.input_spec()
    except ValueError as exc:
        raise ConfigError(f"beta: {exc}") from None
    return cfg
