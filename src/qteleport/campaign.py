"""Campaign execution and result persistence.

Every campaign is deterministic given its config and master seed; the
serialized output (JSON or CSV) is byte-identical across reruns.  Wall
clock timing is kept on the in-memory record only, never serialized.
An undefined value (no success to average, or the fidelity of a branch
of zero probability) is None: null in JSON, an empty field in CSV, so
the JSON stays strict.

A runner returns its aggregate and its rows as columns: one sequence of
Python scalars per output column.  ResultRecord keeps the columns, and
its rows are a read-only view that builds a row dict only when one is
read.  One writer serializes every kind: the CSV rows go to csv.writer
straight from the columns; the JSON document is config and aggregate
through json.dumps(indent=2), then the rows through one row template
built per record, with each column's values encoded once.  The text is
what json.dumps(indent=2) gives for the whole document.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._streams import child_uniforms
from .config import ExperimentConfig, random_coeffs
from .decoy import _z_score, detection_campaign
from .primitives import ChannelSpec
from .protocol import (
    InputStateSpec,
    _draw_count,
    _sample_runs,
    enumerate_branches,
    run_structured,  # noqa: F401  (perfbench/tracer.py wraps it here)
    theoretical_success_probability,
)

# The Monte Carlo chunk: at most this many entries in one array across a
# chunk's trials (2^14 complex amplitudes, 256 KiB), so memory stays
# bounded however many trials run.  The sampler holds a few such arrays
# at once; at 2^16 they raised the peak RSS of a d=2 m=10 campaign by 8%.
SAMPLE_CHUNK_AMPLITUDES = 2**14


class _Rows(Sequence):
    """Read-only view of columns as row dicts, built when a row is read."""

    def __init__(self, data: dict[str, Sequence]):
        self._data = data

    def __len__(self) -> int:
        return len(next(iter(self._data.values())))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return {name: values[index] for name, values in self._data.items()}

    def __iter__(self) -> Iterator[dict]:
        names = list(self._data)
        return (dict(zip(names, row)) for row in zip(*self._data.values()))


@dataclass
class ResultRecord:
    """One campaign's outcome: config echo, aggregate stats, row data.

    data maps each output column, in order, to its values: one Python
    scalar (int, float, str or None) per row.
    """

    config: dict
    aggregate: dict
    data: dict[str, Sequence]
    elapsed_seconds: float  # diagnostic only; never serialized

    @property
    def columns(self) -> list[str]:
        return list(self.data)

    @property
    def rows(self) -> Sequence[dict]:
        return _Rows(self.data)


def _complex_pairs(values) -> list[list[float]]:
    return np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1, 2).tolist()


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "format": cfg.fmt,
    }
    if cfg.kind == "sweep":
        echo["sweep"] = cfg.sweep
        return echo
    echo.update({"d": cfg.d, "m": cfg.m, "n": cfg.n})
    if cfg.kind == "decoy":
        echo["eve"] = cfg.eve
        return echo
    echo["coeffs"] = _complex_pairs(cfg.coeffs)
    echo["beta"] = _complex_pairs(cfg.beta)
    return echo


def _fmt_gbs(gbs) -> str:
    return ";".join(f"{r}:{s}" for r, s in gbs)


def _fmt_controllers(controllers) -> str:
    return "|".join(",".join(str(x) for x in copy) for copy in controllers)


def _columns(names: tuple[str, ...], rows) -> dict[str, list]:
    """Row tuples transposed into one list per named column."""
    return dict(zip(names, map(list, zip(*rows))))


def _run_enumerate(cfg: ExperimentConfig) -> tuple[dict, dict]:
    report = enumerate_branches(cfg.input_spec(), cfg.channel_spec())
    data = _columns(
        ("branch", "gbs", "controllers", "aux", "probability", "fidelity"),
        (
            (
                i,
                _fmt_gbs(b.gbs),
                _fmt_controllers(b.controllers),
                b.aux,
                b.probability,
                None if np.isnan(b.fidelity) else b.fidelity,
            )
            for i, b in enumerate(report.branches)
        ),
    )
    aggregate = {
        "branch_count": len(report.branches),
        "total_probability": report.total_probability,
        "success_probability": report.success_probability,
        "theoretical_success_probability": report.theoretical,
        "abs_error": abs(report.success_probability - report.theoretical),
    }
    return aggregate, data


def _run_montecarlo(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Sampled runs, trial i on child i of SeedSequence(seed).spawn(trials).

    The closed-form sampler runs the trials in chunks, fed by their
    children's Philox streams computed at once (_streams), so a row
    equals run_structured(seed=child) for its child.  A chunk's widest
    array, the receiver or the sender's d^2 outcome weights, holds at
    most SAMPLE_CHUNK_AMPLITUDES entries; a block of whole chunks, about
    as many uniforms, shares one _streams call.
    """
    chan = cfg.channel_spec()
    input_state = cfg.input_spec().state()
    width = max(chan.d**chan.m, chan.d * chan.d)
    draws = _draw_count(chan)
    chunk = max(1, SAMPLE_CHUNK_AMPLITUDES // width)
    block = chunk * max(1, SAMPLE_CHUNK_AMPLITUDES // (chunk * draws))
    names = ("gbs", "controllers", "r_sums", "aux", "success", "fidelity", "probability")
    data = {"trial": range(cfg.trials)} | {name: [] for name in names}
    success_fidelities = []
    for start in range(0, cfg.trials, chunk):
        if start % block == 0:
            uniforms = child_uniforms(cfg.seed, start, min(start + block, cfg.trials), draws)
        sample = _sample_runs(input_state, chan, uniforms[start % block :][:chunk])
        success = sample.aux == 0
        success_fidelities.append(sample.fidelity[success])
        data["gbs"] += map(_fmt_gbs, sample.gbs.tolist())
        data["controllers"] += map(_fmt_controllers, sample.controllers.tolist())
        data["r_sums"] += (";".join(map(str, v)) for v in sample.r_sums.tolist())
        data["aux"] += sample.aux.tolist()
        data["success"] += success.astype(int).tolist()
        data["fidelity"] += sample.fidelity.tolist()
        data["probability"] += sample.probability.tolist()
    fidelities = np.concatenate(success_fidelities)
    successes = len(fidelities)
    p = theoretical_success_probability(chan)
    aggregate = {
        "trials": cfg.trials,
        "successes": successes,
        "success_rate": successes / cfg.trials,
        "theoretical_success_probability": p,
        "z_score": _z_score(successes, cfg.trials, p),
        # Summed in trial order, one addition at a time.
        "mean_success_fidelity": (
            float(np.cumsum(fidelities)[-1]) / successes if successes else None
        ),
    }
    return aggregate, data


def _run_decoy(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """The campaign's round columns, as rows: no DecoyRound is built."""
    report, rounds = detection_campaign(cfg.d, cfg.eve, cfg.trials, cfg.seed)
    data = {
        "round": range(report.rounds),
        "prep_basis": np.array(["Z", "X"])[rounds.basis].tolist(),
        "prep_value": rounds.value.tolist(),
        "eve_action": [cfg.eve] * report.rounds,
        "detected": rounds.detected.astype(int).tolist(),
    }
    aggregate = {
        "rounds": report.rounds,
        "detections": report.detections,
        "rate": report.rate,
        "expected_rate": report.expected_rate,
        "z_score": report.z_score,
    }
    return aggregate, data


def _run_sweep(cfg: ExperimentConfig) -> tuple[dict, dict]:
    grid = list(product(cfg.sweep["d"], cfg.sweep["m"], cfg.sweep["n"]))
    rows = []
    max_err = 0.0
    for i in range(cfg.trials):
        d, m, n = grid[i % len(grid)]
        chan = ChannelSpec(d, n, m, random_coeffs(d, cfg.seed * 1_000_003 + 2 * i))
        inp = InputStateSpec.random(d, m, cfg.seed * 1_000_003 + 2 * i + 1)
        report = enumerate_branches(inp, chan)
        err = abs(report.success_probability - report.theoretical)
        max_err = max(max_err, err)
        rows.append(
            (
                i, d, m, n,
                ";".join(repr(abs(c)) for c in chan.coeffs),
                report.success_probability,
                report.theoretical,
                err,
            )
        )
    aggregate = {"specs": cfg.trials, "max_abs_error": max_err}
    names = (
        "index", "d", "m", "n", "coeffs", "success_probability", "theoretical", "abs_error",
    )
    return aggregate, _columns(names, rows)


_RUNNERS = {
    "enumerate": _run_enumerate,
    "montecarlo": _run_montecarlo,
    "decoy": _run_decoy,
    "sweep": _run_sweep,
}


def run_campaign(cfg: ExperimentConfig) -> ResultRecord:
    """Dispatch a validated config to its runner."""
    start = time.perf_counter()
    aggregate, data = _RUNNERS[cfg.kind](cfg)
    return ResultRecord(
        config=_config_echo(cfg),
        aggregate=aggregate,
        data=data,
        elapsed_seconds=time.perf_counter() - start,
    )


def _json_column(values: Sequence) -> tuple[str, Sequence]:
    """(conversion, values) that put one column into the row template:
    ints as %d, floats by repr with None as null, and strings by
    json.dumps once per distinct value."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return "%d", values
    if kinds <= {float, type(None)}:
        return "%s", ["null" if v is None else repr(v) for v in values]
    text = {v: json.dumps(v) for v in set(values)}
    return "%s", list(map(text.__getitem__, values))


def to_json_text(record: ResultRecord) -> str:
    """The document {"config", "aggregate", "rows"} as json.dumps(indent=2)
    writes it, plus a newline; the rows go through one template."""
    head = json.dumps({"config": record.config, "aggregate": record.aggregate}, indent=2)
    head = head.removesuffix("\n}")
    conversions, columns = zip(*map(_json_column, record.data.values()))
    template = "    {\n%s\n    }" % ",\n".join(
        f"      {json.dumps(name).replace('%', '%%')}: {conversion}"
        for name, conversion in zip(record.data, conversions)
    )
    rows = ",\n".join(map(template.__mod__, zip(*columns)))
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    return f'{head},\n  "rows": {rows}\n}}\n'


def to_csv_text(record: ResultRecord) -> str:
    """Rows only, RFC 4180 quoting, fixed documented header.

    csv.writer writes floats by repr, the shortest round-trip form, so
    the CSV carries exactly the numeric values of the JSON emission, and
    None as an empty field.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(record.columns)
    writer.writerows(zip(*record.data.values()))
    return buf.getvalue()


def write_output(record: ResultRecord, path: str | None, fmt: str) -> str:
    """Serialize and write atomically (temp file then rename).

    Returns the serialized text; writes to stdout when path is None.
    """
    text = to_json_text(record) if fmt == "json" else to_csv_text(record)
    if path is None:
        print(text, end="")
        return text
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qteleport-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return text
