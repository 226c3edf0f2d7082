"""Campaign execution and result persistence.

Every campaign is deterministic given its config and master seed; the
serialized output (JSON or CSV) is byte-identical across reruns.  Wall
clock timing is kept on the in-memory record only, never serialized.
An undefined value (no success to average, or the fidelity of a branch
of zero probability) is None: null in JSON, an empty field in CSV, so
the JSON stays strict.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import time
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


@dataclass
class ResultRecord:
    """One campaign's outcome: config echo, aggregate stats, row data."""

    config: dict
    aggregate: dict
    rows: list[dict]
    columns: list[str]
    elapsed_seconds: float  # diagnostic only; never serialized


def _complex_pairs(values) -> list[list[float]]:
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


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


def _sample_rows(start: int, sample) -> list[dict]:
    """One row per sampled run of a chunk whose first trial is start."""
    return [
        {
            "trial": trial,
            "gbs": _fmt_gbs(gbs),
            "controllers": _fmt_controllers(controllers),
            "r_sums": ";".join(str(v) for v in r_sums),
            "aux": aux,
            "success": int(aux == 0),
            "fidelity": fidelity,
            "probability": probability,
        }
        for trial, gbs, controllers, r_sums, aux, fidelity, probability in zip(
            range(start, start + len(sample.aux)),
            sample.gbs.tolist(),
            sample.controllers.tolist(),
            sample.r_sums.tolist(),
            sample.aux.tolist(),
            sample.fidelity.tolist(),
            sample.probability.tolist(),
        )
    ]


def _run_enumerate(cfg: ExperimentConfig) -> tuple[dict, list[dict], list[str]]:
    report = enumerate_branches(cfg.input_spec(), cfg.channel_spec())
    rows = [
        {
            "branch": i,
            "gbs": _fmt_gbs(b.gbs),
            "controllers": _fmt_controllers(b.controllers),
            "aux": b.aux,
            "probability": b.probability,
            "fidelity": None if np.isnan(b.fidelity) else b.fidelity,
        }
        for i, b in enumerate(report.branches)
    ]
    aggregate = {
        "branch_count": len(report.branches),
        "total_probability": report.total_probability,
        "success_probability": report.success_probability,
        "theoretical_success_probability": report.theoretical,
        "abs_error": abs(report.success_probability - report.theoretical),
    }
    columns = ["branch", "gbs", "controllers", "aux", "probability", "fidelity"]
    return aggregate, rows, columns


def _run_montecarlo(cfg: ExperimentConfig) -> tuple[dict, list[dict], list[str]]:
    """Sampled runs, trial i on child i of SeedSequence(seed).spawn(trials).

    The closed-form sampler runs the trials in chunks, each fed by its
    children's Philox streams computed at once (_streams), so a row
    equals run_structured(seed=child) for its child.  A chunk's widest
    array, the register or the sender's d^2 outcome weights, holds at
    most SAMPLE_CHUNK_AMPLITUDES entries.
    """
    chan = cfg.channel_spec()
    input_state = cfg.input_spec().state()
    width = max(chan.d**chan.m, chan.d * chan.d)
    chunk = max(1, SAMPLE_CHUNK_AMPLITUDES // width)
    rows = []
    success_fidelities = []
    for start in range(0, cfg.trials, chunk):
        stop = min(start + chunk, cfg.trials)
        uniforms = child_uniforms(cfg.seed, start, stop, _draw_count(chan))
        sample = _sample_runs(input_state, chan, uniforms)
        success_fidelities.append(sample.fidelity[sample.aux == 0])
        rows.extend(_sample_rows(start, sample))
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
    columns = [
        "trial", "gbs", "controllers", "r_sums", "aux",
        "success", "fidelity", "probability",
    ]
    return aggregate, rows, columns


def _run_decoy(cfg: ExperimentConfig) -> tuple[dict, list[dict], list[str]]:
    report, rounds = detection_campaign(cfg.d, cfg.eve, cfg.trials, cfg.seed)
    rows = [
        {
            "round": i,
            "prep_basis": r.prep_basis,
            "prep_value": r.prep_value,
            "eve_action": r.eve_action,
            "detected": int(r.detected),
        }
        for i, r in enumerate(rounds)
    ]
    aggregate = {
        "rounds": report.rounds,
        "detections": report.detections,
        "rate": report.rate,
        "expected_rate": report.expected_rate,
        "z_score": report.z_score,
    }
    columns = ["round", "prep_basis", "prep_value", "eve_action", "detected"]
    return aggregate, rows, columns


def _run_sweep(cfg: ExperimentConfig) -> tuple[dict, list[dict], list[str]]:
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
            {
                "index": i,
                "d": d,
                "m": m,
                "n": n,
                "coeffs": ";".join(repr(abs(c)) for c in chan.coeffs),
                "success_probability": report.success_probability,
                "theoretical": report.theoretical,
                "abs_error": err,
            }
        )
    aggregate = {"specs": cfg.trials, "max_abs_error": max_err}
    columns = [
        "index", "d", "m", "n", "coeffs",
        "success_probability", "theoretical", "abs_error",
    ]
    return aggregate, rows, columns


_RUNNERS = {
    "enumerate": _run_enumerate,
    "montecarlo": _run_montecarlo,
    "decoy": _run_decoy,
    "sweep": _run_sweep,
}


def run_campaign(cfg: ExperimentConfig) -> ResultRecord:
    """Dispatch a validated config to its runner."""
    start = time.perf_counter()
    aggregate, rows, columns = _RUNNERS[cfg.kind](cfg)
    return ResultRecord(
        config=_config_echo(cfg),
        aggregate=aggregate,
        rows=rows,
        columns=columns,
        elapsed_seconds=time.perf_counter() - start,
    )


def to_json_text(record: ResultRecord) -> str:
    doc = {
        "config": record.config,
        "aggregate": record.aggregate,
        "rows": record.rows,
    }
    return json.dumps(doc, indent=2) + "\n"


def to_csv_text(record: ResultRecord) -> str:
    """Rows only, RFC 4180 quoting, fixed documented header.

    Floats are written in shortest round-trip form so the CSV carries
    exactly the numeric values of the JSON emission.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(record.columns)
    for row in record.rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in (row[c] for c in record.columns)])
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
