"""The four benchmark workloads: generated configs, work units, output checks.

Each workload is one qteleport CLI campaign at a fixed size.  The
benchmark seed sets the campaign ``seed`` and ``beta = random:<seed>``;
everything else is fixed per workload, so the program only ever sees the
generated config file.

Every output a run writes is checked here.  A check raises
``CheckError`` with a one-line reason; the caller counts the run as
failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

Z_BOUND = 5.0  # |z| above this on a fixed-size run has probability < 1e-6
FIDELITY_FLOOR = 1.0 - 1e-9
SWEEP_ERROR_BOUND = 1e-9
DECOY_RATE = 0.4  # (1/2)(1 - 1/d) at d = 5

MC_CSV_HEADER = [
    "trial", "gbs", "controllers", "r_sums", "aux", "success", "fidelity", "probability",
]


class CheckError(Exception):
    """A campaign output failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # CLI subcommand
    unit: str  # what one unit of work is, for the human-readable report
    why: str
    size: int  # trials, rounds, or sweep specs per run
    smoke_size: int
    fixed: dict  # config fields that do not depend on the seed
    check: Callable[[str, dict], None]  # raises CheckError on a bad output

    def config(self, seed: int, smoke: bool = False) -> dict:
        doc = {"kind": self.kind, "seed": seed, "trials": self.smoke_size if smoke else self.size}
        doc.update(self.fixed)
        if smoke and self.kind == "sweep":
            doc["sweep"] = SMOKE_GRID
        if self.kind == "montecarlo":
            doc["beta"] = f"random:{seed}"
        return doc

    def units(self, cfg: dict) -> int:
        """Units of work a run of this config does, known before it runs."""
        if self.kind != "sweep":
            return cfg["trials"]
        grid = _grid(cfg)
        return sum(_branch_count(*grid[i % len(grid)]) for i in range(cfg["trials"]))


def _grid(cfg: dict) -> list[tuple[int, int, int]]:
    sweep = cfg["sweep"]
    return list(product(sweep["d"], sweep["m"], sweep["n"]))


def _branch_count(d: int, m: int, n: int) -> int:
    """Branches enumerate_branches walks: d^2m sender x d^nm controller x 2 aux."""
    return d ** (2 * m) * d ** (n * m) * 2


def _reject_constant(name: str):
    raise CheckError(f"JSON holds the non-standard constant {name}")


def strict_json(text: str) -> dict:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"JSON does not parse: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != {"config", "aggregate", "rows"}:
        raise CheckError("JSON document lacks the config/aggregate/rows layout")
    return doc


def strict_csv(text: str, header: list[str]) -> list[list[str]]:
    """Parse RFC 4180 CSV: CRLF records, minimal quoting, the given header.

    Re-serializing the parsed records must reproduce the text byte for
    byte, which rules out bare LF, stray quotes and trailing garbage.
    """
    try:
        records = list(csv.reader(io.StringIO(text, newline=""), strict=True))
    except csv.Error as exc:
        raise CheckError(f"CSV does not parse: {exc}") from None
    buf = io.StringIO()
    csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n").writerows(records)
    if buf.getvalue() != text:
        raise CheckError("CSV is not in RFC 4180 form (CRLF records, minimal quoting)")
    if not records or records[0] != header:
        raise CheckError(f"CSV header is {records[:1]!r}, expected {header!r}")
    for i, rec in enumerate(records[1:], start=1):
        if len(rec) != len(header):
            raise CheckError(f"CSV record {i} has {len(rec)} fields, expected {len(header)}")
    return records[1:]


def _finite(value, what: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise CheckError(f"{what} is not a number: {value!r}") from None
    if not math.isfinite(x):
        raise CheckError(f"{what} is not finite: {value!r}")
    return x


def _z(successes: int, trials: int, p: float) -> float:
    return (successes / trials - p) / math.sqrt(p * (1.0 - p) / trials)


def _theory(cfg: dict) -> float:
    """(min_j |c_j|^2)^m, from the generated config."""
    return min(c * c for c in cfg["coeffs"]) ** cfg["m"]


def _check_trials(successes: list[bool], fidelities: list[float], cfg: dict) -> None:
    trials = cfg["trials"]
    if len(successes) != trials:
        raise CheckError(f"{len(successes)} trial rows, expected {trials}")
    for i, (ok, fid) in enumerate(zip(successes, fidelities)):
        if ok and fid < FIDELITY_FLOOR:
            raise CheckError(f"trial {i} succeeded with fidelity {fid!r} < 1 - 1e-9")
    z = _z(sum(successes), trials, _theory(cfg))
    if abs(z) > Z_BOUND:
        raise CheckError(f"success rate z = {z:.2f} against (min|c|^2)^m, bound {Z_BOUND}")


def check_mc_csv(text: str, cfg: dict) -> None:
    rows = strict_csv(text, MC_CSV_HEADER)
    col = {name: i for i, name in enumerate(MC_CSV_HEADER)}
    successes, fidelities = [], []
    for i, rec in enumerate(rows):
        if rec[col["trial"]] != str(i):
            raise CheckError(f"CSV record {i + 1} has trial {rec[col['trial']]!r}")
        success = rec[col["success"]]
        if success not in ("0", "1") or rec[col["aux"]] != ("0" if success == "1" else "1"):
            raise CheckError(f"trial {i}: success {success!r} disagrees with aux")
        successes.append(success == "1")
        fidelities.append(_finite(rec[col["fidelity"]], f"trial {i} fidelity"))
        _finite(rec[col["probability"]], f"trial {i} probability")
    _check_trials(successes, fidelities, cfg)


def check_mc_json(text: str, cfg: dict) -> None:
    doc = strict_json(text)
    rows, agg = doc["rows"], doc["aggregate"]
    successes = [row["success"] == 1 for row in rows]
    fidelities = [_finite(row["fidelity"], f"trial {i} fidelity") for i, row in enumerate(rows)]
    _check_trials(successes, fidelities, cfg)
    if agg["successes"] != sum(successes) or agg["trials"] != cfg["trials"]:
        raise CheckError("aggregate success count disagrees with the rows")
    if abs(agg["theoretical_success_probability"] - _theory(cfg)) > 1e-12:
        raise CheckError("aggregate theoretical_success_probability is not (min|c|^2)^m")


def check_decoy_json(text: str, cfg: dict) -> None:
    doc = strict_json(text)
    rows, agg = doc["rows"], doc["aggregate"]
    rounds = cfg["trials"]
    if len(rows) != rounds or agg["rounds"] != rounds:
        raise CheckError(f"{len(rows)} round rows, expected {rounds}")
    detections = sum(row["detected"] for row in rows)
    if agg["detections"] != detections:
        raise CheckError("aggregate detection count disagrees with the rows")
    if abs(agg["expected_rate"] - DECOY_RATE) > 1e-12:
        raise CheckError(f"expected_rate {agg['expected_rate']!r} is not (1/2)(1 - 1/d)")
    z = _z(detections, rounds, DECOY_RATE)
    if abs(z) > Z_BOUND:
        raise CheckError(f"detection rate z = {z:.2f} against {DECOY_RATE}, bound {Z_BOUND}")


def check_sweep_json(text: str, cfg: dict) -> None:
    doc = strict_json(text)
    rows, agg = doc["rows"], doc["aggregate"]
    grid = _grid(cfg)
    if len(rows) != cfg["trials"]:
        raise CheckError(f"{len(rows)} sweep rows, expected {cfg['trials']}")
    for i, row in enumerate(rows):
        if (row["d"], row["m"], row["n"]) != grid[i % len(grid)]:
            raise CheckError(f"sweep row {i} is not grid point {grid[i % len(grid)]}")
        if not _finite(row["abs_error"], f"sweep row {i} abs_error") < SWEEP_ERROR_BOUND:
            raise CheckError(f"sweep row {i} abs_error {row['abs_error']!r} >= 1e-9")
    max_err = _finite(agg["max_abs_error"], "max_abs_error")
    if not max_err < SWEEP_ERROR_BOUND or max_err != max(row["abs_error"] for row in rows):
        raise CheckError(f"max_abs_error {max_err!r} is not the rows' maximum below 1e-9")


ORACLE_GRID = {"d": [2, 3, 4], "m": [1, 2], "n": [0, 1, 2]}
SMOKE_GRID = {"d": [2, 3], "m": [1], "n": [0, 1]}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_qutrit",
            kind="montecarlo",
            unit="trials/s",
            why="d=3 m=1 n=2 CSV Monte Carlo: many tiny state-engine calls, seed spawning and row building",
            size=2500,
            smoke_size=40,
            fixed={
                "d": 3, "m": 1, "n": 2, "format": "csv",
                "coeffs": [math.sqrt(1.5), 1.0, math.sqrt(0.5)],
            },
            check=check_mc_csv,
        ),
        Workload(
            name="mc_wide",
            kind="montecarlo",
            unit="trials/s",
            why="d=2 m=10 n=0 JSON Monte Carlo: the dense 2048x2048 extraction dominates time and peak memory",
            size=120,
            smoke_size=20,
            fixed={
                "d": 2, "m": 10, "n": 0, "format": "json",
                "coeffs": [math.sqrt(1.06), math.sqrt(0.94)],
            },
            check=check_mc_json,
        ),
        Workload(
            name="decoy_qudit",
            kind="decoy",
            unit="rounds/s",
            why="d=5 random-basis intercept-resend decoy rounds: per-round Python loop plus one JSON row per round",
            size=25000,
            smoke_size=500,
            fixed={"d": 5, "eve": "random_basis_resend", "format": "json"},
            check=check_decoy_json,
        ),
        Workload(
            name="oracle_sweep",
            kind="sweep",
            unit="branches/s",
            why="exact enumeration over the d{2,3,4} m{1,2} n{0,1,2} grid with fresh random channels: no sampling",
            size=18,
            smoke_size=4,
            fixed={"sweep": ORACLE_GRID, "format": "json"},
            check=check_sweep_json,
        ),
    )
}
