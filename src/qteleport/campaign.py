"""Campaign execution and result persistence.

Every campaign is deterministic given its config and master seed; the
serialized output (JSON or CSV) is byte-identical across reruns.  Wall
clock timing is kept on the in-memory record only, never serialized.

A runner returns its aggregate and its rows as columns: arrays, text
columns as codes into a vocabulary (_Column), ranges, or a sweep's short
lists; indexing one gives a Python scalar.  One writer (_chunks) streams
every kind, as json.dumps(indent=2) or csv.writer writes it.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time
from collections.abc import Callable, Iterator, Sequence
from functools import partial

import numpy as np

from ._streams import child_uniforms, standard_normals, uniforms
from .config import (
    ConfigError,
    ExperimentConfig,
    _check_kind,
    _check_point,
    _coeffs_from_uniforms,
    _sweep_point,
    random_coeffs,  # noqa: F401  (perfbench/tracer.py wraps it here)
)
from .decoy import _z_score, detection_campaign
from .primitives import ChannelSpec, _View
from .protocol import (
    InputStateSpec,
    _digits,
    _draw_count,
    _Kept,
    _random_amplitudes,
    _sample_runs,
    _stage_one_success,
    enumerate_branches,
    run_structured,  # noqa: F401  (perfbench/tracer.py wraps it here)
    theoretical_success_probability,
)
from .state import record

# The Monte Carlo chunk: at most this many entries in one array across a
# chunk's trials (2^14 complex amplitudes, 256 KiB), so memory stays
# bounded however many trials run.  The sampler holds a few such arrays
# at once; at 2^16 they raised the peak RSS of a d=2 m=10 campaign by 8%.
# A sweep's chunk of specs draws at most this many normals.
SAMPLE_CHUNK_AMPLITUDES = 2**14


ROW_CHUNK = 1000  # rows per chunk at most (500 was slower); chunks stop at multiples of 1,000
FUSED_TEXTS = 4096  # texts in one run of small columns' vocabulary; a longer run splits

_CSV_SPECIAL = frozenset(',"\r\n')  # csv.writer quotes a field holding one


class _Column(_View):
    """One output column.  Without a vocabulary the codes are the values
    (NaN reads as None); else row i is vocab[codes[i, j]] joined by sep."""

    def __init__(self, codes: np.ndarray, vocab: list[str] | None = None, sep: str = ""):
        self.codes, self.vocab, self.sep = codes, vocab, sep

    def __len__(self) -> int:
        return len(self.codes)

    def _item(self, i: int):
        code = self.codes[i]
        if self.vocab is None:
            value = code.item()
            return None if value != value else value
        return self.sep.join([self.vocab[c] for c in code.tolist()])


def _text_column(digits: np.ndarray, d: int, inner: str, sep: str) -> _Column:
    """Row i: its groups digits[i, j] (base-d digits joined by inner) joined
    by sep.  The vocabulary holds the groups that occur."""
    rows, k, w = digits.shape
    groups = digits.reshape(rows * k, w)
    keys = np.zeros(rows * k, np.intp)
    for digit in groups.T:  # renumbered densely per digit, so no key overflows
        keys = keys * d + digit
        keys = (np.cumsum(np.bincount(keys) > 0) - 1)[keys]
    first = np.empty(keys.max() + 1, np.intp)
    first[keys] = np.arange(keys.size)  # a row holding each group
    codes = keys.astype(np.min_scalar_type(len(first))).reshape(rows, k)
    return _Column(codes, [inner.join(map(str, g)) for g in groups[first].tolist()], sep)


class _Rows(_View):
    """Read-only view of columns as row dicts, built when a row is read."""

    def __init__(self, data: dict[str, Sequence]):
        self._data = data

    def __len__(self) -> int:
        return len(next(iter(self._data.values())))

    def _item(self, i: int) -> dict:
        return {name: values[i] for name, values in self._data.items()}


@record
class ResultRecord:
    """One campaign's outcome: config echo, aggregate stats, row data.

    data maps each output column, in order, to a sequence of Python
    scalars (int, float, str or None), one per row.
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
        echo["sweep"] = {key: list(values) for key, values in cfg.sweep.items()}
        return echo
    echo.update({"d": cfg.d, "m": cfg.m, "n": cfg.n})
    if cfg.kind == "decoy":
        echo["eve"] = cfg.eve
        return echo
    echo["coeffs"] = _complex_pairs(cfg.coeffs)
    echo["beta"] = _complex_pairs(cfg.beta)
    return echo


def _run_enumerate(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """The leaves' arrays, with gbs and controllers decoded from the leaf
    index in (gbs, controllers, aux) product order: no BranchRecord."""
    report = enumerate_branches(cfg.input_spec(), cfg.channel_spec())
    d, m, n, leaves = cfg.d, cfg.m, cfg.n, len(report.branches)
    gbs = _text_column(_digits(np.arange(d ** (2 * m)), d, m, 2), d, ":", ";")
    controllers = _text_column(_digits(np.arange(d ** (m * n)), d, m, n), d, ",", "|")
    # Each sender outcome's leaves, each controller outcome's aux 0 and 1.
    controllers.codes = np.tile(np.repeat(controllers.codes, 2, axis=0), (len(gbs), 1))
    gbs.codes = np.repeat(gbs.codes, leaves // len(gbs), axis=0)
    data = {
        "branch": range(leaves),
        "gbs": gbs,
        "controllers": controllers,
        "aux": np.tile(np.arange(2, dtype=np.uint8), leaves // 2),
        "probability": report.branches.probability,
        "fidelity": report.branches.fidelity,
    }
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

    The closed-form sampler takes the trials a block at a time, fed by
    their children's Philox streams computed at once (_streams), so a
    row equals run_structured(seed=child) for its child.  Each unit holds
    about SAMPLE_CHUNK_AMPLITUDES entries at most:
      * a block (uniforms) is one _streams and one _sample_runs call, and
        a whole number of chunks;
      * a pass makes the sender's draws (d^2 weights a run) and the
        controllers' (d a draw);
      * a chunk runs the receiver (d^m amplitudes a run, d^2 at m = 1);
        its (chunk, d^m) @ extraction matmul pins the floats, so every
        block cuts the same chunks.
    """
    chan = cfg.channel_spec()
    input_state = cfg.input_spec().state()
    d, m, n = chan.d, chan.m, chan.n
    draws = _draw_count(chan)
    chunk = max(1, SAMPLE_CHUNK_AMPLITUDES // max(d**m, d * d))
    span = max(1, SAMPLE_CHUNK_AMPLITUDES // (d * max(d, m * n)))
    block = chunk * max(1, SAMPLE_CHUNK_AMPLITUDES // (chunk * draws))
    digit = np.min_scalar_type(d - 1)
    dtypes = (digit, digit, digit, np.uint8, float, float)
    samples = []
    for start in range(0, cfg.trials, block):
        uniforms = child_uniforms(cfg.seed, start, min(start + block, cfg.trials), draws)
        sample = _sample_runs(input_state, chan, uniforms, chunk, span)
        samples.append([a.astype(t, copy=False) for a, t in zip(sample, dtypes)])
    gbs, controllers, r_sums, aux, fidelity, probability = map(np.concatenate, zip(*samples))
    success = aux == 0
    data = {
        "trial": range(cfg.trials),
        "gbs": _text_column(gbs, chan.d, ":", ";"),
        "controllers": _text_column(controllers, chan.d, ",", "|"),
        "r_sums": _text_column(r_sums[..., None], chan.d, "", ";"),
        "aux": aux,
        "success": success.view(np.uint8),
        "fidelity": fidelity,
        "probability": probability,
    }
    fidelities = fidelity[success]
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
    """The campaign's round columns: no DecoyRound is built."""
    report, rounds = detection_campaign(cfg.d, cfg.eve, cfg.trials, cfg.seed)
    data = {
        "round": range(report.rounds),
        "prep_basis": _Column(rounds.basis[:, None], ["Z", "X"]),
        "prep_value": rounds.value,
        "eve_action": _Column(np.zeros((report.rounds, 1), np.uint8), [cfg.eve]),
        "detected": rounds.detected.view(np.uint8),
    }
    names = ("rounds", "detections", "rate", "expected_rate", "z_score")
    return {name: getattr(report, name) for name in names}, data


def _run_sweep(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Per grid point a fresh random channel and input, and the oracle's
    exact success probability from its stage 1 alone: no leaf is built.

    Spec i's channel is random_coeffs(d, seed * 1_000_003 + 2 i) and its
    input InputStateSpec.random(d, m, that seed + 1).  A chunk of specs
    reads all its channels' uniforms in one _streams call and all its
    inputs' normals in another, each row as long as the longest visited
    point's, which load_config checked (a spec reads its stream's first
    values), at most SAMPLE_CHUNK_AMPLITUDES normals a chunk.  Every
    point runs _stage_one_success with the run's one _Kept, once a
    hand-built config's visited points pass load_config's guards."""
    point = partial(_sweep_point, cfg.sweep)
    visited = list(map(point, range(min(cfg.trials, math.prod(map(len, cfg.sweep.values()))))))
    if not cfg._guarded:
        for d, m, n in visited:
            _check_point("sweep", d, m, n)
    most_coeffs, most_normals = max(d for d, _, _ in visited), max(2 * d**m for d, m, _ in visited)
    chunk = max(1, SAMPLE_CHUNK_AMPLITUDES // most_normals)
    rows, kept = [], _Kept()
    for lo in range(0, cfg.trials, chunk):
        seeds = [cfg.seed * 1_000_003 + 2 * i for i in range(lo, min(lo + chunk, cfg.trials))]
        weights = uniforms(seeds, most_coeffs)
        normals = standard_normals([seed + 1 for seed in seeds], most_normals)
        for i, u, z in zip(range(lo, lo + chunk), weights, normals):
            d, m, n = point(i)
            chan = ChannelSpec(d, n, m, _coeffs_from_uniforms(u[:d]))
            inp = InputStateSpec(d, m, _random_amplitudes(z, d**m))
            p, theory = _stage_one_success(inp, chan, kept), theoretical_success_probability(chan)
            coeffs = ";".join(repr(abs(c)) for c in chan.coeffs)
            rows.append((i, d, m, n, coeffs, p, theory, abs(p - theory)))
    names = ("index", "d", "m", "n", "coeffs", "success_probability", "theoretical", "abs_error")
    data = dict(zip(names, map(list, zip(*rows))))
    return {"specs": cfg.trials, "max_abs_error": max(data["abs_error"])}, data


# Each kind's runner and the fields it reads that a config may leave None.
_RUNNERS = {
    "enumerate": (_run_enumerate, ("coeffs", "beta")),
    "montecarlo": (_run_montecarlo, ("coeffs", "beta")),
    "decoy": (_run_decoy, ()),
    "sweep": (_run_sweep, ("sweep",)),
}


def run_campaign(cfg: ExperimentConfig) -> ResultRecord:
    """Dispatch a config to its runner; ConfigError names a field of a
    hand-built config that it cannot run."""
    start = time.perf_counter()
    _check_kind(cfg.kind)
    runner, needs = _RUNNERS[cfg.kind]
    for name in needs:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{name}: kind {cfg.kind!r} needs a value, got None")
    aggregate, data = runner(cfg)
    return ResultRecord(
        config=_config_echo(cfg),
        aggregate=aggregate,
        data={k: _Column(v) if isinstance(v, np.ndarray) else v for k, v in data.items()},
        elapsed_seconds=time.perf_counter() - start,
    )


def _scalar_text(value, fmt: str) -> str:
    """A Python scalar as JSON, or as the field csv.writer writes."""
    if value is None or value != value:
        return "null" if fmt == "json" else ""
    if not isinstance(value, str):
        return repr(value)
    if fmt == "json":
        return json.dumps(value)
    return '"%s"' % value.replace('"', '""') if _CSV_SPECIAL & set(value) else value


def _take_scalars(values: np.ndarray, encode, lo: int, hi: int) -> list[str]:
    """Rows lo..hi, each distinct value encoded once (floats keyed by bits)."""
    chunk = values[lo:hi]
    keys = chunk.view(np.uint64) if chunk.dtype.kind == "f" else chunk
    distinct, codes = np.unique(keys, return_inverse=True)
    texts = np.array([encode(v) for v in distinct.view(chunk.dtype).tolist()], dtype=object)
    return texts[codes].tolist()


def _fused(run: list) -> Callable | str:
    """Small fields, each (texts, codes), as one take from the product of
    their texts at the codes' mixed-radix number; constants as a literal.
    Only the products that occur in the document are joined."""
    digits = [(len(t), codes) for t, codes in run if len(t) > 1]
    if not digits:
        return "".join(t[0] for t, _ in run)

    def number(lo: int, hi: int) -> np.ndarray:
        code = digits[0][1][lo:hi].astype(np.intp)
        for radix, codes in digits[1:]:
            code = code * radix + codes[lo:hi]
        return code

    radices = [len(t) for t, _ in run]
    seen = np.zeros(math.prod(radices), bool)
    for lo in range(0, len(digits[0][1]), 2**16):  # 512 KiB of codes at a time
        seen[number(lo, lo + 2**16)] = True
    parts = np.unravel_index(np.flatnonzero(seen), radices)
    columns = [[texts[i] for i in part.tolist()] for (texts, _), part in zip(run, parts)]
    vocab = np.empty(len(seen), object)
    vocab[seen] = ["".join(row) for row in zip(*columns)]
    return lambda lo, hi: vocab[number(lo, hi)].tolist()


def _field(column: Sequence, fmt: str, lead: str) -> list:
    """A column's part of the row, with lead (the literal before it) folded
    in.  A small column (uint8, or one piece of text per row) gives its
    (texts, codes) for _fused; any other, literals and takes: take(lo, hi)
    lists rows lo..hi.  Text of several pieces takes once per piece, and
    every piece of one such column needs CSV quoting or none does."""
    encode = partial(_scalar_text, fmt=fmt)
    if isinstance(column, range):  # range(rows): a chunk's rows share i // 1000
        low = [str(i) for i in range(min(len(column), 1000))]  # then i % 1000 zero-padded
        low += ["%03d" % i for i in range(1000 * (len(column) > 1000))]
        return [
            lambda lo, hi: [lead + str(lo // 1000 or "")] * (hi - lo),
            lambda lo, hi: low[lo % 1000 + 1000 * (lo >= 1000) :][: hi - lo],
        ]
    if not isinstance(column, _Column):  # a sweep's list
        return [lead, lambda lo, hi: list(map(encode, column[lo:hi]))]
    codes, texts, sep, quote = column.codes, column.vocab, column.sep, '"'
    if texts is None and codes.dtype == np.uint8:
        texts, codes = range(int(codes.max(initial=0)) + 1), codes[:, None]
    if texts is None:
        return [partial(_take_scalars, codes, lambda value: lead + encode(value))]
    if codes.shape[1] == 1:
        return [([lead + encode(t) for t in texts], codes[:, 0])]
    if fmt == "json":
        texts, sep = [json.dumps(t)[1:-1] for t in texts], json.dumps(sep)[1:-1]
    elif any(_CSV_SPECIAL & set(t) for t in texts + [sep]):
        texts, sep = [t.replace('"', '""') for t in texts], sep.replace('"', '""')
    else:
        quote = ""
    last = codes.shape[1] - 1
    vocabs = [  # piece j: its separator (the field's opening for the first), its text, the close
        np.array([(sep if j else lead + quote) + t + quote * (j == last) for t in texts], object)
        for j in range(last + 1)
    ]
    return [lambda lo, hi, v=v, p=p: v[p[lo:hi]].tolist() for v, p in zip(vocabs, codes.T)]


def _json_head(record: ResultRecord) -> Iterator[str]:
    """The document up to its first row, as json.dumps(indent=2) writes
    it.  The config's complex pairs go through one template: with an
    indent, json.dumps runs its pure-Python encoder."""
    config = dict(record.config)
    pairs = {key: config.pop(key) for key in ("coeffs", "beta") if key in config}
    yield json.dumps({"config": config}, indent=2).removesuffix("\n  }\n}")
    for key, values in pairs.items():
        yield f',\n    "{key}": [\n'
        yield ",\n".join("      [\n        %r,\n        %r\n      ]" % tuple(v) for v in values)
        yield "\n    ]"
    aggregate = json.dumps({"aggregate": record.aggregate}, indent=2)
    yield "\n  },\n" + aggregate[2:-2] + ',\n  "rows": ['


def _chunks(record: ResultRecord, fmt: str) -> Iterator[str]:
    """The document: the head, then ROW_CHUNK rows at a time.  A run of small
    columns, up to FUSED_TEXTS texts, is one take, the last with the row's
    close.  A chunk repeats the row, sets each take's slots, joins once."""
    row, run = [], []
    for i, (name, column) in enumerate(record.data.items()):
        lead = "," if i else ""
        if fmt == "json":
            lead = (lead or ",\n    {") + f"\n      {json.dumps(name)}: "
        for entry in _field(column, fmt, lead):
            small = isinstance(entry, tuple)
            if run and (not small or np.prod([len(t) for t, _ in run + [entry]]) > FUSED_TEXTS):
                row.append(_fused(run))
                run = []
            (run if small else row).append(entry)
    row.append(_fused(run + [(["\n    }" if fmt == "json" else "\r\n"], None)]))
    takes = [(slot, take) for slot, take in enumerate(row) if not isinstance(take, str)]

    if fmt == "json":
        yield from _json_head(record)
    else:
        yield ",".join(_scalar_text(name, fmt) for name in record.data) + "\r\n"
    start, rows = 0, len(record.rows)
    while start < rows:  # a chunk stops at each multiple of 1,000: its rows share i // 1000
        stop = min(start + ROW_CHUNK, rows, start // 1000 * 1000 + 1000)
        flat = row * (stop - start)
        for slot, take in takes:
            flat[slot :: len(row)] = take(start, stop)
        if start == 0 and fmt == "json":
            flat[0] = flat[0][1:]  # no comma before the first row
        yield "".join(flat)
        start = stop
    if fmt == "json":
        yield "\n  ]\n}\n"


def to_json_text(record: ResultRecord) -> str:
    """The document {"config", "aggregate", "rows"} as json.dumps(indent=2)
    writes it, plus a newline."""
    return "".join(_chunks(record, "json"))


def to_csv_text(record: ResultRecord) -> str:
    """Rows only, RFC 4180 quoting, fixed documented header, as csv.writer
    writes them: floats by repr, exactly the JSON's values; None empty."""
    return "".join(_chunks(record, "csv"))


def write_output(record: ResultRecord, path: str | None, fmt: str) -> None:
    """Stream the document to stdout when path is None, else atomically:
    into a temp file, given the mode open(path, "w") would get, then
    renamed over path."""
    chunks = _chunks(record, fmt)
    if path is None:
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qteleport-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
