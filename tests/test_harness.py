"""Experiment configs, campaign output, and the command-line interface."""

import contextlib
import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qteleport
from qteleport import campaign, config, protocol, selftest
from qteleport.campaign import run_campaign, to_csv_text, to_json_text, write_output
from qteleport.cli import FLAGS, main
from qteleport.config import ConfigError, load_config, random_coeffs, resolve_beta, resolve_coeffs
from qteleport.decoy import EVE_ACTIONS
from qteleport.state import SizeGuardError


BASE = {
    "kind": "enumerate",
    "d": 2,
    "m": 1,
    "n": 1,
    "coeffs": [1.224744871391589, 0.7071067811865476],  # sqrt 1.5, sqrt 0.5
    "beta": [0.6, 0.8],
    "seed": 7,
}


# ---------------------------------------------------------------- config


def test_load_config_roundtrip():
    cfg = load_config(dict(BASE))
    assert cfg.kind == "enumerate"
    assert cfg.channel_spec().d == 2
    assert np.allclose(cfg.beta, [0.6, 0.8])


def test_load_config_from_json_text_and_file(tmp_path):
    text = json.dumps(BASE)
    assert load_config(text).d == 2
    path = tmp_path / "exp.json"
    path.write_text(text)
    assert load_config(str(path)).d == 2


def test_load_config_json_text_versus_path(tmp_path):
    # A string starting with "{" is JSON text, however long; anything
    # else is a path.
    doc = dict(BASE, out="r" * 300 + ".json")
    assert load_config(json.dumps(doc)).out == doc["out"]
    assert load_config("  \n" + json.dumps(doc)).d == 2
    with pytest.raises(ConfigError, match="config: cannot read"):
        load_config(str(tmp_path / "missing.json"))
    with pytest.raises(ConfigError, match="config: cannot read"):
        load_config(str(tmp_path / "missing"))


def test_parse_error_reports_position():
    with pytest.raises(ConfigError, match="line 2"):
        load_config('{\n  "kind": oops\n}')


@pytest.mark.parametrize(
    "patch, match",
    [
        ({"kind": "simulate"}, "kind"),
        ({"format": "xml"}, "format"),
        ({"seed": -1}, "seed"),
        ({"trials": 0}, "trials"),
        ({"d": 1}, "d"),
        ({"m": 0}, "m"),
        ({"n": -2}, "n"),
        ({"out": 7}, "out"),
        ({"coeffs": [1.0, 1.5]}, "coeffs"),
        ({"coeffs": [1.0]}, "coeffs"),
        ({"coeffs": "random"}, "coeffs"),
        ({"coeffs": [1.0, "x"]}, r"coeffs\[1\]"),
        ({"beta": [1.0, 1.0]}, "beta"),
        ({"beta": [1.0, 0.0, 0.0]}, "beta"),
        ({"beta": {"basis": 5}}, "beta.basis"),
        ({"beta": "haar"}, "beta"),
        ({"seed": True}, "seed"),
        ({"trials": True}, "trials"),
        ({"m": True}, "m"),
        ({"beta": {"basis": True}}, "beta.basis"),
        ({"kind": "sweep", "sweep": {"d": [2], "m": [True], "n": [0]}}, "sweep.m"),
        ({"coeffs": [float("nan"), 1.0]}, "coeffs"),
        ({"beta": [float("nan"), 0.0]}, "beta"),
        ({"beta": [[0.6, float("nan")], 0.8]}, "beta"),
    ],
)
def test_constraint_errors_name_the_field(patch, match):
    doc = dict(BASE)
    doc.update(patch)
    with pytest.raises(ConfigError, match=match):
        load_config(doc)


SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schema" / "experiment.json"


@pytest.mark.parametrize(
    "patch",
    [
        {"coeffs": [True, True]},
        {"beta": [True, False]},
        {"beta": [[True, 0], 0]},
        {"coeffs": 1},
        {"beta": 0.5},
        {"coeffs": True},
        {"coeffs": [[1, "x"], 1]},
        {"coeffs": [1, [1, 0]]},
        {"beta": [[1, 0], 0]},
        {"beta": [0.6, 0.8]},
        {"trials": 2**32},
        {"trials": 2**32 + 1},
        {"trials": 2.0},
        {"d": 2.0},
        {"trials": 1e3},
        {"trials": 2.5},
        {"d": 2.5},
    ],
)
def test_loader_and_schema_agree(patch, monkeypatch):
    import jsonschema

    # The amplitude guard is a setting, not part of the schema: 2^32 trials'
    # held columns pass a guard this large.
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", str(2**40))
    doc = {"kind": "montecarlo", "d": 2, "m": 1, **patch}
    schema = json.loads(SCHEMA_PATH.read_text())
    schema_accepts = jsonschema.Draft202012Validator(schema).is_valid(doc)
    try:
        load_config(doc)
    except ConfigError:
        loader_accepts = False
    else:
        loader_accepts = True
    assert loader_accepts == schema_accepts


def test_the_loaders_key_table_is_the_schemas_properties():
    # load_config passes a config only the keys its kind's table names, so
    # a property the table misses would be ignored: the two must agree.
    schema = json.loads(SCHEMA_PATH.read_text())
    assert tuple(config.KEYS) == config.KINDS
    assert {"kind"}.union(*config.KEYS.values()) == schema["properties"].keys()
    fields = {config.FIELDS.get(key, key) for keys in config.KEYS.values() for key in keys}
    assert fields <= set(config.ExperimentConfig.__annotations__)


# One document of each kind, every key it reads but "out" set.
ECHO_DOCS = {
    "enumerate": {
        "kind": "enumerate", "d": 3, "m": 1, "n": 1, "seed": 1, "trials": 2, "format": "csv",
        "coeffs": [1.224744871391589, [0.6, 0.8], 0.7071067811865476], "beta": {"basis": 2},
    },
    "montecarlo": {
        "kind": "montecarlo", "d": 3, "m": 2, "n": 1, "seed": 2, "trials": 5, "format": "json",
        "coeffs": "random:4", "beta": "random:4",
    },
    "decoy": {
        "kind": "decoy", "d": 5, "m": 3, "n": 2, "seed": 4, "trials": 10, "format": "json",
        "eve": "measure_X_resend",
    },
    "sweep": {
        "kind": "sweep", "seed": 3, "trials": 4, "format": "csv",
        "sweep": {"d": [2, 3], "m": [1], "n": [0, 1]},
    },
}


def test_every_key_a_kind_reads_has_a_flag_and_an_echo_entry():
    # config.KEYS is the one list of what a kind reads: the CLI takes a
    # flag for each key (a sweep's axes by its "sweep" rows), and the
    # JSON document's config block writes each key but "out", in order.
    assert {flag for flag, key, _ in FLAGS if key == "sweep"} == {"--d", "--m", "--n"}
    assert tuple(ECHO_DOCS) == config.KINDS
    for kind, doc in ECHO_DOCS.items():
        keys = config.KEYS[kind]
        assert {key for _, key, _ in FLAGS if key in keys} == set(keys)
        echo = json.loads(to_json_text(run_campaign(load_config(doc))))["config"]
        assert list(echo) == ["kind", *[key for key in keys if key != "out"]]


@pytest.mark.parametrize("kind", sorted(ECHO_DOCS))
def test_the_json_config_block_reloads_to_the_same_config(kind):
    cfg = load_config(ECHO_DOCS[kind])
    assert load_config(json.loads(to_json_text(run_campaign(cfg)))["config"]) == cfg


def test_integral_numbers_are_integers(capsys):
    # JSON Schema's integer is any number with no fractional part.
    sweep = {"d": [2.0], "m": [1.0], "n": [0.0]}
    doc = {"kind": "sweep", "trials": 1e0, "seed": 3.0, "sweep": sweep}
    cfg = load_config(doc)
    assert (cfg.trials, cfg.seed, cfg.sweep) == (1, 3, {"d": (2,), "m": (1,), "n": (0,)})
    assert type(cfg.trials) is int and type(cfg.sweep["d"][0]) is int
    assert load_config(dict(BASE, beta={"basis": 1.0})).beta.tolist() == [0, 1]
    assert main(["decoy", "--config", '{"d": 2.0, "trials": 1e1}']) == 0
    assert '"d": 2,' in capsys.readouterr().out


def test_coeff_and_beta_directives():
    assert resolve_coeffs("uniform", 3) == (1.0, 1.0, 1.0)
    a = resolve_coeffs("random:5", 3)
    assert a == random_coeffs(3, 5)
    assert abs(sum(abs(c) ** 2 for c in a) / 3 - 1.0) < 1e-10
    beta = resolve_beta({"basis": 2}, 3, 1)
    assert beta[2] == 1.0
    beta = resolve_beta("random:5", 2, 2)
    assert abs(np.linalg.norm(beta) - 1.0) < 1e-12
    # Complex entries come in as [re, im] pairs.
    beta = resolve_beta([[0.6, 0.0], [0.0, 0.8]], 2, 1)
    assert beta[1] == 0.8j


def test_sweep_config_requires_grid():
    with pytest.raises(ConfigError, match="sweep"):
        load_config({"kind": "sweep"})
    with pytest.raises(ConfigError, match="sweep.d"):
        load_config({"kind": "sweep", "sweep": {"d": [], "m": [1], "n": [0]}})
    with pytest.raises(ConfigError, match="sweep.m"):
        load_config({"kind": "sweep", "sweep": {"d": [2], "m": [0], "n": [0]}})
    cfg = load_config({"kind": "sweep", "sweep": {"d": [2, 3], "m": [1], "n": [0, 1]}})
    assert cfg.sweep == {"d": (2, 3), "m": (1,), "n": (0, 1)}  # read-only, tuples


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"d": [1], "m": [1], "n": [0]}, "sweep.d: expected a non-empty list of integers >= 2"),
        ({"d": [2], "m": [0], "n": [0]}, "sweep.m: expected a non-empty list of integers >= 1"),
        ({"d": [2], "m": [1], "n": [-1]}, "sweep.n: expected a non-empty list of integers >= 0"),
    ],
)
def test_sweep_grid_messages_name_the_minimum(grid, message):
    with pytest.raises(ConfigError) as info:
        load_config({"kind": "sweep", "sweep": grid})
    assert str(info.value) == message


def test_sweep_guards_run_before_any_enumeration(monkeypatch, capsys):
    from qteleport import campaign

    def unreachable(*args):
        raise AssertionError("a sweep point was enumerated before the guards ran")

    monkeypatch.setattr(campaign, "enumerate_branches", unreachable)
    monkeypatch.setattr(protocol, "_stage_one_success", unreachable)
    # Point (2, 2, 3) fits, point (5, 2, 3) does not: nothing runs.
    assert main(["sweep", "--d", "2,5", "--m", "2", "--n", "3", "--trials", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: 19531250 branches exceed the enumeration guard of 1000000\n"
    # One trial visits only (2, 2, 3), so the config passes.
    load_config({"kind": "sweep", "trials": 1, "sweep": {"d": [2, 5], "m": [2], "n": [3]}})
    # A huge exponent is refused without computing the power.
    with pytest.raises(SizeGuardError, match="2 \\* 2\\^2000000000004 branches"):
        load_config({"kind": "sweep", "sweep": {"d": [2], "m": [2], "n": [10**12]}})
    # The amplitude guard covers every visited point as well.
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "16")
    assert main(["sweep", "--d", "2", "--m", "1,4", "--n", "0", "--trials", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: an input of 2^4 amplitudes needs 32 amplitudes")


def test_decoy_config_eve_validation():
    cfg = load_config({"kind": "decoy", "d": 3, "eve": "measure_X_resend"})
    assert cfg.eve == "measure_X_resend"
    with pytest.raises(ConfigError, match="eve"):
        load_config({"kind": "decoy", "d": 3, "eve": "clone"})


# -------------------------------------------------------------- campaigns


def test_enumerate_campaign_aggregate():
    record = run_campaign(load_config(dict(BASE)))
    assert record.aggregate["branch_count"] == 16
    assert abs(record.aggregate["success_probability"] - 0.5) < 1e-10
    assert record.aggregate["abs_error"] < 1e-10
    assert record.columns[0] == "branch"
    assert len(record.rows) == 16


def test_montecarlo_campaign_aggregate():
    doc = dict(BASE)
    doc.update({"kind": "montecarlo", "trials": 400})
    record = run_campaign(load_config(doc))
    agg = record.aggregate
    assert agg["trials"] == 400
    assert abs(agg["success_rate"] - 0.5) < 5 * np.sqrt(0.25 / 400)
    assert agg["mean_success_fidelity"] >= 1.0 - 1e-9
    assert len(record.rows) == 400


def test_decoy_campaign_aggregate():
    record = run_campaign(
        load_config({"kind": "decoy", "d": 2, "eve": "none", "trials": 300})
    )
    assert record.aggregate["detections"] == 0
    assert len(record.rows) == 300


def test_sweep_campaign_covers_grid():
    record = run_campaign(
        load_config(
            {
                "kind": "sweep",
                "trials": 6,
                "seed": 1,
                "sweep": {"d": [2, 3], "m": [1], "n": [0, 1]},
            }
        )
    )
    assert record.aggregate["max_abs_error"] < 1e-9
    assert {(r["d"], r["n"]) for r in record.rows} == {(2, 0), (2, 1), (3, 0), (3, 1)}


def test_sweep_runs_only_the_oracles_stage_one(monkeypatch):
    # Stage 2 scores the leaves, starting from the pulled-back input; the
    # sweep reports only success probabilities, so it never gets there.
    from qteleport import protocol

    def unreachable(*args):
        raise AssertionError("the sweep scored leaves it does not write")

    grid = {"d": [2, 3], "m": [1, 2], "n": [0, 1]}
    doc = {"kind": "sweep", "trials": 8, "seed": 3, "sweep": grid}
    expected = run_campaign(load_config(doc))
    monkeypatch.setattr(protocol, "_pullback", unreachable)
    record = run_campaign(load_config(doc))
    assert to_json_text(record) == to_json_text(expected)
    assert record.aggregate["max_abs_error"] < 1e-9


def test_sweep_builds_no_channel_state_and_no_phase_rows(monkeypatch):
    # Stage 1 reads the channel copy's amplitudes, the input's and the
    # extraction weights: the sweep builds no state at all, not even a
    # point's input register.
    from qteleport.primitives import ChannelSpec
    from qteleport.state import StateVector

    built = []
    init = StateVector.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.labels)

    def unreachable(*args):
        raise AssertionError("the sweep built the receiver's phase rows")

    grid = {"d": [2, 3, 4], "m": [1, 2], "n": [0, 1, 2]}
    doc = {"kind": "sweep", "trials": 18, "seed": 4, "sweep": grid}
    expected = to_json_text(run_campaign(load_config(doc)))
    monkeypatch.setattr(StateVector, "__init__", counted)
    monkeypatch.setattr(ChannelSpec, "_phase_rows", property(unreachable))
    assert to_json_text(run_campaign(load_config(doc))) == expected
    assert built == []


def test_reruns_are_byte_identical():
    doc = dict(BASE)
    doc.update({"kind": "montecarlo", "trials": 50})
    a = to_json_text(run_campaign(load_config(doc)))
    b = to_json_text(run_campaign(load_config(doc)))
    assert a == b
    assert to_csv_text(run_campaign(load_config(doc))) == to_csv_text(
        run_campaign(load_config(doc))
    )


def test_json_and_csv_carry_identical_numbers():
    doc = dict(BASE)
    doc.update({"kind": "montecarlo", "trials": 25})
    record = run_campaign(load_config(doc))
    parsed = json.loads(to_json_text(record))
    reader = csv.DictReader(io.StringIO(to_csv_text(record)))
    for json_row, csv_row in zip(parsed["rows"], reader):
        assert float(csv_row["fidelity"]) == json_row["fidelity"]
        assert float(csv_row["probability"]) == json_row["probability"]
        assert int(csv_row["success"]) == json_row["success"]


def test_csv_is_rfc4180():
    doc = dict(BASE)
    doc.update({"kind": "montecarlo", "trials": 5})
    text = to_csv_text(run_campaign(load_config(doc)))
    lines = text.split("\r\n")
    assert lines[0] == "trial,gbs,controllers,r_sums,aux,success,fidelity,probability"
    assert lines[-1] == ""
    assert len(lines) == 7  # header + 5 rows + trailing terminator


def test_write_output_atomic(tmp_path):
    doc = dict(BASE)
    record = run_campaign(load_config(doc))
    path = tmp_path / "sub" / "out.json"
    path.parent.mkdir()  # as for open(), the directory must exist
    write_output(record, str(path), "json")
    assert path.read_text() == to_json_text(record)
    leftovers = [p for p in path.parent.iterdir() if p.name != "out.json"]
    assert leftovers == []


def test_write_output_refuses_an_unknown_format(tmp_path, capsys):
    record = run_campaign(load_config(dict(BASE)))
    refused = "^format: expected one of \\('json', 'csv'\\), got 'xml'$"
    with mock.patch.object(tempfile, "mkstemp", side_effect=AssertionError("temp file made")):
        for path in (None, str(tmp_path / "out.xml")):
            with pytest.raises(ValueError, match=refused):
                write_output(record, path, "xml")
    assert list(tmp_path.iterdir()) == [] and capsys.readouterr().out == ""


def _reference_json(record):
    """The document as json.dumps writes it whole."""
    doc = {"config": record.config, "aggregate": record.aggregate, "rows": list(record.rows)}
    return json.dumps(doc, indent=2) + "\n"


def _reference_csv(record):
    """One csv.writer row per row dict, floats by repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(record.columns)
    for row in record.rows:
        writer.writerow(
            [repr(v) if isinstance(v, float) else v for v in (row[c] for c in record.columns)]
        )
    return buf.getvalue()


WRITER_DOCS = {
    "enumerate": dict(BASE),
    # A uniform channel always succeeds: every aux = 1 branch has p = 0.
    "enumerate_zero_probability": {"kind": "enumerate", "d": 2, "n": 1, "beta": {"basis": 0}},
    "montecarlo": dict(BASE, kind="montecarlo", trials=60, m=2, n=2, beta="random:3"),
    # One trial at success probability 0.04: no success to average.
    "montecarlo_no_success": {
        "kind": "montecarlo", "d": 2, "coeffs": [1.4, 0.2], "trials": 1, "seed": 1,
    },
    "decoy": {"kind": "decoy", "d": 7, "eve": "measure_X_resend", "trials": 201, "seed": 8},
    "sweep": {"kind": "sweep", "trials": 5, "seed": 4, "sweep": {"d": [2, 3], "m": [1], "n": [1]}},
}


@pytest.mark.parametrize("name", WRITER_DOCS)
def test_writer_matches_whole_document_encoders(name):
    record = run_campaign(load_config(dict(WRITER_DOCS[name])))
    text = to_json_text(record)
    assert text == _reference_json(record)
    assert to_csv_text(record) == _reference_csv(record)
    json.loads(text, parse_constant=_reject_constant)
    if name == "enumerate_zero_probability":
        assert '"fidelity": null' in text and ",\r\n" in to_csv_text(record)
    if name == "montecarlo_no_success":
        assert '"mean_success_fidelity": null' in text


def test_rows_are_a_read_only_view_of_the_columns():
    record = run_campaign(load_config(dict(WRITER_DOCS["decoy"])))
    rows = list(record.rows)
    assert len(record.rows) == len(rows) == 201
    assert record.rows[-1] == rows[-1] == {
        name: values[-1] for name, values in record.data.items()
    }
    assert record.rows[5:9] == rows[5:9]
    assert list(rows[0]) == record.columns
    with pytest.raises(IndexError):
        record.rows[201]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_write_output_stdout_and_file_bytes_agree(fmt, tmp_path, capsys):
    record = run_campaign(load_config(dict(WRITER_DOCS["montecarlo"])))
    path = tmp_path / f"out.{fmt}"
    write_output(record, None, fmt)
    write_output(record, str(path), fmt)
    assert capsys.readouterr().out.encode() == path.read_bytes()


def _streamed(record, fmt):
    """write_output's bytes to stdout and to a file."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        write_output(record, None, fmt)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, f"out.{fmt}")
        write_output(record, path, fmt)
        with open(path, "rb") as handle:
            return stdout.getvalue().encode(), handle.read()


def _assert_streams_match_references(record, chunk):
    with mock.patch.object(campaign, "ROW_CHUNK", chunk):
        for fmt, reference in (("json", _reference_json), ("csv", _reference_csv)):
            expected = reference(record).encode()
            assert _streamed(record, fmt) == (expected, expected)


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("name", WRITER_DOCS)
def test_streamed_writer_matches_whole_document_encoders(name, chunk):
    _assert_streams_match_references(run_campaign(load_config(dict(WRITER_DOCS[name]))), chunk)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 3),
    m=st.integers(1, 3),
    n=st.integers(0, 2),
    trials=st.integers(1, 30),
    seed=st.integers(0, 2**32),
    chunk=st.sampled_from([1, 2, 7]),
)
@example(d=2, m=2, n=0, trials=9, seed=1, chunk=2)  # controllers "|": no digits
@example(d=3, m=2, n=2, trials=9, seed=1, chunk=7)  # controllers "x,x|x,x": CSV quotes
@example(d=3, m=1, n=2, trials=9, seed=1, chunk=7)  # one fused run, quoted "x,x" in it
@example(d=2, m=1, n=0, trials=9, seed=1, chunk=2)  # controllers "": an empty field
def test_streamed_montecarlo_matches_whole_document_encoders(d, m, n, trials, seed, chunk):
    doc = {
        "kind": "montecarlo", "d": d, "m": m, "n": n, "trials": trials, "seed": seed,
        "coeffs": f"random:{seed}", "beta": f"random:{seed + 1}",
    }
    record = run_campaign(load_config(doc))
    _assert_streams_match_references(record, chunk)
    if n >= 2:
        assert '"' in to_csv_text(record).split("\r\n")[1]


@pytest.mark.parametrize("chunk", [1, 2, 7, campaign.ROW_CHUNK])
def test_streamed_decoy_matches_across_the_index_split(chunk):
    # Round 999 -> 1000 is where the index's high take starts to print.
    doc = {"kind": "decoy", "d": 5, "eve": "random_basis_resend", "trials": 1003, "seed": 2}
    _assert_streams_match_references(run_campaign(load_config(doc)), chunk)


@pytest.mark.parametrize(
    "lo, hi",
    [(0, 1), (993, 1000), (1000, 1007), (9_000, 10_000), (10_000, 10_001), (999_999, 1_000_000),
     (1_000_000, 1_001_000)],
)
def test_index_takes_print_every_index_whole(lo, hi):
    # A chunk of rows never crosses a multiple of 1,000.
    high, low = campaign._field(range(hi), "json", "|")
    assert list(map("".join, zip(high(lo, hi), low(lo, hi)))) == [f"|{i}" for i in range(lo, hi)]


@pytest.mark.parametrize("cap", [1, 2, 5, 40])
def test_runs_of_small_columns_split_at_the_vocabulary_cap(cap):
    # d=3 m=1 n=2: gbs through success are one run of up to 972 texts.
    doc = {"kind": "montecarlo", "d": 3, "m": 1, "n": 2, "trials": 40, "seed": 3}
    record = run_campaign(load_config(doc))
    with mock.patch.object(campaign, "FUSED_TEXTS", cap):
        with mock.patch.object(campaign, "_fused", wraps=campaign._fused) as fused:
            to_csv_text(record)
        _assert_streams_match_references(record, 7)
    assert fused.call_count > 2  # more than one run and the row's close
    for (run,), _ in fused.call_args_list:
        sizes = [len(texts) for texts, _ in run]
        assert math.prod(sizes) <= cap or sizes.count(1) >= len(sizes) - 1


def test_decoy_values_above_a_byte_are_written_whole():
    doc = {"kind": "decoy", "d": 300, "eve": "measure_X_resend", "trials": 50, "seed": 4}
    record = run_campaign(load_config(doc))
    assert record.data["prep_value"].codes.dtype == np.uint16
    assert max(record.data["prep_value"]) > 255
    _assert_streams_match_references(record, 7)


def test_write_output_file_gets_the_mode_open_would_give(tmp_path):
    record = run_campaign(load_config(dict(BASE)))
    umask = os.umask(0o022)
    try:
        write_output(record, str(tmp_path / "out.json"), "json")
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "out.json").stat().st_mode) == 0o644


_SMALL_DECOY = ["decoy", "--d", "2", "--trials", "2"]


def _small_decoy_document(capsys) -> str:
    assert main(_SMALL_DECOY) == 0
    return capsys.readouterr().out


def test_out_keeps_an_existing_files_mode(tmp_path, capsys):
    path = tmp_path / "out.json"
    path.write_text("old")
    path.chmod(0o600)
    assert main([*_SMALL_DECOY, "--out", str(path)]) == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o600  # open() keeps it too
    assert path.read_text() == _small_decoy_document(capsys)


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old")
    link.symlink_to(target)
    assert main([*_SMALL_DECOY, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_text() == _small_decoy_document(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


def test_out_writes_a_fifo_in_place(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # A non-blocking reader lets the writer's open() return at once, and
    # reads end-of-file, not a hang, if no writer ever opens the FIFO.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main([*_SMALL_DECOY, "--out", str(fifo)]) == 0
        received = b""
        while chunk := os.read(reader, 2**16):
            received += chunk
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    document = _small_decoy_document(capsys)
    assert len(document) < 2**16  # within the pipe's buffer: the writer never waits
    assert received.decode() == document


def test_out_at_a_directory_names_the_directory(tmp_path, capsys):
    assert main([*_SMALL_DECOY, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_out_into_a_missing_directory_is_an_error(tmp_path, capsys):
    # As for open(path, "w"): no directory is made, and the error names
    # the path given, not the temp file the output would go through.
    path = tmp_path / "nodir" / "sub" / "x.json"
    assert main([*_SMALL_DECOY, "--out", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and ".qteleport-" not in err
    assert list(tmp_path.iterdir()) == []


# The child's own peak RSS in bytes.  On Linux a started process's
# ru_maxrss begins at its parent's mark (here the test runner's), so the
# child reads its address space's mark, VmHWM, where the system has one.
_PEAK_RSS_CHILD = """
import resource, sys
from qteleport.cli import main
code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as status:
        kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(kib * 1024, file=sys.stderr)
sys.exit(code)
"""


def test_long_montecarlo_output_is_written_in_bounded_memory(tmp_path):
    """A run writing ~36 MiB of JSON raises its peak RSS over a 100-trial
    run of the same shape by well under its output size (about a third
    today): the rows are streamed, and the columns hold a few bytes per
    trial."""
    src = os.path.dirname(os.path.dirname(qteleport.__file__))
    args = ["montecarlo", "--d", "2", "--m", "1", "--n", "2", "--seed", "3"]

    def run(trials):
        out = tmp_path / f"mc-{trials}.json"
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_CHILD, *args, "--trials", str(trials), "--out", out],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stderr.split()[-1]), out.stat().st_size

    tiny_rss, _ = run(100)
    big_rss, size = run(200_000)
    assert size > 30 * 2**20
    assert big_rss - tiny_rss < size / 2, (tiny_rss, big_rss, size)


def test_a_sweep_over_a_large_grid_holds_only_the_points_it_visits(tmp_path):
    """One trial of the 100 x 100 x 100 grid peaks within 5 MiB of a
    one-point sweep: point i is read from the three lists, and no list of
    the grid is built."""
    src = os.path.dirname(os.path.dirname(qteleport.__file__))

    def run(*lists):
        flags = [x for key, values in zip(("--d", "--m", "--n"), lists)
                 for x in (key, ",".join(map(str, values)))]
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_CHILD, "sweep", *flags, "--trials", "1",
             "--out", tmp_path / "sweep.json"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stderr.split()[-1])

    one_point = run([2], [1], [0])
    grid = run(range(2, 102), range(1, 101), range(100))
    assert grid - one_point < 5 * 2**20, (one_point, grid)


def test_timing_never_serialized():
    record = run_campaign(load_config(dict(BASE)))
    assert record.elapsed_seconds > 0.0
    assert "elapsed" not in to_json_text(record)
    assert "elapsed" not in to_csv_text(record)


# -------------------------------------------------------------------- CLI


def test_cli_enumerate_to_file(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main(
        [
            "enumerate",
            "--d", "2", "--m", "1", "--n", "1",
            "--coeffs", "1.224744871391589,0.7071067811865476",
            "--beta", "0.6,0.8",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["aggregate"]["success_probability"] - 0.5) < 1e-10


def test_cli_stdout_and_csv(capsys):
    code = main(
        ["decoy", "--d", "2", "--eve", "none", "--trials", "20", "--format", "csv"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("round,prep_basis,prep_value,eve_action,detected")


def test_cli_config_file_with_inline_override(tmp_path):
    cfg = dict(BASE)
    cfg["kind"] = "montecarlo"
    cfg["trials"] = 10
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    code = main(
        ["montecarlo", "--config", str(path), "--trials", "30", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["aggregate"]["trials"] == 30  # inline flag wins


def test_cli_out_flag_overrides_the_config_files_out(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"d": 2, "trials": 3, "out": str(tmp_path / "file.json")}))
    assert main(["decoy", "--config", str(path), "--out", str(tmp_path / "flag.json")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json", "flag.json"]
    assert json.loads((tmp_path / "flag.json").read_text())["aggregate"]["rounds"] == 3
    assert main(["decoy", "--config", str(path)]) == 0  # without the flag, the file's out
    assert json.loads((tmp_path / "file.json").read_text())["aggregate"]["rounds"] == 3


def test_cli_inline_flag_mends_an_invalid_config_field(tmp_path, capsys):
    # Valid only once --coeffs replaces the file's two coefficients.
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"kind": "montecarlo", "d": 3, "coeffs": [1.0, 1.0]}))
    code = main(["montecarlo", "--config", str(path), "--coeffs", "uniform", "--trials", "5"])
    assert code == 0, capsys.readouterr().err
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["coeffs"] == [[1.0, 0.0]] * 3


def test_cli_subcommand_supplies_the_kind(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"d": 3, "eve": "none", "trials": 5}))
    code = main(["decoy", "--config", str(path)])
    assert code == 0, capsys.readouterr().err
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["kind"] == "decoy"
    assert doc["aggregate"]["rounds"] == 5
    # A malformed field the flags cannot mend is still named, not a traceback.
    path.write_text(json.dumps({"sweep": [2, 3]}))
    assert main(["sweep", "--config", str(path), "--d", "2"]) == 1
    assert capsys.readouterr().err == 'error: sweep: kind "sweep" requires a "sweep" object\n'


def test_cli_validation_error_exit_code(capsys):
    code = main(["enumerate", "--d", "2", "--coeffs", "1.0,1.5"])
    assert code == 1
    assert "coeffs" in capsys.readouterr().err


def test_cli_guard_exit_code(capsys):
    code = main(["enumerate", "--d", "4", "--m", "2", "--n", "8"])
    assert code == 2
    assert "guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, field",
    [
        (["montecarlo", "--beta", "nan,0"], "beta"),
        (["montecarlo", "--coeffs", "nan,1"], "coeffs"),
        (["enumerate", "--coeffs", "1,inf"], "coeffs"),
        (["montecarlo", "--d", "x"], "d"),
        (["montecarlo", "--m", "1.5"], "m"),
        (["decoy", "--trials", "ten"], "trials"),
        (["sweep", "--d", "2,x"], "sweep.d"),
        (["sweep", "--n", "0,"], "sweep.n"),
        (["montecarlo", "--config", '{"coeffs": 1}'], "coeffs"),
        (["montecarlo", "--config", '{"beta": 0.5}'], "beta"),
        (["montecarlo", "--config", '{"coeffs": true}'], "coeffs"),
        (["montecarlo", "--config", '{"coeffs": [[1, "x"], 1]}'], "coeffs[0]"),
        (["montecarlo", "--trials", str(2**32 + 1)], "trials"),
    ],
)
def test_cli_bad_values_name_the_field(args, field, capsys):
    # One line and exit 1, like a bad config field: no argparse usage
    # text, no NaN in the output and no numpy warning on the way.
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--coeffs", "coeffs: coefficients violate (1/d)*sum|c_j|^2 = 1: got inf"),
        ("--beta", "beta: amplitudes must satisfy sum|beta|^2 = 1, got inf"),
    ],
)
def test_overflowing_values_give_one_error_line(flag, message, capsys):
    # Squaring 1e308 overflows: the norm check rejects it, with no numpy
    # warning before the error line.
    argv = ["montecarlo", "--d", "2", "--m", "1", "--n", "0", flag, "1e308,1e308"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["random: 5", "random:+5", "random:1_0", "random:-3", "random:"])
@pytest.mark.parametrize("field", ["coeffs", "beta"])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_seed_directive_takes_only_the_schemas_digits(source, field, value, tmp_path, capsys):
    # The schema's pattern is ^random:[0-9]+$: anything else is malformed.
    argv = ["montecarlo", "--d", "2", "--m", "1", "--n", "0", "--trials", "1"]
    if source == "config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}))
        argv += ["--config", str(path)]
    else:
        argv += [f"--{field}", value]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {field}: malformed directive {value!r}\n"


@pytest.mark.parametrize("value", ["basis: 1", "basis:+1", "basis:1_0", "basis:-1", "basis:"])
def test_basis_directive_takes_only_digits(value, capsys):
    # int() would take " 1", "+1" and "1_0", the last as index 10 of 16.
    assert main(["enumerate", "--d", "2", "--m", "4", "--n", "0", "--beta", value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: beta: malformed directive {value!r}\n"


def test_input_size_guard_precedes_building_the_input(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("the input was built before the size guard ran")

    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "8")
    monkeypatch.setattr(config, "resolve_beta", unreachable)
    doc = {"kind": "montecarlo", "d": 2, "m": 4, "trials": 1}
    with pytest.raises(SizeGuardError, match="2\\^4 amplitudes"):
        load_config(doc)
    assert main(["montecarlo", "--d", "2", "--m", "4", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: an input of 2^4 amplitudes") and err.count("\n") == 1
    # A huge m is refused without computing d**m.
    with pytest.raises(SizeGuardError):
        load_config(dict(doc, m=10**12))


def test_enumeration_guard_precedes_building_the_input(monkeypatch, capsys):
    # 2 * 2^44 branches: refused at load, as a sweep point is, before the
    # coefficients or the random: input are drawn.
    def unreachable(*args):
        raise AssertionError("the input was built before the enumeration guard ran")

    monkeypatch.setattr(config, "resolve_coeffs", unreachable)
    monkeypatch.setattr(config, "resolve_beta", unreachable)
    assert main(["enumerate", "--d", "2", "--m", "4", "--n", "9", "--beta", "random:1"]) == 2
    assert capsys.readouterr() == (
        "", "error: 2 * 2^44 branches exceed the enumeration guard of 1000000\n"
    )


@pytest.mark.parametrize(
    "argv, need",
    [
        (["enumerate", "--d", "20", "--m", "1", "--n", "0"], "d = 20, n = 0 needs 160000"),
        (["sweep", "--d", "12", "--m", "1", "--n", "1", "--trials", "1"],
         "d = 12, n = 1 needs 248832"),
    ],
)
def test_oracle_tables_count_against_the_amplitude_guard(argv, need, monkeypatch, capsys):
    # The GBS basis holds d^4 entries and a copy's tensor T[k, g, rho, j]
    # d^4, or d^5 with controllers: refused at load, before the
    # coefficients are drawn or a sweep point runs.
    def unreachable(*args):
        raise AssertionError("an oracle table was built before the size guard ran")

    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "100000")
    monkeypatch.setattr(config, "resolve_coeffs", unreachable)
    monkeypatch.setattr(protocol, "_stage_one_success", unreachable)
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        f"error: the oracle's copy tensor at {need} amplitudes and exceeds the size guard "
        "of 100000 (override with QTELEPORT_MAX_AMPLITUDES)\n",
    )


def test_oracle_tables_guard_at_the_default_size(monkeypatch):
    # At 2^27 amplitudes only m = 1 points are newly refused: d 108-707
    # without controllers and d 43-79 with one (the enumeration guard
    # refuses the rest); at m >= 2 it admits d <= 26, whose tables fit.
    from qteleport.config import _check_point
    from qteleport.protocol import InputStateSpec, _success_probability

    monkeypatch.delenv("QTELEPORT_MAX_AMPLITUDES", raising=False)
    for kind in ("enumerate", "sweep"):
        for d, n in ((107, 0), (42, 1), (26, 0)):
            _check_point(kind, d, 1 if d > 26 else 2, n)
        for d, n in ((108, 0), (707, 0), (43, 1), (79, 1)):
            with pytest.raises(SizeGuardError, match=f"copy tensor at d = {d}, n = {n} needs"):
                _check_point(kind, d, 1, n)
        with pytest.raises(SizeGuardError, match="enumeration guard"):
            _check_point(kind, 27, 2, 0)
    # The oracle itself checks them too, before it builds them.
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "100000")
    spec = qteleport.ChannelSpec(20, 0, 1, (1.0,) * 20)
    with pytest.raises(SizeGuardError, match="copy tensor at d = 20, n = 0"):
        _success_probability(InputStateSpec.basis(20, 1, 0), spec)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--d", "2", "--m", "1", "--n", "0,9", "--trials", "2"],
        ["enumerate", "--d", "2", "--m", "1", "--n", "9"],
    ],
)
def test_the_channel_copy_counts_against_the_guard_at_load(argv, monkeypatch, capsys):
    # A copy's d^(n+2) amplitudes outgrow its tensor's d^5 from n = 4 on
    # (the controllers' d x d^n bras are fewer): refused at load, before
    # the coefficients are drawn or the first sweep point runs.
    from qteleport import protocol

    def unreachable(*args):
        raise AssertionError("the oracle ran before the channel copy was counted")

    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "1000")
    monkeypatch.setattr(config, "resolve_coeffs", unreachable)
    monkeypatch.setattr(protocol, "_copy_tensor", unreachable)
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        "error: the oracle's channel copy at d = 2, n = 9 needs 2048 amplitudes and exceeds "
        "the size guard of 1000 (override with QTELEPORT_MAX_AMPLITUDES)\n",
    )


def test_the_oracle_counts_the_channel_copy_when_called_directly(monkeypatch):
    from qteleport.protocol import InputStateSpec, _success_probability, enumerate_branches

    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "1000")
    spec = qteleport.ChannelSpec(2, 9, 1, (1.0, 1.0))
    for oracle in (_success_probability, enumerate_branches):
        with pytest.raises(SizeGuardError, match="channel copy at d = 2, n = 9 needs 2048"):
            oracle(InputStateSpec.basis(2, 1, 0), spec)
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "2048")
    assert abs(_success_probability(InputStateSpec.basis(2, 1, 0), spec) - 1.0) < 1e-12


def test_only_the_state_engine_raises_the_size_guard():
    # One raiser (state._check_size) states the amplitude guard's message.
    import ast

    raisers = set()
    for path in Path(qteleport.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "SizeGuardError":
                raisers.add(path.name)
    assert raisers == {"state.py"}


def test_only_max_amplitudes_reads_the_environment():
    # Every guard takes QTELEPORT_MAX_AMPLITUDES from state.max_amplitudes,
    # read once per decision; no other function reads the environment.
    import ast

    names = {"environ", "environb", "getenv", "getenvb"}
    readers = set()

    class Scopes(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

        def visit_Attribute(self, node):
            if node.attr in names and getattr(node.value, "id", None) == "os":
                readers.add(".".join(self.scope))
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            if node.module == "os" and names & {alias.name for alias in node.names}:
                readers.add(".".join(self.scope))

    for path in Path(qteleport.__file__).parent.glob("*.py"):
        Scopes(path.stem).visit(ast.parse(path.read_text()))
    assert readers == {"state.max_amplitudes"}


def test_no_module_imports_itertools_product():
    # A sweep reads its grid points by index (config._sweep_point); no
    # module builds the grid's product.
    import ast

    importers = set()
    for path in Path(qteleport.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                if "product" in (alias.name for alias in node.names):
                    importers.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "product":
                if getattr(node.value, "id", None) == "itertools":
                    importers.add(path.name)
    assert importers == set()


@settings(max_examples=100, deadline=None)
@given(
    lists=st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=5), min_size=3, max_size=3),
    i=st.integers(0, 1000),
)
def test_sweep_point_i_is_the_grids_product_order_wrapped(lists, i):
    grid = list(product(*lists))
    sweep = dict(zip("dmn", lists))
    assert config._sweep_point(sweep, i) == grid[i % len(grid)]


def test_input_size_guard_precedes_the_coefficients(monkeypatch, capsys):
    # d = 10^30 would overflow building d coefficients; the guard refuses
    # it first.
    def unreachable(*args):
        raise AssertionError("the coefficients were built before the size guard ran")

    monkeypatch.setattr(config, "resolve_coeffs", unreachable)
    assert main(["montecarlo", "--d", str(10**30), "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: an input of 1000000000000000000000000000000^1 amplitudes")
    assert err.count("\n") == 1


def test_sweep_draws_only_for_the_points_it_visits(capsys):
    # One trial visits (2, 1, 0) alone: the unvisited (101, 100, 0), whose
    # 2 * 101^100 normals no guard checked, sets no stream's length.
    assert main(["sweep", "--d", "2,101", "--m", "1,100", "--n", "0", "--trials", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["aggregate"]["specs"] == 1


def test_input_size_guard_covers_the_aux_qubit(monkeypatch, capsys):
    # 2^4 amplitudes fit a guard of 16, the register with its aux qubit
    # (2 x 2^4) does not: refused before the input is built.
    def unreachable(*args):
        raise AssertionError("the input was built before the size guard ran")

    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "16")
    monkeypatch.setattr(config, "resolve_beta", unreachable)
    for kind in ("montecarlo", "enumerate"):
        assert main([kind, "--d", "2", "--m", "4", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: an input of 2^4 amplitudes needs 32 amplitudes")
        assert err.count("\n") == 1
    # The sender's d^2 outcome weights count too: d = 5, m = 1.
    with pytest.raises(SizeGuardError, match="needs 25 amplitudes"):
        load_config({"kind": "montecarlo", "d": 5, "m": 1, "trials": 1})


def test_input_size_guard_reads_the_limit_once(monkeypatch):
    # The bit-length shortcut and the check take one reading of the
    # guard; a changed value still holds from the next decision on.
    from qteleport import protocol, state

    reads = []

    def counted():
        reads.append(os.environ.get("QTELEPORT_MAX_AMPLITUDES"))
        return int(reads[-1])

    monkeypatch.setattr(protocol, "max_amplitudes", counted)
    monkeypatch.setattr(state, "max_amplitudes", counted)
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "32")
    protocol._check_input_size(2, 4)
    assert reads == ["32"]
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", "31")
    with pytest.raises(SizeGuardError, match="needs 32 amplitudes and exceeds the size guard of 31"):
        protocol._check_input_size(2, 4)
    assert reads == ["32", "31"]


def test_a_sweep_point_passes_each_guard_once(monkeypatch):
    # The load walk decides every visited point's guards; the run repeats
    # none of them, so the guard is read once per decision: the trials
    # count, then each point's tables and input.
    from collections import Counter

    from qteleport import protocol, state

    calls, reads = Counter(), []
    for name in ("_check_branches", "_check_tables", "_check_input_size"):

        def counted(*args, _name=name, _check=getattr(protocol, name)):
            calls[_name] += 1
            return _check(*args)

        for module in (protocol, config):  # wherever a caller looks the check up
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)

    def read():
        reads.append(1)
        return state.DEFAULT_MAX_AMPLITUDES

    monkeypatch.setattr(protocol, "max_amplitudes", read)
    monkeypatch.setattr(state, "max_amplitudes", read)
    grid = {"d": [2, 3, 4], "m": [1, 2], "n": [0, 1, 2]}
    run_campaign(load_config({"kind": "sweep", "trials": 18, "seed": 4, "sweep": grid}))
    assert calls == {"_check_branches": 18, "_check_tables": 18, "_check_input_size": 18}
    assert len(reads) == 1 + 2 * 18


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's ru_minflt")
def test_a_sweep_point_of_a_size_seen_before_faults_in_no_buffer():
    # (4, 2, 2) needs stage 1's arrays at the size (4, 2, 1) made: the run
    # keeps them, so the second point faults in almost no page (about 330
    # when each point mapped its own).
    script = (
        "import json, resource, sys\n"
        "from qteleport.campaign import run_campaign\n"
        "from qteleport.config import load_config\n"
        "n = json.loads(sys.argv[1])\n"
        "cfg = load_config({'kind': 'sweep', 'trials': len(n), 'seed': 5,\n"
        "                   'sweep': {'d': [4], 'm': [2], 'n': n}})\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "run_campaign(cfg)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qteleport.__file__).parent.parent))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def faults(n: list) -> int:
        run = [sys.executable, "-c", script, json.dumps(n)]
        return int(subprocess.run(run, env=env, capture_output=True, text=True, check=True).stdout)

    one, both = faults([1]), faults([1, 2])
    assert one > 256, one  # the first point maps its 1 MiB matmul output
    assert both - one < 64, (one, both)


@pytest.mark.parametrize(
    "argv, per_trial",
    [
        (["decoy", "--d", "2", "--eve", "none"], 3),  # basis, value, detected
        (["sweep", "--d", "2", "--m", "1", "--n", "0"], 8),  # a row's eight values
        # gbs 2m, controllers m n, r_sums m, aux, fidelity, probability
        (["montecarlo", "--d", "2", "--m", "1", "--n", "2"], 8),
    ],
)
def test_trials_guard_counts_the_held_columns(argv, per_trial, monkeypatch, tmp_path, capsys):
    # A campaign holds its columns until it writes them: the guard counts
    # them against the amplitude guard, at load time.
    monkeypatch.setenv("QTELEPORT_MAX_AMPLITUDES", str(100 * per_trial))
    out = str(tmp_path / "out.json")
    assert main([*argv, "--trials", "100", "--out", out]) == 0
    assert capsys.readouterr() == ("", "")
    assert main([*argv, "--trials", "101", "--out", out]) == 2
    assert capsys.readouterr() == ("", (
        f"error: trials: a {argv[0]} of 101 rows needs {101 * per_trial} amplitudes and "
        f"exceeds the size guard of {100 * per_trial} (override with QTELEPORT_MAX_AMPLITUDES)\n"
    ))


@pytest.mark.parametrize("kind", ["decoy", "sweep", "montecarlo"])
def test_a_trials_count_past_the_guard_ends_before_any_allocation(kind, monkeypatch, capsys):
    trials = 10**9 if kind == "montecarlo" else 10**10  # montecarlo's bound is 2^32

    def unreachable(*args):
        raise AssertionError("the campaign ran past the trials guard")

    for name in ("detection_campaign", "_sweep_trials", "_sample_trials"):
        monkeypatch.setattr(campaign, name, unreachable)
    argv = [kind, "--d", "2", "--m", "1", "--n", "0", "--trials", str(trials)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: trials: a {kind} of {trials} rows needs ")
    assert "QTELEPORT_MAX_AMPLITUDES" in err


def test_decoy_size_guard_precedes_any_allocation(monkeypatch, capsys):
    from qteleport import campaign

    def unreachable(*args):
        raise AssertionError("the decoy campaign ran before the size guard")

    monkeypatch.setattr(campaign, "detection_campaign", unreachable)
    # d = 10^5 needs a 10^10-entry basis: refused at the default guard.
    assert main(["decoy", "--d", "100000", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a decoy of dimension 100000 needs 10000000000 amplitudes")
    assert err.count("\n") == 1


def test_decoy_size_guard_setting():
    src = os.path.dirname(os.path.dirname(qteleport.__file__))
    env = dict(os.environ, QTELEPORT_MAX_AMPLITUDES="16", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "qteleport.cli", "decoy", "--d", "5", "--trials", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: a decoy of dimension 5 needs 25 amplitudes and exceeds the size guard "
        "of 16 (override with QTELEPORT_MAX_AMPLITUDES)\n"
    )


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_cli_selftest_reports_why_a_check_failed(monkeypatch, capsys):
    def boom():
        raise RuntimeError("basis drifted")

    monkeypatch.setattr(
        selftest, "CHECKS", [("gbs_orthonormality", lambda: True), ("exploding", boom)]
    )
    assert main(["selftest"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "PASS gbs_orthonormality",
        "FAIL exploding: RuntimeError: basis drifted",
        "1/2 checks passed",
    ]


def test_selftest_runs_each_acceptance_criterion_once():
    acceptance = (Path(__file__).parent / "test_acceptance.py").read_text()
    names = [name for name, _ in selftest.CHECKS]
    assert [name.split("_")[1] for name in names] == [str(i) for i in range(1, 10)]
    assert all(f"def test_{name}(" in acceptance for name in names)


def test_selftest_runs_the_shared_formula_sweep_once(monkeypatch):
    calls = []
    sweep = selftest.formula_sweep

    def counted(channels):
        calls.append(channels)
        return sweep(channels)

    monkeypatch.setattr(selftest, "formula_sweep", counted)
    for _ in range(2):
        calls.clear()
        results = dict((name, passed) for name, passed, _ in selftest.run_selftest())
        assert calls == [14]
        assert results["criterion_1_success_probability_formula"]
        assert results["criterion_2_unit_fidelity_on_success"]


def test_cli_selftest_fail_line_carries_the_detail(monkeypatch, capsys):
    missed = selftest.Measurement({"fidelity": 0.75}, "mean success fidelity 0.75", 0.25)
    monkeypatch.setattr(selftest, "control_necessity", lambda: missed)
    assert main(["selftest"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL criterion_8_control_necessity: mean success fidelity 0.75 (0.250s)" in lines
    assert lines[-1] == "8/9 checks passed"


def test_cli_sweep_grid_flags(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--d", "2,3", "--m", "1", "--n", "0,1",
            "--trials", "4", "--seed", "3",
            "--format", "csv", "--out", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 4
    assert all(float(r["abs_error"]) < 1e-9 for r in rows)


def test_cli_montecarlo_deterministic(tmp_path):
    args = [
        "montecarlo",
        "--d", "2", "--m", "1", "--n", "0",
        "--coeffs", "random:4", "--beta", "random:4",
        "--trials", "40", "--seed", "11",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


NAN, INF = float("nan"), float("inf")
# Valid and invalid JSON values for each config field, at sizes that run
# in milliseconds.  A trials count is valid only where it runs quickly.
FUZZ_FIELDS = {
    "d": [2, 3, 2.0, 1, 0, -1, 2.5, True, "2", None, [2], 10**30, 1e300, NAN],
    "m": [1, 2, 1.0, 0, -1, 1.5, False, "1", None, 10**30, INF],
    "n": [0, 1, 2, 0.0, -1, 0.5, True, "0", None, 10**30],
    "seed": [0, 7, 3.0, 2**63, 2**64, 10**30, -1, 1.5, True, "1", None, NAN],
    "coeffs": [
        "uniform", "random:3", "random:10000000000000000000000000", "random:x", "random:",
        "ab", 1, True, None, [], {"a": 1}, [1, 1], [1.224744871391589, 0.7071067811865476],
        [[1, 0], [1, 0]], [1, "x"], [[1, "x"], 1], [NAN, 1], [1e308, 1e308],
        [0, 1.4142135623730951], [1e-160, 1.4142135623730951], [[1, 0, 0], 1],
    ],
    "beta": [
        "random:2", "random:10000000000000000000000000", "random:-1", {"basis": 0},
        {"basis": 1.0}, {"basis": True}, {"basis": -1}, {"basis": 10**30}, {"x": 1},
        [0.6, 0.8], [1, 0], [[0.6, 0], [0, 0.8]], [INF, 0], [1e308, 1e308], [1e-170, 1], 0.5,
        True, [], None,
    ],
    "eve": [*EVE_ACTIONS, "entangle", 1, None],
    "format": ["json", "csv", "xml", 1, None],
    "out": [1, [], True, None],
    "sweep": [
        {"d": [2], "m": [1], "n": [0]}, {"d": [2, 3.0], "m": [1], "n": [0, 1]},
        {"d": [], "m": [1], "n": [0]}, {"d": [1], "m": [1], "n": [0]}, {"d": [2]},
        {"d": [2], "m": [True], "n": [0]}, {"d": [2], "m": [1], "n": [10**30]},
        {"d": [10**30], "m": [1], "n": [0]}, {"d": [2], "m": [1], "n": [0], "x": 1},
        [2, 3], None, "2",
    ],
}
FUZZ_TRIALS = [1, 5, 20, 5.0, 1e1, 0, -1, 2.5, True, "5", None, [], NAN, INF]


@st.composite
def _config_documents(draw):
    kind = draw(st.sampled_from(config.KINDS))
    trials = FUZZ_TRIALS + ([2**32 + 1] if kind == "montecarlo" else [])
    fields = {name: st.sampled_from(pool) for name, pool in FUZZ_FIELDS.items()}
    doc = draw(st.fixed_dictionaries({}, optional={**fields, "trials": st.sampled_from(trials)}))
    if kind == "sweep" and isinstance(doc.get("trials"), (int, float)):
        doc["trials"] = min(doc["trials"], 5)  # the sweep's specs are the slow part
    return kind, doc


@settings(max_examples=150, deadline=None)
@given(case=_config_documents())
@example(("montecarlo", {"trials": 2**32 + 1}))  # ran out of memory before child 2^32
@example(("decoy", {"d": 2.0, "trials": 1e1}))  # JSON Schema's integers
def test_any_config_document_ends_in_output_or_one_error_line(case):
    kind, doc = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([kind, "--config", json.dumps(doc)])
    _assert_output_or_one_error_line(code, out.getvalue(), err.getvalue(), doc.get("format"))


def _assert_output_or_one_error_line(code, out, err, fmt, argparse_exit=False):
    """Exit 0 with strict JSON or RFC 4180 CSV output, or exit 1 or 2 with
    one error: line on stderr and nothing on stdout (after argparse's
    usage block, where argparse rejected the argv)."""
    if code == 0:
        assert err == ""
        if fmt == "csv":
            assert out.endswith("\r\n") and "\n" not in out.replace("\r\n", "")
            header, *rows = csv.reader(io.StringIO(out, newline=""), strict=True)
            assert all(len(row) == len(header) for row in rows)
        else:
            json.loads(out, parse_constant=_reject_constant)
    elif argparse_exit:
        assert code == 2 and out == ""
        usage, *_, last = err.splitlines()
        assert usage.startswith("usage: ") and last.startswith("qteleport") and ": error: " in last
        assert err.count("error: ") == 1 and err.endswith("\n")
    else:
        assert code in (1, 2)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


# Values, valid and invalid, for each flag of cli.FLAGS, at sizes that run
# in milliseconds; --d, --m and --n include the sweep's comma lists.
FUZZ_FLAG_VALUES = {
    "--config": ['{"trials": 3}', '{"d": 3, "n": 1}', "{", "[1]", '{"sweep": 1}'],
    "--seed": ["0", "7", "-1", "x", "1.5", "10000000000000000000000"],
    "--trials": ["1", "5", "20", "0", "-3", "x", "2.0", "10000000000"],
    "--d": ["2", "3", "1", "x", "2,3", "10000000000000000000"],
    "--m": ["1", "2", "0", "x", "1,2"],
    "--n": ["0", "1", "2", "-1", "x", "0,1"],
    "--coeffs": ["uniform", "random:3", "random:x", "1,1", "1.2247,0.7071", "1,x", "nan,1", "ab"],
    "--beta": ["random:2", "basis:0", "basis:9", "basis:x", "0.6,0.8", "1,0", "1,1", "x"],
    "--eve": [*EVE_ACTIONS, "entangle"],
    "--format": ["json", "csv", "xml"],
    "--out": ["out", "new-dir/out", "a-file/out"],
    "--x": ["1"],
}


@st.composite
def _argvs(draw):
    kind = draw(st.sampled_from([*config.KINDS, "bogus"]))
    flags = sorted({flag for flag, _, _ in FLAGS} | {"--x"})  # --x: an unknown flag
    pairs = draw(st.lists(st.sampled_from(flags), max_size=5))
    argv = [kind]
    for flag in pairs:
        argv += [flag, draw(st.sampled_from(FUZZ_FLAG_VALUES[flag]))]
    if draw(st.booleans()) and len(argv) > 1:
        argv.pop()  # a flag without its value
    guard = draw(st.sampled_from([None, "64", "1000"]))
    return argv, guard


@settings(max_examples=150, deadline=None)
@given(case=_argvs())
@example((["montecarlo", "--d", "2", "--trials", "10000000000"], "64"))
@example((["sweep", "--d", "2,3", "--format", "csv", "--trials", "5"], None))
def test_any_cli_argv_ends_in_output_or_one_error_line(case):
    argv, guard = case
    fmt = ([None] + [v for f, v in zip(argv, argv[1:]) if f == "--format"])[-1]
    env = {} if guard is None else {"QTELEPORT_MAX_AMPLITUDES": guard}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        if guard is None:
            os.environ.pop("QTELEPORT_MAX_AMPLITUDES", None)
        Path(tmp, "a-file").touch()  # a-file/out cannot be written
        argv = [os.path.join(tmp, v) if f == "--out" else v for f, v in zip([None, *argv], argv)]
        outs = [v for f, v in zip(argv, argv[1:]) if f == "--out"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, argparse_exit = main(argv), False
            except SystemExit as exc:
                code, argparse_exit = exc.code, True
        out = out.getvalue()
        if code == 0 and outs:
            assert out == ""
            with open(outs[-1], newline="") as f:
                out = f.read()
        _assert_output_or_one_error_line(code, out, err.getvalue(), fmt, argparse_exit)


def test_cli_no_success_mean_fidelity_is_null(capsys):
    # One trial at success probability 0.04: no success to average.
    args = ["montecarlo", "--d", "2", "--m", "1", "--coeffs", "1.4,0.2",
            "--trials", "1", "--seed", "1"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["aggregate"]["successes"] == 0
    assert doc["aggregate"]["mean_success_fidelity"] is None


def test_cli_zero_probability_branches_are_null_and_empty(capsys):
    # A uniform channel always succeeds: every aux = 1 branch has p = 0.
    args = ["enumerate", "--d", "2", "--n", "1", "--beta", "basis:0"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    undefined = [row for row in doc["rows"] if row["fidelity"] is None]
    assert len(undefined) == 8
    assert all(row["aux"] == 1 and row["probability"] == 0.0 for row in undefined)
    assert main(args + ["--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["fidelity"] for r in rows if r["aux"] == "1"] == [""] * 8


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["montecarlo", "--config", str(tmp_path / "missing.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: cannot read") and err.count("\n") == 1


def test_cli_unwritable_output(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["montecarlo", "--trials", "2", "--out", str(blocker / "r.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_bad_amplitude_guard_setting():
    # Importing must survive the bad setting; the run fails with one line.
    src = os.path.dirname(os.path.dirname(qteleport.__file__))
    env = dict(os.environ, QTELEPORT_MAX_AMPLITUDES="abc", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "qteleport.cli", "montecarlo", "--trials", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: QTELEPORT_MAX_AMPLITUDES must be a positive integer, got 'abc'\n"
    )
