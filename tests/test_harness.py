"""Experiment configs, campaign output, and the command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qteleport
from qteleport import config, selftest
from qteleport.campaign import run_campaign, to_csv_text, to_json_text, write_output
from qteleport.cli import main
from qteleport.config import ConfigError, load_config, random_coeffs, resolve_beta, resolve_coeffs
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
    assert cfg.sweep == {"d": [2, 3], "m": [1], "n": [0, 1]}


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
    text = write_output(record, str(path), "json")
    assert path.read_text() == text
    leftovers = [p for p in path.parent.iterdir() if p.name != "out.json"]
    assert leftovers == []


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
    ],
)
def test_cli_bad_values_name_the_field(args, field, capsys):
    # One line and exit 1, like a bad config field: no argparse usage
    # text, no NaN in the output and no numpy warning on the way.
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


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
