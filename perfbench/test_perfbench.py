"""Tests of the benchmark itself: metric names, output checks, tracer, exit codes.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import speed
from tracer import Tracer
from workloads import (
    MC_CSV_HEADER,
    WORKLOADS,
    CheckError,
    check_decoy_json,
    check_mc_csv,
    check_mc_json,
    check_sweep_json,
)

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in BENCH["end_to_end"]} == {"units_per_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert "error_ratio: 0 " in proc.stdout
    if trace:
        assert "largest self-time layer:" in proc.stdout
        spans = (ROOT / ".perfbench" / "spans" / f"{workload}-seed7-trace1-smoke.jsonl")
        run_ids = {json.loads(line)[5] for line in spans.read_text().splitlines()}
        assert len(run_ids) == result["attempted"] // 2  # every traced run kept its spans
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("mc_qutrit", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ------------------------------------------------------------ output checks


def _mc_cfg(name, trials):
    cfg = WORKLOADS[name].config(1, smoke=True)
    cfg["trials"] = trials
    return cfg


def _csv(rows):
    return "\r\n".join([",".join(MC_CSV_HEADER)] + rows) + "\r\n"


def test_csv_check_accepts_good_rows_and_rejects_bad_form():
    cfg = _mc_cfg("mc_qutrit", 2)
    good = _csv(['0,0:1,"1,2",0,0,1,1.0,0.1', '1,0:1,"1,2",0,1,0,0.5,0.1'])
    check_mc_csv(good, cfg)
    with pytest.raises(CheckError, match="RFC 4180"):
        check_mc_csv(good.replace("\r\n", "\n"), cfg)
    with pytest.raises(CheckError, match="fidelity"):
        check_mc_csv(good.replace("1,1.0,0.1", "1,0.99,0.1"), cfg)
    with pytest.raises(CheckError, match="not finite"):
        check_mc_csv(good.replace("0,0.5,0.1", "0,nan,0.1"), cfg)
    with pytest.raises(CheckError, match="header"):
        check_mc_csv(good.replace("trial,", "index,", 1), cfg)


def test_json_check_rejects_nan_and_rate_far_from_theory():
    cfg = _mc_cfg("mc_wide", 40)
    rows = [{"success": 1, "fidelity": 1.0}] * 40
    doc = {"config": {}, "rows": rows,
           "aggregate": {"trials": 40, "successes": 40,
                         "theoretical_success_probability": 0.94 ** 10}}
    with pytest.raises(CheckError, match="z ="):
        check_mc_json(json.dumps(doc), cfg)
    with pytest.raises(CheckError, match="NaN"):
        check_mc_json(json.dumps(doc).replace("1.0", "NaN", 1), cfg)


def test_decoy_and_sweep_checks():
    cfg = WORKLOADS["decoy_qudit"].config(1, smoke=True)
    cfg["trials"] = 100
    rows = [{"detected": int(i < 40)} for i in range(100)]
    agg = {"rounds": 100, "detections": 40, "expected_rate": 0.4}
    check_decoy_json(json.dumps({"config": {}, "aggregate": agg, "rows": rows}), cfg)
    agg["detections"] = 41
    with pytest.raises(CheckError, match="detection count"):
        check_decoy_json(json.dumps({"config": {}, "aggregate": agg, "rows": rows}), cfg)

    cfg = WORKLOADS["oracle_sweep"].config(1, smoke=True)
    grid = [(2, 1, 0), (2, 1, 1), (3, 1, 0), (3, 1, 1)]
    rows = [{"d": d, "m": m, "n": n, "abs_error": 1e-16} for d, m, n in grid]
    check_sweep_json(json.dumps({"config": {}, "aggregate": {"max_abs_error": 1e-16},
                                 "rows": rows}), cfg)
    rows[2]["abs_error"] = 1e-6
    with pytest.raises(CheckError, match="abs_error"):
        check_sweep_json(json.dumps({"config": {}, "aggregate": {"max_abs_error": 1e-6},
                                     "rows": rows}), cfg)


# ------------------------------------------------------------------ tracer


def test_self_time_excludes_child_spans():
    tracer = Tracer("t")
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    tracer.wrap("outer", outer_body)()
    (i_id, i_parent, _, i_start, i_end, _, _), (o_id, o_parent, _, o_start, o_end, o_child, _) = (
        sorted(tracer.spans, key=lambda s: s[2])
    )
    assert i_parent == o_id and o_parent == -1
    assert o_child == pytest.approx(i_end - i_start)
    assert o_start <= i_start <= i_end <= o_end
    assert 0.009 < (o_end - o_start) - o_child < 0.019


# ------------------------------------------------------------- speed gauge


def test_speed_factor_is_the_mean_gauge_time_over_the_reference():
    ref = speed.REF_KERNEL_S
    assert speed.speed_factor(ref, ref) == pytest.approx(1.0)
    assert speed.speed_factor(ref, 2 * ref) == pytest.approx(1.5)
    assert speed.sample(reps=1) > 0
