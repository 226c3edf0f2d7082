"""qteleport benchmark: one workload, closed loop, one fresh child per run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc_qutrit --seed 1 --seconds 20 --trace 0

Each run is a fresh ``python3 perfbench/child.py`` process that imports
qteleport and calls ``qteleport.cli.main`` once on the generated config,
so the package's lru_caches start cold as they do for a CLI user and
ru_maxrss belongs to that run alone.  Runs go back to back, one at a
time (concurrency 1), until ``--seconds`` is used up; at least two run
so that byte-identical output for one seed can be checked.

Every reported time is speed-normalised: the driver times fixed
reference kernels before the first child and after each child
(``speed.py``), and divides each child's ``cli.main`` and set-up times by
how much slower than the reference the machine ran while the child ran.
The wall-clock figures are printed and recorded too.

``--trace 0`` reports the end-to-end metrics from untraced runs.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones plus the tracing overhead.
``--smoke`` shrinks every workload to a tiny size for the benchmark's
own tests.

Human-readable lines go to stdout first; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.  The
full record (every run, the environment, the output digest) is written
to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, is_timing, median
from workloads import WORKLOADS, CheckError

# One BLAS thread, in the children and in this process's speed gauge: on a
# shared 2-core machine two threads made the dense mc_wide extraction
# faster but its run-to-run spread three times wider.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import speed  # noqa: E402  (numpy reads the thread count when it is imported)

CHILD_TIMEOUT_S = 150
WALL_LIMIT_S = 120  # no new run starts after this, so a run always ends well within 180 s
OUT_DIR = ".perfbench"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# Imports qteleport once and prints the versions to record.
PROBE = """
import qteleport.cli
import json, platform, numpy
blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "qteleport_file": qteleport.cli.__file__}))
"""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout's own .git, if it has one (read, git not run)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, env: dict) -> dict:
    """Versions and machine facts; the probe child also warms the bytecode cache."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=root,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    info = json.loads(proc.stdout.splitlines()[-1])
    if not Path(info["qteleport_file"]).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"qteleport imported from {info['qteleport_file']}, not from src/")
    del info["qteleport_file"]
    info.update(
        nproc=os.cpu_count(), cpu=_cpu_model(), blas_threads=BLAS_THREADS,
        commit=_git_commit(root),
    )
    return info


def run_child(root: Path, work: Path, env: dict, spec: dict) -> dict:
    """Spawn one run, wait for it, and return its report (never raises)."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = Path(spec["argv"][-1])
    out.unlink(missing_ok=True)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/child.py", str(spec_path)], env=env, cwd=root,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "reason": f"timed out after {CHILD_TIMEOUT_S} s"}
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "reason": f"child exit {proc.returncode}: {tail[0]}"}
    report["setup_s"] = report.pop("import_done") - spawned
    if report.get("rc") != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [report.get("error", "")]
        report.update(ok=False, reason=f"cli.main returned {report.get('rc')}: {tail[0]}")
        return report
    report["ok"] = True
    return report


def check_output(report: dict, workload, cfg: dict, out: Path) -> None:
    """Run the workload's output checks; mark the report failed on any miss."""
    try:
        data = out.read_bytes()
        report["digest"] = hashlib.sha256(data).hexdigest()
        workload.check(data.decode("utf-8"), cfg)
    except (CheckError, OSError, UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
        report.update(ok=False, reason=f"output check: {type(exc).__name__}: {exc}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd().resolve()
    if not (root / "src" / "qteleport" / "cli.py").is_file():
        print("error: run from the root of a qteleport checkout (src/qteleport not found)",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    bench = json.loads((root / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = root / OUT_DIR / "work" / tag
    results = root / OUT_DIR / "results"
    spans_dir = root / OUT_DIR / "spans"
    for d in (work, results, spans_dir):
        d.mkdir(parents=True, exist_ok=True)

    cfg = workload.config(args.seed, args.smoke)
    units = workload.units(cfg)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = work / ("output." + cfg["format"])
    argv_cli = [workload.kind, "--config", str(cfg_path), "--out", str(out)]

    env = child_env(root)
    info = environment(root, env)
    spans_path = spans_dir / f"{tag}.jsonl"
    spans_path.write_text("")  # each traced run appends its spans
    start = time.perf_counter()

    samples: list[dict] = []
    min_runs = 4 if args.trace else 2
    gauge = speed.sample()
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        run_id = f"{tag}-run{len(samples)}"
        spec = {"argv": argv_cli, "trace": traced, "units": units, "run_id": run_id,
                "spans_path": str(spans_path)}
        began = time.perf_counter()
        report = run_child(root, work, env, spec)
        before, gauge = gauge, speed.sample()
        report.update(gauge_before=before, gauge_after=gauge)
        if "main_s" in report:
            factor = speed.speed_factor(before, gauge)
            report.update(speed_factor=factor, ref_main_s=report["main_s"] / factor,
                          ref_setup_s=report["setup_s"] / factor)
        if report["ok"]:
            check_output(report, workload, cfg, out)
        report.update(traced=traced, run_id=run_id, wall_s=time.perf_counter() - began)
        samples.append(report)
        elapsed = time.perf_counter() - start
        typical = median([s["wall_s"] for s in samples])
        if len(samples) >= min_runs and (elapsed + typical > args.seconds or elapsed > WALL_LIMIT_S):
            break

    # Criterion 9: every run of one seed, traced or not, writes the same bytes.
    digests = [s["digest"] for s in samples if s["ok"]]
    reference = max(set(digests), key=digests.count) if digests else None
    for s in samples:
        if s["ok"] and s["digest"] != reference:
            s.update(ok=False, reason="output differs from the other runs of this seed")

    plain = [s for s in samples if not s["traced"] and "ref_main_s" in s]
    traced_runs = [s for s in samples if s["traced"] and s.get("layers")]
    metrics: dict[str, float] = {}
    if args.trace:
        first = traced_runs[0]["layers"] if traced_runs else {}
        for s in traced_runs[1:]:
            moved = [k for k, v in s["layers"].items() if not is_timing(k) and v != first[k]]
            if moved and s["ok"]:
                s.update(ok=False, reason=f"layer counts did not repeat: {moved[:3]}")
        for key in first:
            values = [s["layers"][key] for s in traced_runs]
            metrics[key] = median(values) if is_timing(key) else first[key]
        metrics["trace.overhead_ratio"] = (
            median([s["ref_main_s"] for s in traced_runs])
            / median([s["ref_main_s"] for s in plain])
            if traced_runs and plain else 0.0
        )
    else:
        # The run's total work over its total speed-normalised cli.main time
        # (README.md, "Speed-normalised times").
        metrics["units_per_s"] = (
            units * len(plain) / sum(s["ref_main_s"] for s in plain) if plain else 0.0
        )
        metrics["setup_s"] = median([s["ref_setup_s"] for s in plain])
        metrics["peak_rss_mb"] = median([s["rss_mb"] for s in plain])

    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }

    print(f"perfbench {tag}: {attempted} runs ({len(plain)} untraced, "
          f"{len(traced_runs)} traced), {units} units per run")
    print(f"  env: nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
          f"numpy={info['numpy']} blas={info['blas']} blas_threads={BLAS_THREADS} "
          f"commit={info['commit']} seed={args.seed}")
    print(f"  output sha256: {reference}")
    print(f"  error_ratio: {failed / attempted:.4g} ({failed}/{attempted} runs failed)")
    for s in samples:
        if not s["ok"]:
            print(f"  FAILED {s['run_id']}: {s['reason']}")
    if not args.trace:
        print(f"  units_per_s: {metrics['units_per_s']:.6g} {workload.unit} at reference "
              f"speed (total over {len(plain)} children); wall clock "
              f"{units * len(plain) / sum(s['main_s'] for s in plain):.6g}")
        for name, values, shown in (
            ("speed_factor", [s["speed_factor"] for s in plain], "x reference kernel time"),
            ("per-child rate, wall clock", [units / s["main_s"] for s in plain], workload.unit),
            ("setup_s, wall clock", [s["setup_s"] for s in plain], "s"),
            ("peak_rss_mb", [s["rss_mb"] for s in plain], "MiB"),
        ):
            q1, q2, q3 = quartiles(values)
            print(f"  {name}: {q2:.6g} {shown} (median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})")
    else:
        layer_self = {layer: metrics.get(f"layer.{layer}.self_s", 0.0) for layer in LAYERS}
        largest = max(layer_self, key=layer_self.get)
        if layer_self[largest] > 0:
            print(f"  largest self-time layer: {largest} ({layer_self[largest]:.4g} s, "
                  f"{100 * layer_self[largest] / sum(layer_self.values()):.1f}% "
                  "of traced self time)")
        names = {name for s in traced_runs for name in s["self_time"]}
        functions = sorted(
            ((name, median([s["self_time"].get(name, 0.0) for s in traced_runs])) for name in names),
            key=lambda kv: -kv[1],
        )
        print("  top self time: " + ", ".join(f"{k} {v:.4g} s" for k, v in functions[:5]))
        print(f"  trace.overhead_ratio: {metrics['trace.overhead_ratio']:.4g}")

    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "trace": args.trace, "smoke": args.smoke, "seconds": args.seconds,
              "config": cfg, "units": units, "environment": info,
              "output_sha256": reference, "runs": samples, "result": result}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
