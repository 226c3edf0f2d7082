"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py --seeds 1-10 --trace 0
    python3 perfbench/baseline.py --seeds 1-3 --trace 1 --write perfbench/BASELINE.json

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  End-to-end
spreads are compared with the bounds in BENCHMARK.json.  ``--write``
merges the summary into a baseline file, keyed by trace mode.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from run import quartiles
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0,
            "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "1,4,9"')
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", help="baseline JSON file to merge the summary into")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    mode = "end_to_end" if args.trace == 0 else "per_layer"
    summary: dict = {}
    environment = None
    failures = 0
    for name in WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in parse_seeds(args.seeds):
            began = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600,
            )
            wall = time.perf_counter() - began
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            failures += result["failed"]
            tag = f"{name}-seed{seed}-trace{args.trace}"
            environment = json.loads(Path(f".perfbench/results/{tag}.json").read_text())["environment"]
            print(f"{name} seed {seed}: {wall:.1f} s wall, {result['attempted']} runs, "
                  f"{result['failed']} failed", file=sys.stderr)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
        summary[name] = {}
        for metric, vals in values.items():
            stats = summarise(vals)
            stats["unit"] = units[metric]
            summary[name][metric] = stats
            if metric in bounds:
                bound = bounds[metric]
                flag = "ok" if stats["spread"] < bound / 3 else (
                    "WITHIN BOUND" if stats["spread"] <= bound else "OVER BOUND")
                print(f"{name:13s} {metric:12s} median {stats['median']:.6g} {stats['unit']} "
                      f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                      f"(bound {bound}) {flag}")

    if args.write:
        path = Path(args.write)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["environment"] = environment
        doc[mode] = {"seeds": parse_seeds(args.seeds), "run_seconds": seconds,
                     "workloads": summary}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"failed runs: {failures}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
