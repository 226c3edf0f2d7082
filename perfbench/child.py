"""One benchmark run in a fresh interpreter: import qteleport, call cli.main once.

Usage: python3 perfbench/child.py <spec.json>

The spec names the CLI argv, the work units of the run, and whether to
trace.  The last stdout line is one JSON report: when the import
finished (perf_counter, which is system-wide monotonic on Linux, so the
parent can subtract its spawn time), the wall time of cli.main, the exit
code, ru_maxrss and, when traced, the per-layer metrics.
"""

import json
import resource
import sys
import time

import qteleport.cli

IMPORT_DONE = time.perf_counter()


def main() -> int:
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    report = {"import_done": IMPORT_DONE, "qteleport_file": qteleport.cli.__file__}
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_metrics

        tracer = Tracer(spec["run_id"])
        tracer.install()
    start = time.perf_counter()
    try:
        report["rc"] = qteleport.cli.main(spec["argv"])
    except Exception as exc:  # reported to the parent, which counts the run as failed
        report["rc"] = None
        report["error"] = f"{type(exc).__name__}: {exc}"
    report["main_s"] = time.perf_counter() - start
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        report["layers"], report["self_time"] = layer_metrics(tracer, spec["units"])
        tracer.write(spec["spans_path"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
