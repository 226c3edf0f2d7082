"""Span tracer that wraps qteleport's public functions from the outside.

Each wrapper is installed at the name the calling module imported, for
example ``qteleport.protocol.measure_in_basis``, so the package itself is
never edited.  A span records its name, start, end, parent span and run
id; spans stay in memory and are written out once the run has ended.

Self time is a span's duration minus the durations of its direct child
spans.  Byte and flop counts are computed from argument shapes, not
measured, and are labelled ``computed``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

# (module the wrapper is installed in, attribute, span name = <layer>.<function>)
WRAP_POINTS = [
    ("qteleport.cli", "main", "cli.main"),
    ("qteleport.cli", "load_config", "config.load_config"),
    ("qteleport.cli", "run_campaign", "campaign.run_campaign"),
    ("qteleport.cli", "write_output", "campaign.write_output"),
    ("qteleport.campaign", "to_json_text", "campaign.to_json_text"),
    ("qteleport.campaign", "to_csv_text", "campaign.to_csv_text"),
    ("qteleport.campaign", "random_coeffs", "config.random_coeffs"),
    ("qteleport.campaign", "run_structured", "protocol.run_structured"),
    ("qteleport.campaign", "enumerate_branches", "protocol.enumerate_branches"),
    ("qteleport.campaign", "theoretical_success_probability",
     "protocol.theoretical_success_probability"),
    ("qteleport.campaign", "detection_campaign", "decoy.detection_campaign"),
    ("qteleport.protocol", "measure_in_basis", "state.measure_in_basis"),
    ("qteleport.protocol", "branch_outcomes", "state.branch_outcomes"),
    ("qteleport.protocol", "tensor", "state.tensor"),
    ("qteleport.protocol", "apply", "state.apply"),
    ("qteleport.protocol", "fidelity", "state.fidelity"),
    ("qteleport.protocol", "make_state", "state.make_state"),
    ("qteleport.protocol", "u_max_m", "primitives.u_max_m"),
    ("qteleport.protocol", "channel_state", "primitives.channel_state"),
    ("qteleport.protocol", "correction_unitary", "primitives.correction_unitary"),
    ("qteleport.protocol", "gbs_basis_matrix", "primitives.gbs_basis_matrix"),
    ("qteleport.protocol", "x_basis_matrix", "primitives.x_basis_matrix"),
    ("qteleport.decoy", "x_basis_matrix", "primitives.x_basis_matrix"),
    ("qteleport.primitives", "make_state", "state.make_state"),
]

LAYERS = ("cli", "config", "campaign", "protocol", "primitives", "state", "decoy")
CACHED = ("u_max_m", "channel_state", "gbs_basis_matrix", "x_basis_matrix")
MIB = 2**20
COMPLEX_BYTES = 16


def _apply_attrs(args, kwargs, result):
    """(part, computed flops, computed bytes, amplitudes) of apply(state, op, targets).

    The product op @ mat costs 8 b^2 (N/b) real flops for a b x b complex
    operator on N amplitudes; bytes are the operator plus one read and
    one write of the state.
    """
    state, op, targets = args[:3]
    n = state.amps.size
    block = len(op)
    part = "extract" if any(state.labels[t] == "aux" for t in targets) else "correct"
    return part, 8 * block * n, COMPLEX_BYTES * (block * block + 2 * n), n


def _tensor_attrs(args, kwargs, result):
    """(computed flops, computed bytes, amplitudes): 6 flops per output amplitude."""
    a, b = args[:2]
    n = result.amps.size
    return 6 * n, COMPLEX_BYTES * (a.amps.size + b.amps.size + n), n


def _state_size(args, kwargs, result):
    return args[0].amps.size


ATTRS = {
    "state.apply": _apply_attrs,
    "state.tensor": _tensor_attrs,
    "state.measure_in_basis": _state_size,
    "state.branch_outcomes": _state_size,
    "primitives.u_max_m": lambda args, kwargs, result: (id(result), result.nbytes),
    "protocol.enumerate_branches": lambda args, kwargs, result: len(result.branches),
    "campaign.to_json_text": lambda args, kwargs, result: len(result.encode()),
    "campaign.to_csv_text": lambda args, kwargs, result: len(result.encode()),
}


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # span: [id, parent id or -1, name, start, end, child time, attrs]
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._installed: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [len(spans), parent[0] if parent else -1, name, clock(), 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if parent is not None:
                    parent[5] += span[4] - span[3]
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        """Append one JSON array per span: id, parent, name, start, end, run id."""
        with open(path, "a") as handle:
            for sid, parent, name, start, end, _, _ in self.spans:
                handle.write(json.dumps([sid, parent, name, start, end, self.run_id]) + "\n")


def _cache_stats(out: dict) -> None:
    import qteleport.primitives as primitives

    for fname in CACHED:
        info = getattr(primitives, fname).cache_info()
        out[f"primitives.{fname}.cache_hits"] = info.hits
        out[f"primitives.{fname}.cache_misses"] = info.misses
        out[f"primitives.{fname}.cache_currsize"] = info.currsize


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def layer_metrics(tracer: Tracer, units: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and self time per span name."""
    from qteleport.protocol import ENUMERATION_GUARD
    from qteleport.state import max_amplitudes

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    apply_parts = {p: [0, 0.0, 0, 0] for p in ("extract", "correct")}  # calls, self, flops, bytes
    tensor_work = [0, 0]
    max_amps = 0
    u_max_bytes: dict[int, int] = {}
    text_bytes = {"campaign.to_json_text": 0, "campaign.to_csv_text": 0}
    branch_count = 0
    for _, _, name, start, end, child, attrs in tracer.spans:
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child
        durations.setdefault(name, []).append(dur)
        if name == "state.apply":
            part, flops, nbytes, amps = attrs
            acc = apply_parts[part]
            acc[0] += 1
            acc[1] += dur - child
            acc[2] += flops
            acc[3] += nbytes
            max_amps = max(max_amps, amps)
        elif name == "state.tensor":
            tensor_work[0] += attrs[0]
            tensor_work[1] += attrs[1]
            max_amps = max(max_amps, attrs[2])
        elif name in ("state.measure_in_basis", "state.branch_outcomes"):
            max_amps = max(max_amps, attrs)
        elif name == "primitives.u_max_m":
            u_max_bytes[attrs[0]] = attrs[1]
        elif name == "protocol.enumerate_branches":
            branch_count = max(branch_count, attrs)
        elif name in text_bytes:
            text_bytes[name] += attrs

    def per_unit(x):
        return x / units

    out: dict[str, float] = {}
    for fname in ("measure_in_basis", "tensor", "apply"):
        key = f"state.{fname}"
        out[f"{key}.calls_per_unit"] = per_unit(calls.get(key, 0))
        out[f"{key}.self_s"] = self_time.get(key, 0.0)
    out["state.tensor.computed_gflop"] = per_unit(tensor_work[0]) / 1e9
    out["state.tensor.computed_mb"] = per_unit(tensor_work[1]) / MIB
    out["state.apply.computed_gflop"] = per_unit(sum(a[2] for a in apply_parts.values())) / 1e9
    out["state.apply.computed_mb"] = per_unit(sum(a[3] for a in apply_parts.values())) / MIB
    for part, (n, s, flops, nbytes) in apply_parts.items():
        out[f"state.apply.{part}.calls_per_unit"] = per_unit(n)
        out[f"state.apply.{part}.self_s"] = s
        out[f"state.apply.{part}.computed_gflop"] = per_unit(flops) / 1e9
        out[f"state.apply.{part}.computed_mb"] = per_unit(nbytes) / MIB
    out["state.branch_outcomes.self_s"] = self_time.get("state.branch_outcomes", 0.0)
    out["state.max_amplitudes_seen"] = max_amps
    out["state.max_amplitudes_guard_share"] = max_amps / max_amplitudes()

    out["primitives.u_max_m.s"] = total.get("primitives.u_max_m", 0.0)
    out["primitives.u_max_m.result_mb"] = sum(u_max_bytes.values()) / MIB
    _cache_stats(out)
    out["primitives.correction_unitary.calls"] = calls.get("primitives.correction_unitary", 0)
    out["primitives.correction_unitary.self_s"] = self_time.get("primitives.correction_unitary", 0.0)

    runs = durations.get("protocol.run_structured", [])
    out["protocol.run_structured.p50_us"] = _quantile(runs, 0.5) * 1e6
    out["protocol.run_structured.p99_us"] = _quantile(runs, 0.99) * 1e6
    out["protocol.run_structured.self_s"] = self_time.get("protocol.run_structured", 0.0)
    out["protocol.enumerate_branches.self_s"] = self_time.get("protocol.enumerate_branches", 0.0)
    out["protocol.enumerate_branches.p50_ms"] = (
        _quantile(durations.get("protocol.enumerate_branches", []), 0.5) * 1e3
    )
    out["protocol.branch_count"] = branch_count
    out["protocol.branch_count_guard_share"] = branch_count / ENUMERATION_GUARD

    out["decoy.detection_campaign.s"] = total.get("decoy.detection_campaign", 0.0)
    out["campaign.run_campaign.self_s"] = self_time.get("campaign.run_campaign", 0.0)
    for key, nbytes in text_bytes.items():
        out[f"{key}.s"] = total.get(key, 0.0)
        out[f"{key}.mb"] = nbytes / MIB
    out["campaign.write_output.self_s"] = self_time.get("campaign.write_output", 0.0)
    out["config.load_config.s"] = total.get("config.load_config", 0.0)
    out["cli.main.self_s"] = self_time.get("cli.main", 0.0)

    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            s for name, s in self_time.items() if name.split(".", 1)[0] == layer
        )
    return out, self_time


TIMING_SUFFIXES = (".s", ".self_s", "_us", "_ms")


def is_timing(name: str) -> bool:
    """Timing metrics vary run to run; every other layer metric repeats exactly."""
    return name.endswith(TIMING_SUFFIXES) or name == "trace.overhead_ratio"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
