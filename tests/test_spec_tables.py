"""A channel's derived tables live on its ChannelSpec.

The receiver's rotation and extraction (_receiver_constants), the
correction's phase rows (_phase_rows) and the sender's sampling tables
(_sampler_constants) are built on a spec's first read and kept by that
spec alone: a run on the same spec object builds none again, and a
campaign leaves none behind once its config and record are dropped.
"""

import ast
import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qteleport.campaign import run_campaign
from qteleport.config import load_config, random_coeffs
from qteleport.primitives import ChannelSpec
from qteleport.protocol import InputStateSpec, run_structured

TABLES = ("_receiver_constants", "_phase_rows", "_sampler_constants")
SOURCES = sorted((Path(__file__).parent.parent / "src" / "qteleport").glob("*.py"))


def _arrays(tables):
    return tables if isinstance(tables, tuple) else (tables,)


def _phased(d, n, m, seed):
    phases = np.exp(1j * np.linspace(-2.5, 2.9, d))
    return ChannelSpec(d, n, m, tuple(np.array(random_coeffs(d, seed)) * phases))


def test_a_campaign_leaves_none_of_its_receiver_tables_cached():
    # At d = 2, m = 16 the rotation and extraction hold 2 x 2^16 floats
    # each: 2 MiB that a module cache keyed by the spec would keep.
    doc = {"kind": "montecarlo", "d": 2, "n": 0, "coeffs": "random:1",
           "beta": "random:1", "trials": 4, "seed": 3}
    table_bytes = 2 * (2 * 2**16) * np.dtype(float).itemsize
    run_campaign(load_config({**doc, "m": 2}))  # imports and small caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        config = load_config({**doc, "m": 16})
        record = run_campaign(config)
        del config, record
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < table_bytes // 4, retained


def test_a_second_run_on_one_spec_builds_no_table():
    spec = _phased(3, 2, 2, 5)
    inp = InputStateSpec.random(3, 2, 6)
    first = run_structured(inp, spec, seed=1)
    held = {name: vars(spec)[name] for name in TABLES}  # kept by the run itself
    assert run_structured(inp, spec, seed=1) == first
    for name in TABLES:
        assert vars(spec)[name] is held[name]
        for before, after in zip(_arrays(held[name]), _arrays(getattr(spec, name))):
            assert after is before and not after.flags.writeable


@pytest.mark.parametrize("d, n, m", [(2, 0, 1), (3, 2, 2), (4, 1, 3), (5, 0, 2)])
def test_equal_specs_build_bit_identical_tables(d, n, m):
    a = _phased(d, n, m, 10 * d + m)
    b = ChannelSpec(d, n, m, tuple(complex(c) for c in a.coeffs))
    assert a == b and a is not b
    assert any(c.imag for c in a.coeffs)  # _phase_rows reads the phases
    for name in TABLES:
        for x, y in zip(_arrays(getattr(a, name)), _arrays(getattr(b, name)), strict=True):
            assert x is not y
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def _caches(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return ast.unparse(target).split(".")[-1] in ("lru_cache", "cache")


def test_no_module_cache_is_keyed_by_a_channel_spec():
    # The spec keeps its own tables; only channel_state and u_max_m keep
    # their LRUs, which the benchmark tracer reads.
    keyed = []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or not node.args.args:
                continue
            first = node.args.args[0].annotation
            if any(map(_caches, node.decorator_list)) and first is not None and (
                "ChannelSpec" in ast.unparse(first)
            ):
                keyed.append(f"{path.stem}.{node.name}")
    assert sorted(keyed) == ["primitives.channel_state", "primitives.u_max_m"]
