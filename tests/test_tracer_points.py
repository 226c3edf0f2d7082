"""Every name the benchmark tracer wraps still resolves.

perfbench/tracer.py installs its span wrappers at (module, attribute)
pairs listed in WRAP_POINTS, some of them names a module keeps only so
that they can be wrapped.  The tracer is loaded by path, without
importing the perfbench directory as a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAP_POINTS


POINTS = [point[:2] for point in _wrap_points()]


@pytest.mark.parametrize("module, attr", POINTS, ids=[f"{m}.{a}" for m, a in POINTS])
def test_wrap_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
