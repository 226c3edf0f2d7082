"""Every narrative walkthrough in demos/ runs to completion, and README's
library example runs and gives the values its comments state."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qteleport

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(qteleport.__file__))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_example_gives_the_values_it_states():
    text = (ROOT / "README.md").read_text()
    blocks = text.split("```python\n")[1:]
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0].split("\n```")[0], "README.md", "exec"), namespace)
    chan, exact, t, ref = (namespace[name] for name in ("chan", "exact", "t", "ref"))
    assert chan.min_weight == qteleport.theoretical_success_probability(chan)
    assert abs(chan.min_weight - 0.5) < 1e-12
    assert abs(exact.success_probability - 0.5) < 1e-12
    assert abs(namespace["blind"] - 0.5392) < 1e-10
    decoy = namespace["decoy"]
    sigma = math.sqrt(0.4 * 0.6 / decoy.rounds)
    assert decoy.expected_rate == 0.4 and abs(decoy.rate - 0.4) < 5 * sigma
    assert (t.gbs, t.controllers, t.aux) == (ref.gbs, ref.controllers, ref.aux)
