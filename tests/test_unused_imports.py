"""Every import in the package's modules is used by a name in its module.

No linter ships with the test dependencies, so this test reads each
module's syntax tree.  An import is used when its bound name is read
anywhere in the module.  Lines marked ``# noqa: F401`` bind names that
other code looks up in the module (perfbench/tracer.py's wrap points),
and ``__init__.py``'s imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import qteleport

PACKAGE = Path(qteleport.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno}: {bound}")
    return unused


def test_the_package_has_modules_to_read():
    assert {"state.py", "config.py", "decoy.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_an_unused_import_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import operator\n"
        "import os.path\n"
        "from math import pi, tau  # noqa: F401\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,\n"
        ")\n"
        "print(os.sep, dumps)\n"
    )
    assert _unused_imports(module) == ["sample.py:2: operator", "sample.py:7: loads"]
