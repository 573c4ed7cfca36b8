"""Every name a test or package module imports is used in that module.

A name listed in the module's `__all__` counts as used, as a re-export.
An import is exempt when its line carries `# noqa: F401`, as it does
for imports kept for their side effect or for outside callers.

Importing the package and its CLI loads no OpenSSL binding: SHAKE256
comes from the built-in _sha3 module and SystemRng from os.urandom.
Nor does it load statistics, which only `hppk bench` needs.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
PACKAGE_FILES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "hppk").glob("*.py")
)


def unused_imports(source):
    """(line, name) of every imported name the module never loads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, bound))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        (line, name) for line, name in imported
        if name not in used and "# noqa: F401" not in lines[line - 1]
    ]


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda p: p.name)
def test_test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_package_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_scan():
    source = (
        "import os\n"
        "import os.path\n"
        "import json  # noqa: F401\n"
        "from math import (\n"
        "    gcd,\n"
        "    lcm,\n"
        ")\n"
        "from x import y as z\n"
        "from .m import exported, hidden\n"
        "__all__ = ['exported']\n"
        "print(os, lcm(2, 3), z)\n"
    )
    assert unused_imports(source) == [(5, "gcd"), (9, "hidden")]


def test_package_import_loads_no_openssl():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hppk, hppk.cli; "
        "print(' '.join(m for m in ('_hashlib', 'hashlib', 'secrets', 'statistics') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(src)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == []
