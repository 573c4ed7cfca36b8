"""Every function, class and method of the hppk package has a caller in it.

A definition counts as used when its name is loaded, or read as an
attribute, anywhere in src/hppk.  Names the package exports in
`hppk.__all__` and names the benchmark's tracer times (its TIMED table)
are exempt, as their callers live outside the package; so are dunder
methods, which Python itself calls, and methods that override a base
class's, such as argparse's `error`, which the base class calls.
"""

import ast
import importlib
from pathlib import Path

import hppk
from test_tracer_names import _load_tracer

PACKAGE = Path(hppk.__file__).parent


def _definitions(module, tree):
    """(name, qualified name, overrides a base class's) of each top-level
    function and class, and of each method of a top-level class.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            cls = getattr(importlib.import_module(f"hppk.{module}"), node.name)
            bases = cls.__mro__[1:]
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    override = any(hasattr(base, item.name) for base in bases)
                    yield item.name, f"{node.name}.{item.name}", override


def test_every_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    timed = {(layer, name) for layer, names in _load_tracer().TIMED.items()
             for name in names}
    orphans = []
    for module, tree in sorted(trees.items()):
        for name, qualified, override in _definitions(module, tree):
            exempt = name in hppk.__all__ or (module, name) in timed or override
            dunder = name.startswith("__") and name.endswith("__")
            if name not in used and not exempt and not dunder:
                orphans.append(f"{module}.{qualified}")
    assert orphans == []
