"""Every error class of the package is raised somewhere in it.

An HppkError subclass that no raise statement names is a leftover of
deleted code; callers catching it would wait for an error that never
comes.
"""

import ast
import inspect
from pathlib import Path

from hppk import errors

PACKAGE_FILES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "hppk").glob("*.py")
)


def raised_names(source):
    """Names of the classes a module's raise statements raise."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_raised_name_scan():
    source = (
        "def f(err):\n"
        "    raise A('x')\n"
        "    raise errors.B('y') from err\n"
        "    raise C\n"
        "    raise\n"
    )
    assert raised_names(source) == {"A", "B", "C"}


def test_every_error_class_is_raised():
    classes = {
        name for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.HppkError) and cls is not errors.HppkError
    }
    raised = set().union(*(raised_names(p.read_text()) for p in PACKAGE_FILES))
    assert classes, "no error classes found"
    assert sorted(classes - raised) == []
