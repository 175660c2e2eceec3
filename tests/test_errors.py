"""Every error class of the package is raised somewhere in it.

A class in `cubicmw.errors` that no module raises can still be caught and
documented, but nothing produces it.  This walks each module's syntax tree
for `raise Name`, `raise Name(...)` and the same through an attribute
(`raise errors.Name(...)`).  `CubicError` is the base class callers catch,
so it is exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cubicmw"


def raised_names(source: str) -> set[str]:
    """The names of the exceptions a module's `raise` statements name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def never_raised(errors_source: str, module_sources: list[str]) -> list[str]:
    """The classes of the errors module, other than CubicError, that no module raises."""
    classes = [n.name for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)]
    raised = set().union(*(raised_names(s) for s in module_sources))
    return [c for c in classes if c != "CubicError" and c not in raised]


def test_never_raised_errors_are_found():
    errors = "".join(f"class {c}(Exception):\n    pass\n" for c in
                     ("CubicError", "Called", "Bare", "Qualified", "Caught", "Unused"))
    modules = [
        "from .errors import Bare, Called, Caught\n"
        "try:\n    raise Called('x')\nexcept Caught:\n    raise Bare\n",
        "from . import errors\nraise errors.Qualified(1)\n",
    ]
    assert never_raised(errors, modules) == ["Caught", "Unused"]


def test_every_error_class_is_raised():
    modules = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert never_raised((SRC / "errors.py").read_text(), modules) == []
