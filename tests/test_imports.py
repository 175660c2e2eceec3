"""Every module of the package uses what it imports.

No linter runs on the package, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the module.  Package
`__init__.py` files re-export, and a line marked `# noqa: F401` keeps an
import on purpose.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cubicmw"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that an import binds and the module never reads, as `line: name`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{line}: {name}" for line, name in sorted(bound) if name not in read]


def test_unused_imports_are_found():
    source = "import os\nimport sys  # noqa: F401\nfrom math import gcd, lcm\nprint(lcm)\n"
    assert unused_imports(source) == ["1: os", "3: gcd"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []
