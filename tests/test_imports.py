"""Every module of the package uses what it imports, and imports only what it may.

No linter runs on the package, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the module.  Package
`__init__.py` files re-export, and a line marked `# noqa: F401` keeps an
import on purpose.  Exact kernels work on Python ints alone, so no module
may import `fractions`.  Beyond the standard library a module may import
only the dependencies that pyproject.toml declares (numpy alone), so test
tools such as sympy and scipy stay out of the package and of its import
time.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cubicmw"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def import_nodes(tree: ast.AST) -> list[ast.Import | ast.ImportFrom]:
    """The import statements of a syntax tree, `from __future__` left out."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
    ]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a source imports; relative imports left out."""
    modules = set()
    for node in import_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def unused_imports(source: str) -> list[str]:
    """The names that an import binds and the module never reads, as `line: name`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in import_nodes(tree):
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


def test_imported_modules_are_found():
    source = "import os.path\nfrom fractions import Fraction\nfrom . import geometry\n"
    assert imported_modules(source) == {"os", "fractions"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_fractions(path):
    assert "fractions" not in imported_modules(path.read_text())


def declared_dependencies() -> set[str]:
    """The distribution names in the `dependencies` list of pyproject.toml's [project] table."""
    text = (ROOT / "pyproject.toml").read_text()
    listed = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', listed))


def test_numpy_is_the_only_dependency():
    assert declared_dependencies() == {"numpy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_and_numpy(path):
    allowed = set(sys.stdlib_module_names) | declared_dependencies()
    assert imported_modules(path.read_text()) - allowed == set()
