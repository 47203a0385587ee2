"""Every module of the package reads each name it imports, and every name
the package exports is read somewhere: by the code of another module, or
by name in the benchmark, the README or CI.

``__init__.py`` is left out of the first check: it imports names to
re-export them, and the second check holds those to ``__all__``.
"""

import ast
import re
from pathlib import Path

import pytest

import tangleduct

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tangleduct"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_read(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = sorted(
        f"{imported} (line {line})"
        for imported, line in _imported(tree).items()
        if imported not in read
    )
    assert not unused, f"{name} imports names it never reads: {', '.join(unused)}"


ROOT = PACKAGE.parents[1]
# the files that read the package's public names from outside it
READERS = [
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "README.md",
    ROOT / ".github" / "workflows" / "tests.yml",
]


def _exports() -> dict[str, str]:
    """Each name ``__init__.py`` imports, with the module it comes from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name: f"{node.module}.py"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_all_is_what_init_imports_sorted():
    assert sorted(_exports()) == sorted(tangleduct.__all__)
    assert tangleduct.__all__ == sorted(tangleduct.__all__)


def _code_names(tree: ast.Module) -> set[str]:
    """The names a module's code reads: ``Name`` and ``Attribute`` nodes and
    the names it imports, but not the words of its docstrings or comments."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in node.names)
    return out


def test_every_public_name_is_read():
    """A name in ``__all__`` is read by the code of a module other than its
    own, or named by the benchmark, the README or CI; an error class is
    public as what a caller catches."""
    code = {
        name: _code_names(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
        for name in MODULES
    }
    outside = "\n".join(p.read_text(encoding="utf-8") for p in READERS)
    unread = []
    for name, module in _exports().items():
        obj = getattr(tangleduct, name)
        if isinstance(obj, type) and issubclass(obj, tangleduct.TangleductError):
            continue
        if any(name in names for mod, names in code.items() if mod != module):
            continue
        if not re.search(rf"\b{re.escape(name)}\b", outside):
            unread.append(name)
    assert not unread, f"public names nothing reads: {', '.join(sorted(unread))}"
