"""Every module-level import is read by its module.

No linter ships with the project, so this parses each module of
``src/avgsat``, ``tests`` and ``bench`` with ``ast``: a name bound by an
import at module level (in a top-level ``if`` or ``try`` too) must be
read somewhere in the module, or be listed in its ``__all__``.  A line
marked ``# noqa: F401`` is a deliberate re-export and is skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "avgsat").rglob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "bench").glob("*.py")])


def _imports(body):
    """The import statements of a module body, and of its top-level
    ``if`` and ``try`` blocks."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", []),
                          *(h.body for h in getattr(node, "handlers", []))):
                yield from _imports(block)


def _exported(tree) -> set[str]:
    """The names listed in a literal ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)} | _exported(tree)
    unused = []
    for node in _imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = ("import os\nimport sys as system\nfrom a import (b,\n    c)  # noqa: F401\n"
              "from d import e, f\nif True:\n    import g\nprint(e)\n")
    assert unused_imports(source) == [(1, "os"), (2, "system"), (5, "f"), (7, "g")]


def test_tests_hold_one_oracle_module():
    # the tests' slow references live in one module beside the tests,
    # so that no second helper module grows beside it
    names = {path.name for path in (ROOT / "tests").glob("*.py")}
    assert {name for name in names if not name.startswith("test_")} <= \
        {"conftest.py", "oracle.py"}
    assert "oracle.py" in names
