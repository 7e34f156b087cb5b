"""Every module-level import in the package is used by its module.

A deleted function can leave behind the import that only it needed; this
check finds such imports with the standard library's ast.  An import kept on
purpose as a re-export carries ``# noqa: F401`` on its line.  ``__init__.py``
is skipped: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "renormlab"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never loads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(name)
    return unused


def test_the_checker_flags_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom math import (\n"
              "    pi,\n    tau,  # noqa: F401 - re-exported\n    e,\n)\n"
              "x = np.zeros(1) * pi\n")
    assert unused_imports(source) == ["os", "e"]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_package_modules_use_every_import(path):
    assert unused_imports(path.read_text()) == []
