"""Every module-level private name in the package is used by the package.

A private function or constant that nothing reads is dead code that the
public API does not show; this check finds it with the standard library's
ast.  A name counts as used when some module of the package loads it, bare
or as an attribute (``_cheb._CHUNK``).  Tests and the benchmark do not
count: a private name only they reach is no part of the program.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "renormlab"


def private_definitions(tree: ast.Module) -> list[str]:
    """Single-underscore names a module binds at its top level, in order."""
    names = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                names += [t.id for t in elts if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """module.name of each top-level private name that no module loads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*map(loaded_names, trees.values()))
    return [f"{module}.{name}" for module, tree in sorted(trees.items())
            for name in private_definitions(tree) if name not in used]


def test_the_checker_flags_a_private_name_no_module_reads():
    sources = {
        "a": ("_USED = 1\n_UNUSED, _ALSO = 2, 3\n__all__ = []\n"
              "def _helper():\n    return _USED\n"
              "def public():\n    _UNUSED = 4\n    return _ALSO\n"
              "class _Reached:\n    pass\n"),
        "b": "from . import a\nx = a._Reached\n",
    }
    # _UNUSED is only stored, and _helper only defined
    assert unused_private_names(sources) == ["a._UNUSED", "a._helper"]


def test_package_modules_use_every_private_name():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unused_private_names(sources) == []
