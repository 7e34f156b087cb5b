"""Every public name of the package is read by the program, the gate or the benchmark.

A name in renormlab.__all__ that only unit tests read is surface that no
output needs; this check finds it with the standard library's ast.  A name
counts as read when a package module other than ``__init__``,
``tests/test_acceptance.py`` or a ``perfbench/*.py`` file loads it, bare or
as an attribute (test_private_names.loaded_names).  Importing a name is not
reading it.  The package's modules themselves are not checked.
"""

import ast
import inspect
from pathlib import Path

import renormlab
from test_private_names import loaded_names

ROOT = Path(__file__).resolve().parent.parent


def unread_names(exported, sources) -> list[str]:
    """The exported names that no source loads, sorted."""
    used = set().union(*(loaded_names(ast.parse(source)) for source in sources))
    return sorted(name for name in exported if name not in used)


def test_the_checker_flags_a_name_no_source_reads():
    sources = ["from .a import imported, called\nx = called(1)\n",
               "import pkg\npkg.attribute()\n"]
    assert unread_names(["called", "attribute", "imported"], sources) == ["imported"]


def test_every_public_name_is_read_by_the_program_the_gate_or_the_benchmark():
    paths = [*sorted((ROOT / "src" / "renormlab").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    sources = [path.read_text() for path in paths if path.name != "__init__.py"]
    exported = [name for name in renormlab.__all__
                if not inspect.ismodule(getattr(renormlab, name))]
    assert unread_names(exported, sources) == []
