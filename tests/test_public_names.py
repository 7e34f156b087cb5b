"""Every public name of the package is read by the program, the gate or the benchmark.

A name in renormlab.__all__ that only unit tests read is surface that no
output needs; this check finds it with the standard library's ast.  A name
counts as read when a package module other than ``__init__``,
``tests/test_acceptance.py`` or a ``perfbench/*.py`` file loads it, bare or
as an attribute (test_private_names.loaded_names).  Importing a name is not
reading it.  The package's modules themselves are not checked.

The public members of the exported classes (their methods, properties,
slots and dataclass fields) are held to the same rule, except that a
member counts as read only through an attribute load, ``obj.member``: a
local variable or a function that shares its name is no read of it.  The
check goes by name alone, so a member is counted as read when any
attribute of that name is loaded: it cannot flag a member whose name
another object's attribute shares.  A NonlinearityProfile.grid read by
tests alone, for example, would pass, because the program reads
Decomposition.grid and cfg.grid.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import renormlab
from test_private_names import loaded_names

ROOT = Path(__file__).resolve().parent.parent


def attribute_loads(tree: ast.Module) -> set[str]:
    """The member of every obj.member the module reads."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_names(exported, sources) -> list[str]:
    """The exported names, and Class.members, that no source reads, sorted."""
    trees = [ast.parse(source) for source in sources]
    names = set().union(*map(loaded_names, trees))
    members = set().union(*map(attribute_loads, trees))
    return sorted(name for name in exported
                  if name.rpartition(".")[2] not in (members if "." in name else names))


def public_members(cls) -> list[str]:
    """Class.member for each public member cls defines itself, dataclass fields included."""
    fields = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
    return [f"{cls.__name__}.{name}" for name in dict.fromkeys([*vars(cls), *fields])
            if not name.startswith("_")]


def test_the_checker_flags_a_name_no_source_reads():
    sources = ["from .a import imported, called\nx = called(1)\n",
               "import pkg\npkg.attribute()\nsize = 2\npkg.width = size\n"]
    assert unread_names(["called", "attribute", "imported"], sources) == ["imported"]
    # a member is read only as obj.member: a bare name or an attribute store is no read
    assert unread_names(["Box.attribute", "Box.size", "Box.width", "Box.called"],
                        sources) == ["Box.called", "Box.size", "Box.width"]


def test_the_checker_lists_methods_properties_slots_and_fields():
    @dataclasses.dataclass
    class Point:
        x: float
        y: float = 0.0

        @property
        def norm(self):
            return abs(self.x)

        def _hidden(self):
            return self.y

    class Slotted:
        __slots__ = ("values", "_cache")

        def evaluate(self):
            return self.values

    assert sorted(public_members(Point)) == ["Point.norm", "Point.x", "Point.y"]
    assert sorted(public_members(Slotted)) == ["Slotted.evaluate", "Slotted.values"]


def test_every_public_name_is_read_by_the_program_the_gate_or_the_benchmark():
    paths = [*sorted((ROOT / "src" / "renormlab").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    sources = [path.read_text() for path in paths if path.name != "__init__.py"]
    exported = [getattr(renormlab, name) for name in renormlab.__all__]
    names = [name for name, obj in zip(renormlab.__all__, exported) if not inspect.ismodule(obj)]
    members = [member for obj in exported if inspect.isclass(obj)
               for member in public_members(obj)]
    assert unread_names(names + members, sources) == []
