"""Module boundaries: a module of the package reads no other object's private name, by attribute
or by import."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "radarnet"


def _private(name):
    """A name with a leading underscore that is not a dunder."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_objects_private_name():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no modules under {PACKAGE}"
    reach_ins = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            read = (isinstance(node, ast.Attribute) and _private(node.attr)
                    and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")))
            imported = isinstance(node, ast.ImportFrom) and any(_private(alias.name) for alias in node.names)
            if read or imported:
                reach_ins.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not reach_ins, "private names read from outside their object: " + ", ".join(reach_ins)
