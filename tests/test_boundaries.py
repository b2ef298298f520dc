"""Module boundaries: a module of the package reads no other object's private name, by attribute
or by import; no module imports the test instruments; network, which holds only the network,
imports none of the modules that build on it; and only dataset, which holds the binary formats,
imports struct."""

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


def _imported_modules(path):
    """(line, module) for each module that the file at path imports; a relative import is spelled
    from the package, so `from .config import x` and `from . import config` give radarnet.config."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            for name in names:
                yield node.lineno, f"radarnet.{name}" if node.level else name


def test_no_module_imports_the_test_instruments():
    found = [f"{path.name}:{line} {module}" for path in sorted(PACKAGE.glob("*.py"))
             for line, module in _imported_modules(path)
             if module.split(".")[0] == "tests" or "_oracles" in module.split(".")]
    assert not found, "imports of the test instruments: " + ", ".join(found)


def test_network_imports_no_module_built_on_it():
    above = {f"radarnet.{name}" for name in ("config", "dataset", "evaluation", "cli")}
    found = [f"network.py:{line} {module}" for line, module in _imported_modules(PACKAGE / "network.py")
             if ".".join(module.split(".")[:2]) in above]
    assert not found, "network imports from a module that builds on it: " + ", ".join(found)


def test_only_dataset_imports_struct():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py")) if path.name != "dataset.py"
             for line, module in _imported_modules(path) if module == "struct"]
    assert not found, "struct imported outside dataset, which holds the binary formats: " + ", ".join(found)
