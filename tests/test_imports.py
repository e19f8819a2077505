"""The runtime is standard-library only: every import under src/convexcodes
names a standard-library module or the package itself.  Every exported name
exists, and the package imports each name from a module that has it.  The
records are NamedTuples or plain classes, so importing the command line
loads neither ``dataclasses`` nor ``inspect``."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "convexcodes"


def top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_package(path):
    outside = top_level_imports(path) - set(sys.stdlib_module_names) - {"convexcodes"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_no_module_imports_dataclasses():
    users = [p.name for p in sorted(SRC.glob("*.py")) if "dataclasses" in top_level_imports(p)]
    assert not users, f"dataclasses imported by {users}"


def test_cli_import_loads_no_dataclasses_or_inspect():
    script = "import sys, convexcodes.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_exported_names_exist(path):
    module = importlib.import_module(f"convexcodes.{path.stem}".removesuffix(".__init__"))
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{path.name} exports missing names {missing}"


def test_only_fm_reads_system_rows():
    # a system's rows, and so the stored-row layout, are read only inside fm.py
    readers = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "rows"]
        if lines and path.name != "fm.py":
            readers[path.name] = lines
    assert not readers, f".rows read outside fm.py: {readers}"


def test_package_imports_only_names_its_modules_define():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"convexcodes.{node.module}")
            stale = [a.name for a in node.names if a.name not in vars(module)]
            assert not stale, f"__init__ imports {stale} missing from {node.module}"
