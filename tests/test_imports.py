"""The runtime is standard-library only: every import under src/convexcodes
names a standard-library module or the package itself.  Every exported name
exists, and the package resolves each name, on first access, from a module
that has it: importing the package loads none of its modules, and only
``analyze`` and ``link`` load ``topology``.  The records are NamedTuples or
plain classes, so importing the command line loads neither ``dataclasses``
nor ``inspect``."""

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


def test_sources_parse_as_python_3_10():
    # pyproject.toml claims Python 3.10; this catches newer syntax only, not
    # newer library calls
    tests = Path(__file__).resolve().parent
    for path in sorted(SRC.glob("*.py")) + sorted(tests.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


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


def test_only_fm_reads_system_rows():
    # a system's rows, and so the stored-row layout, are read only inside fm.py
    readers = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "rows"]
        if lines and path.name != "fm.py":
            readers[path.name] = lines
    assert not readers, f".rows read outside fm.py: {readers}"


def test_topology_holds_no_table_text():
    # the walk in topology.py only decides; the table's rows are written in cli.py
    path = SRC / "topology.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and "in code:" in n.value
    ]
    assert not lines, f"row text in topology.py: {lines}"


def test_package_imports_only_names_its_modules_define():
    import convexcodes

    for name, module in convexcodes._EXPORTS.items():
        assert name in vars(importlib.import_module(f"convexcodes.{module}")), (
            f"__init__ exports {name!r}, missing from {module}"
        )
    assert convexcodes.__all__ == list(convexcodes._EXPORTS)


def test_only_the_package_declares_public_names():
    # _EXPORTS in __init__.py is the one list of public names
    declaring = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        targets = [
            t for n in ast.walk(tree)
            if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
        ]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            declaring.append(path.name)
    assert declaring == ["__init__.py"]


def test_package_names_every_submodule():
    import convexcodes

    assert convexcodes._SUBMODULES == {p.stem for p in SRC.glob("*.py")} - {"__init__"}


def _loaded_after(script: str) -> list[str]:
    """The convexcodes modules a fresh interpreter holds after running script."""
    script += "\nimport sys; print(sorted(m for m in sys.modules if m.startswith('convexcodes')))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
        cwd=SRC.parent.parent,
    )
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_package_import_loads_no_module():
    assert _loaded_after("import convexcodes") == ["convexcodes"]


@pytest.mark.parametrize(
    "argv, loads_topology",
    [
        (["code-of", "corpus/fan6.arr"], False),
        (["verify", "corpus/fan6.arr", "corpus/fan6.code"], False),
        (["analyze", "corpus/fan6.code"], True),
        (["link", "corpus/fan6.code", "--face", "1"], True),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_only_analyze_and_link_load_topology(argv, loads_topology):
    script = f"from convexcodes.cli import main\nassert main({argv!r}) == 0"
    assert ("convexcodes.topology" in _loaded_after(script)) is loads_topology


def test_submodules_resolve_as_package_attributes():
    script = (
        "import convexcodes, sys\n"
        "assert convexcodes.topology.link is sys.modules['convexcodes.topology'].link\n"
        "assert convexcodes.cli is sys.modules['convexcodes.cli']"
    )
    assert "convexcodes.cli" in _loaded_after(script)


def test_names_resolve_on_access_and_stay_bound():
    import convexcodes
    from convexcodes import contractibility, topology

    assert contractibility is topology.contractibility
    assert vars(convexcodes)["contractibility"] is contractibility
    namespace: dict = {}
    exec("from convexcodes import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(convexcodes.__all__)
    assert all(namespace[n] is getattr(convexcodes, n) for n in convexcodes.__all__)
    assert set(convexcodes.__all__) <= set(dir(convexcodes))
    assert convexcodes._SUBMODULES <= set(dir(convexcodes))
    with pytest.raises(AttributeError, match="no attribute 'contractable'"):
        convexcodes.contractable
    assert not hasattr(convexcodes, "contractable")
