"""The package keeps only what it uses.

Every module-level function, class and constant in ``src/bubblealg`` is
either exported in ``bubblealg.__all__`` or referenced by name somewhere
in the package outside its own definition; module dunders, which Python
calls or reads itself, count as used.  Code and constants that only the
tests read live in ``tests/helpers.py``.  This holds for ``oracles.py``
too: an independent route stays in the package only while package code,
such as ``rank_identity`` or the ``check`` suite, calls it.

Every module-level import is read in its own module, so an import left
behind when its last use goes is caught.  The package root imports no
submodule: each export is named once in its table and loads on first
use, so importing ``bubblealg`` loads no submodule and no numpy, and an
eager re-export there would be flagged as an unread import.  Importing
``bubblealg.cli``, which every ``bubble`` process does before it reads
its command line, loads only the package root, ``cli``, ``basis`` and
``diagram``, and no numpy: the ring, ``exactpoly``, loads only for the
requests that weigh loops in it, and ``numeric`` and the modules that
compute with numpy only for the requests that use them.  ``diagram`` is
the leaf: importing it loads no other package module.

No module-level or class-level name in the package or the tests is
defined twice, since the later definition silently shadows the first:
a pasted-in second copy of a test makes the first one never run.

Every source file under ``src`` and ``tests`` parses as Python 3.10, the
oldest version ``pyproject.toml`` admits.

Every name the benchmark's tracer (``perfbench/tracer.py``) wraps still
exists, so a change that renames or removes one is caught here rather
than when the traced replay fails.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bubblealg

PACKAGE = Path(bubblealg.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
needs_tracer = pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py is absent")


def _bound_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unused_definitions(package: Path) -> list[str]:
    """``module.name`` of each module-level def, class or constant that
    nothing in the package exports or refers to."""
    trees = {path.name: ast.parse(path.read_text(), path.name) for path in sorted(package.glob("*.py"))}
    exported = set(bubblealg.__all__)
    # every name read in the package, counted per defining node it sits in
    uses: dict[str, list[ast.AST | None]] = {}
    for tree in trees.values():
        for top in tree.body:
            owner = top if _bound_names(top) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, []).append(owner)
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, []).append(owner)
    unused = []
    for module, tree in trees.items():
        for top in tree.body:
            for name in _bound_names(top):
                # a dunder such as the package's PEP 562 __getattr__ is called by Python
                if name in exported or name.startswith("__"):
                    continue
                if not any(owner is not top for owner in uses.get(name, ())):
                    unused.append(f"{module[:-3]}.{name}")
    return unused


def test_every_definition_is_exported_or_used():
    assert unused_definitions(PACKAGE) == []


def test_a_test_only_helper_would_be_flagged(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    diagram = tmp_path / "diagram.py"
    diagram.write_text(
        diagram.read_text()
        + '\n\ndef word_from_chars(chars: str) -> tuple[int, ...]:\n'
        + '    return tuple(COLOUR_CHARS.index(ch) for ch in chars)\n'
    )
    assert unused_definitions(tmp_path) == ["diagram.word_from_chars"]


def test_a_test_only_constant_would_be_flagged(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    spinchain = tmp_path / "spinchain.py"
    spinchain.write_text(spinchain.read_text() + '\nSITE_STATES = ("r+", "r-", "b+", "b-")\n')
    assert unused_definitions(tmp_path) == ["spinchain.SITE_STATES"]


def unused_imports(package: Path) -> list[str]:
    """``module.name`` of each name a module-level import binds that its
    module never reads."""
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # module level includes the bodies of top-level "if" and "try"
        imports = [
            node
            for top in tree.body
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for node in ast.walk(top)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        ]
        for node in imports:
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.stem}.{name}")
    return unused


def test_every_import_is_read_or_exported():
    assert unused_imports(PACKAGE) == []


def test_a_leftover_import_would_be_flagged(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    cache = tmp_path / "cache.py"
    cache.write_text(cache.read_text() + "\nfrom itertools import pairwise\n")
    assert unused_imports(tmp_path) == ["cache.pairwise"]


def test_an_eager_re_export_would_be_flagged(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    init = tmp_path / "__init__.py"
    init.write_text(init.read_text() + "\nfrom .diagram import compose\n")
    assert unused_imports(tmp_path) == ["__init__.compose"]


# Prints the modules that importing the package adds, so what the
# interpreter's site loads does not count
PACKAGE_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import bubblealg
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_the_package_loads_no_submodule():
    out = subprocess.run(
        [sys.executable, "-c", PACKAGE_IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    loaded = json.loads(out)
    assert "bubblealg" in loaded
    assert [m for m in loaded if m.startswith("bubblealg.") or m.split(".")[0] == "numpy"] == []


# Prints the modules that importing the front end adds
CLI_IMPORT_PROBE = PACKAGE_IMPORT_PROBE.replace("import bubblealg\n", "import bubblealg.cli\n")

# what every bubble process loads before it reads its command line
STARTUP_MODULES = ["bubblealg", "bubblealg.basis", "bubblealg.cli", "bubblealg.diagram"]


def startup_modules(root: Path, probe: str = CLI_IMPORT_PROBE) -> tuple[list[str], bool]:
    """The package modules that a fresh interpreter running ``probe``, by
    default ``import bubblealg.cli``, loads from the package under
    ``root``, and whether it loads numpy."""
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(root)}, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    loaded = json.loads(out)
    return [m for m in loaded if m.split(".")[0] == "bubblealg"], "numpy" in loaded


def test_the_front_end_loads_only_its_start_up_modules():
    assert startup_modules(PACKAGE.parent) == (STARTUP_MODULES, False)


# Prints the modules that importing the diagram layer adds
DIAGRAM_IMPORT_PROBE = PACKAGE_IMPORT_PROBE.replace("import bubblealg\n", "import bubblealg.diagram\n")


def test_the_diagram_layer_loads_no_other_package_module():
    assert startup_modules(PACKAGE.parent, DIAGRAM_IMPORT_PROBE) == (["bubblealg", "bubblealg.diagram"], False)


@pytest.mark.parametrize(
    "module, line, loaded",
    [
        ("cli.py", "from .numeric import NumericParams\n", ([*STARTUP_MODULES, "bubblealg.numeric"], False)),
        ("cli.py", "import numpy\n", (STARTUP_MODULES, True)),
        ("diagram.py", "from .exactpoly import ZERO\n", ([*STARTUP_MODULES, "bubblealg.exactpoly"], False)),
    ],
    ids=["numeric", "numpy", "ring"],
)
def test_an_eager_numeric_import_would_be_flagged(tmp_path, module, line, loaded):
    copy = tmp_path / "bubblealg"
    copy.mkdir()
    for path in PACKAGE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    # appended, so in diagram.py every name the ring imports back is bound
    target = copy / module
    target.write_text(target.read_text() + line)
    assert startup_modules(tmp_path) == loaded


def shadowed_definitions(paths: list[Path]) -> list[str]:
    """``file:name`` or ``file:Class.name`` of each def, class or plain
    assignment that a later statement of the same module or class body
    defines again."""
    shadowed = []

    def scan(body: list[ast.stmt], where: str) -> None:
        seen = set()
        for stmt in body:
            for name in _bound_names(stmt):
                if name in seen:
                    shadowed.append(where + name)
                seen.add(name)
            if isinstance(stmt, ast.ClassDef):
                scan(stmt.body, f"{where}{stmt.name}.")

    for path in paths:
        scan(ast.parse(path.read_text(), path.name).body, f"{path.name}:")
    return shadowed


def test_no_definition_is_shadowed():
    paths = sorted(TESTS.glob("*.py")) + sorted(PACKAGE.glob("*.py"))
    assert shadowed_definitions(paths) == []


def test_a_shadowed_definition_would_be_flagged(tmp_path):
    module = tmp_path / "test_pasted.py"
    module.write_text(
        "LIMIT = 3\n\n\ndef test_a():\n    pass\n\n\n"
        "class TestB:\n    def test_c(self):\n        pass\n\n    def test_c(self):\n        pass\n\n\n"
        "def test_a():\n    pass\n\n\nLIMIT: int = 4\n"
    )
    assert shadowed_definitions([module]) == [
        "test_pasted.py:TestB.test_c",
        "test_pasted.py:test_a",
        "test_pasted.py:LIMIT",
    ]


def newer_than_3_10(paths: list[Path]) -> list[str]:
    """Name of each file whose syntax Python 3.10 would not parse."""
    failing = []
    for path in paths:
        try:
            ast.parse(path.read_text(), path.name, feature_version=(3, 10))
        except SyntaxError:
            failing.append(path.name)
    return failing


def test_every_source_file_parses_as_python_3_10():
    paths = sorted(PACKAGE.parent.rglob("*.py")) + sorted(TESTS.rglob("*.py"))
    assert len(paths) > 20
    assert newer_than_3_10(paths) == []


def test_a_python_3_11_construct_would_be_flagged(tmp_path):
    module = tmp_path / "grouped.py"
    module.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert newer_than_3_10([module]) == ["grouped.py"]


def wrapped_names(tracer: Path) -> list[tuple[str, str | None, str]]:
    """(module, class or None, attribute) of each target of the tracer's
    ``function(name, module, attr)`` and ``method(name, cls, attrs)`` calls."""
    targets = []
    for node in ast.walk(ast.parse(tracer.read_text(), tracer.name)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "function":
            targets.append((node.args[1].id, None, node.args[2].value))
        elif node.func.id == "method":
            cls = node.args[1]
            targets += [(cls.value.id, cls.attr, attr.value) for attr in node.args[2].elts]
    return targets


def missing_wrapped_names(tracer: Path) -> list[str]:
    """``module.name`` or ``module.Class.name`` of each wrapped target that
    ``bubblealg`` no longer has; a method must be in its class's own dict."""
    missing = []
    for module, cls, attr in wrapped_names(tracer):
        owner = vars(importlib.import_module(f"bubblealg.{module}"))
        if cls is not None:
            owner = vars(owner[cls]) if cls in owner else {}
        if attr not in owner:
            missing.append(".".join(filter(None, (module, cls, attr))))
    return missing


@needs_tracer
def test_every_traced_name_exists():
    assert wrapped_names(TRACER)
    assert missing_wrapped_names(TRACER) == []


@needs_tracer
def test_a_vanished_traced_name_would_be_flagged(tmp_path):
    tracer = tmp_path / "tracer.py"
    tracer.write_text(
        TRACER.read_text()
        + '\nfunction("basis.north", basis, "_north_templates")\n'
        + 'method("diagram.spin", diagram.Diagram, ("encode", "spin"))\n'
        + 'method("cache.store", cache.Store, ("save",))\n'
    )
    assert missing_wrapped_names(tracer) == ["basis._north_templates", "diagram.Diagram.spin", "cache.Store.save"]
