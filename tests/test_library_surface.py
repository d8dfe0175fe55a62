"""The package keeps only what it uses.

Every module-level function and class in ``src/bubblealg`` is either
exported in ``bubblealg.__all__`` or referenced by name somewhere in the
package outside its own definition; module dunders, which Python calls
itself, count as used.  Code that only the tests call lives
in ``tests/helpers.py``.  This holds for ``oracles.py`` too: an
independent route stays in the package only while package code, such as
``rank_identity`` or the ``check`` suite, calls it.

Every module-level import is read in its own module or exported, so an
import left behind when its last use goes is caught.

No module-level or class-level name in the package or the tests is
defined twice, since the later definition silently shadows the first:
a pasted-in second copy of a test makes the first one never run.

Every name the benchmark's tracer (``perfbench/tracer.py``) wraps still
exists, so a change that renames or removes one is caught here rather
than when the traced replay fails.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import bubblealg

PACKAGE = Path(bubblealg.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
needs_tracer = pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py is absent")


def unused_definitions(package: Path) -> list[str]:
    """``module.name`` of each module-level def or class that nothing in
    the package exports or refers to."""
    trees = {path.name: ast.parse(path.read_text(), path.name) for path in sorted(package.glob("*.py"))}
    exported = set(bubblealg.__all__)
    # every name read in the package, counted per defining node it sits in
    uses: dict[str, list[ast.AST | None]] = {}
    for tree in trees.values():
        for top in tree.body:
            owner = top if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, []).append(owner)
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, []).append(owner)
    unused = []
    for module, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            # a dunder such as the package's PEP 562 __getattr__ is called by Python
            if top.name in exported or top.name.startswith("__"):
                continue
            if not any(owner is not top for owner in uses.get(top.name, ())):
                unused.append(f"{module[:-3]}.{top.name}")
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


def unused_imports(package: Path) -> list[str]:
    """``module.name`` of each name a module-level import binds that its
    module never reads and does not export."""
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(bubblealg.__all__) if path.name == "__init__.py" else set()
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
                if name not in read and name not in exported:
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


def _bound_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


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
