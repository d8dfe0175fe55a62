"""Every layer the per-layer bench registers resolves to a package name.

The bench, ``bench/layers.py``, runs outside pytest.  These tests only
check that each layer's target still exists, so a change that renames or
removes one is caught here; they time nothing.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def bench_layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def resolves(target: str) -> bool:
    """Whether ``module:qualified.name`` names a callable in ``bubblealg``."""
    module, _, qualname = target.partition(":")
    obj = importlib.import_module(f"bubblealg.{module}")
    for attr in qualname.split("."):
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_every_bench_layer_resolves():
    layers = bench_layers()
    ring = {"mul", "divexact", "poly_det", "poly_det_wide", "element_mul"}
    diagrams = {"compose", "products", "enumerate_basis", "basis_encodings"}
    changed = {
        "gram_blocks",
        "gram_det_report",
        "det_text",
        "cyclic_span_report",
        "transfer_matrix",
        "transfer_commutator",
    }
    assert ring | diagrams | changed <= set(layers)
    assert [name for name, layer in layers.items() if not resolves(layer.target)] == []


def test_a_vanished_target_would_be_flagged():
    assert not resolves("stdmod:block_det")
    assert not resolves("stdmod:GramDetReport.det_texts")
