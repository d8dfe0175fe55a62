"""Spans and counters for the traced in-process replay.

The program is not edited: ``instrument`` wraps each layer's public
functions from here, patched wherever the name is looked up (every
``bubblealg`` module that imported the function, or the class attribute
for methods).  A span is (name, start, end, parent, request); spans are
kept in flat arrays in memory and written out when the replay ends.  The
replay is single-threaded with no queues, so no waiting time is recorded.
"""

from __future__ import annotations

import gzip
import os
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Iterable, Iterator

# Per-layer metrics in the order BENCHMARK.json lists them: (name, unit, better).
PER_LAYER = [
    ("exactpoly.mul.calls", "count", "lower"),
    ("exactpoly.mul.self_s", "s", "lower"),
    ("exactpoly.mul.term_pairs", "count", "lower"),
    ("exactpoly.divexact.calls", "count", "lower"),
    ("exactpoly.divexact.self_s", "s", "lower"),
    ("exactpoly.poly_det.calls", "count", "lower"),
    ("exactpoly.poly_det.self_s", "s", "lower"),
    ("diagram.construct.calls", "count", "lower"),
    ("diagram.construct.self_s", "s", "lower"),
    ("diagram.encode.self_s", "s", "lower"),
    ("diagram.decode.calls", "count", "lower"),
    ("diagram.decode.self_s", "s", "lower"),
    ("diagram.compose.calls", "count", "lower"),
    ("diagram.compose.self_s", "s", "lower"),
    ("basis.enumerate_basis.self_s", "s", "lower"),
    ("basis.diagrams_enumerated", "count", "lower"),
    ("basis.enumerate_bras.calls", "count", "lower"),
    ("basis.enumerate_bras.self_s", "s", "lower"),
    ("cache.load_basis.self_s", "s", "lower"),
    ("cache.save_basis.self_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.bytes_read", "B", "lower"),
    ("cache.bytes_written", "B", "lower"),
    ("stdmod.bra_inner.calls", "count", "lower"),
    ("stdmod.bra_inner.self_s", "s", "lower"),
    ("stdmod.bra_inner.nonzero", "count", "lower"),
    ("stdmod.gram_blocks.calls", "count", "lower"),
    ("stdmod.gram_blocks.self_s", "s", "lower"),
    ("stdmod.blocks", "count", "lower"),
    ("stdmod.distinct_block_dets", "count", "lower"),
    ("stdmod.gram_det_report.calls", "count", "lower"),
    ("stdmod.gram_det_report.self_s", "s", "lower"),
    ("stdmod.scan_gram_roots.self_s", "s", "lower"),
    ("spinchain.diagram_matrix.calls", "count", "lower"),
    ("spinchain.diagram_matrix.self_s", "s", "lower"),
    ("spinchain.homomorphism_report.self_s", "s", "lower"),
    ("spinchain.pairs_checked", "count", "higher"),
    ("yangbaxter.transfer_matrix.calls", "count", "lower"),
    ("yangbaxter.transfer_matrix.self_s", "s", "lower"),
    ("yangbaxter.transfer_commutator.self_s", "s", "lower"),
    ("yangbaxter.ybe_residual.self_s", "s", "lower"),
    ("yangbaxter.transfer_bytes", "B", "lower"),
    ("cli.emit_json.self_s", "s", "lower"),
    ("cli.stdout_bytes", "B", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

Span = tuple[str, float, float, int]  # name, start, end, parent index (-1: none)


def layer_totals(spans: Iterable[Span]) -> dict[str, tuple[int, float]]:
    """Calls and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children; a span's parent is an index into the same sequence.
    """
    spans = list(spans)
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, tuple[int, float]] = {}
    for k, (name, start, end, _) in enumerate(spans):
        calls, self_s = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, self_s + (end - start) - child[k])
    return totals


class Recorder:
    """In-memory span store plus named counters for one replay."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self.request_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` recorded as a span named ``name``; ``count(counters, args, result)``
        runs after the span closes."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock, counters = self._stack, time.perf_counter, self.counters

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return_value = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, return_value)
            return return_value

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> Iterator[Span]:
        names = self.names
        for k in range(len(self.start)):
            yield names[self.name_id[k]], self.start[k], self.end[k], self.parent[k]

    def write(self, path: str | os.PathLike) -> None:
        """Spans as gzip tab-separated lines: id, name, start, end, parent, request."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            for k, (name, start, end, parent) in enumerate(self.spans()):
                fh.write(f"{k}\t{name}\t{start!r}\t{end!r}\t{parent}\t{self.request[k]}\n")

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``; unused layers read 0."""
        totals = layer_totals(self.spans())
        out: dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = totals.get(base, (0, 0.0))[0]
            elif field == "self_s":
                out[metric] = totals.get(base, (0, 0.0))[1]
            elif metric != "trace.overhead_s":
                out[metric] = self.counters[metric]
        return out


# ---------------------------------------------------------------------------
# counters taken at layer boundaries


def _term_pairs(counters, args, result) -> None:
    if result is NotImplemented:
        return
    a, b = args
    other = len(b._terms) if hasattr(b, "_terms") else (1 if b else 0)
    counters["exactpoly.mul.term_pairs"] += len(a._terms) * other


def _enumerated(counters, args, result) -> None:
    counters["basis.diagrams_enumerated"] += len(result)


def _loaded(counters, args, result) -> None:
    counters["cache.hits"] += 1
    counters["cache.bytes_read"] += os.path.getsize(args[0])


def _saved(counters, args, result) -> None:
    counters["cache.misses"] += 1
    counters["cache.bytes_written"] += os.path.getsize(args[0])


def _nonzero(counters, args, result) -> None:
    counters["stdmod.bra_inner.nonzero"] += not result.is_zero


def _blocks(counters, args, result) -> None:
    blocks = result[1]
    counters["stdmod.blocks"] += len(blocks)
    counters["stdmod.distinct_block_dets"] += len({blk.det for blk in blocks})


def _pairs(counters, args, result) -> None:
    counters["spinchain.pairs_checked"] += result.pairs_checked


def _transfer_bytes(counters, args, result) -> None:
    # computed, not measured: one complex128 m^n x m^n matrix
    counters["yangbaxter.transfer_bytes"] += result.shape[0] * result.shape[1] * 16


def instrument(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer of the imported program; returns the undo function."""
    from bubblealg import basis, cache, cli, diagram, exactpoly, spinchain, stdmod, yangbaxter

    undo: list[tuple[object, str, object]] = []

    def function(name: str, module, attr: str, count=None) -> None:
        original = getattr(module, attr)
        wrapped = rec.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "bubblealg" or mod_name.startswith("bubblealg."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def method(name: str, cls, attrs: tuple[str, ...], count=None) -> None:
        raw = cls.__dict__[attrs[0]]
        if isinstance(raw, classmethod):
            wrapped = classmethod(rec.wrap(name, raw.__func__, count))
        else:
            wrapped = rec.wrap(name, raw, count)
        for attr in attrs:
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapped)

    method("exactpoly.mul", exactpoly.LaurentPoly, ("__mul__", "__rmul__"), _term_pairs)
    function("exactpoly.divexact", exactpoly, "divexact")
    function("exactpoly.poly_det", exactpoly, "poly_det")
    method("diagram.construct", diagram.Diagram, ("__post_init__",))
    method("diagram.encode", diagram.Diagram, ("encode",))
    method("diagram.decode", diagram.Diagram, ("decode",))
    function("diagram.compose", diagram, "compose")
    function("basis.enumerate_basis", basis, "enumerate_basis", _enumerated)
    function("basis.enumerate_bras", basis, "enumerate_bras")
    function("cache.load_basis", cache, "load_basis", _loaded)
    function("cache.save_basis", cache, "save_basis", _saved)
    function("stdmod.bra_inner", stdmod, "bra_inner", _nonzero)
    function("stdmod.gram_blocks", stdmod, "gram_blocks", _blocks)
    function("stdmod.gram_det_report", stdmod, "gram_det_report")
    function("stdmod.scan_gram_roots", stdmod, "scan_gram_roots")
    function("spinchain.diagram_matrix", spinchain, "diagram_matrix")
    function("spinchain.homomorphism_report", spinchain, "homomorphism_report", _pairs)
    function("yangbaxter.transfer_matrix", yangbaxter, "transfer_matrix", _transfer_bytes)
    function("yangbaxter.transfer_commutator", yangbaxter, "transfer_commutator")
    function("yangbaxter.ybe_residual", yangbaxter, "ybe_residual")
    function("cli.emit_json", cli, "_emit_json")
    function("cli.main", cli, "main")

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore
