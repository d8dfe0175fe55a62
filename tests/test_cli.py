"""CLI dispatch, emitters, exit codes, and the basis cache."""

from __future__ import annotations

import gzip
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import count
from pathlib import Path

import pytest

import bubblealg
from bubblealg import basis, cache, checks, cli, numeric, stdmod
from bubblealg.basis import HalfDiagram, basis_encodings, enumerate_basis, rank_identity, walk_count
from bubblealg.cache import (
    COMPRESS_LEVEL,
    CacheError,
    HEADER_LIMIT,
    basis_digest,
    cache_path,
    load_basis,
    save_basis,
)
from bubblealg.checks import all_passed, run_checks
from bubblealg.cli import ENV_CACHE_DIR, main
from bubblealg.diagram import Diagram, propagating_index
from bubblealg.exactpoly import DB, DR, ONE, LaurentPoly, Matrix
from bubblealg.stdmod import GramBlock, GramRootScan, GramRows, RestrictionReport, SpanReport
from bubblealg.yangbaxter import SpectralPoint, SweepReport
from helpers import enumerate_via_seeds

# same-colour pairs (1,4) and (2,3) interleave in the circular order 1,2,4,3
INTERLEAVED = "D[2,2]{(1,4,r);(2,3,r)}"

# Files whose header, size and digest all hold but whose lines are not
# B_2 in canonical order; each breaks exactly one of the load's checks.
B2 = [d.encode() for d in enumerate_basis(2)]
NOT_THE_BASIS = {
    "subset": B2[1:],
    "duplicate": B2[:5] + B2[4:5] + B2[6:],
    "out_of_order": [B2[1], B2[0]] + B2[2:],
    # the last diagram with its pairs listed in reverse still sorts last
    "non_canonical": B2[:9] + ["D[2,2]{(2,3,b);(1,4,r)}"],
    # as many diagrams with one point moved from the south to the north
    "wrong_shape": [d.encode() for d in enumerate_via_seeds(1, 3)],
}


def damage(path, how):
    """Truncate a gzip file to half its bytes, or flip bits inside its deflate data."""
    data = bytearray(path.read_bytes())
    if how == "truncated":
        del data[len(data) // 2 :]
    else:
        for k in range(200, 260):
            data[k] ^= 0x55
    path.write_bytes(bytes(data))


def write_consistent_cache(cache_dir, n, encodings, override=None):
    """A cache file whose header count, size and sha256 all match its lines,
    unless ``override`` replaces header fields."""
    path = cache_path(cache_dir, n)
    digest = hashlib.sha256("".join(encodings).encode("ascii")).hexdigest()
    header = {"count": len(encodings), "hash": digest, "n": n, "version": 1, **(override or {})}
    with gzip.open(path, "wt", encoding="ascii") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.writelines(enc + "\n" for enc in encodings)
    return path


class TestCache:
    def test_round_trip_matches_fresh_enumeration(self, tmp_path):
        fresh = [d.encode() for d in enumerate_basis(3)]
        path = cache_path(tmp_path, 3)
        assert save_basis(path, 3, fresh) is fresh
        assert load_basis(path, 3) == fresh

    def test_cached_basis_writes_then_reads(self, capsys, tmp_path, monkeypatch):
        loads = []
        real_load = cache.load_basis
        monkeypatch.setattr(cache, "load_basis", lambda *args: loads.append(args) or real_load(*args))
        listing = ("basis", "--n", "3", "--diagrams", "--cache-dir", str(tmp_path))
        _, miss = run_cli(capsys, *listing)
        assert cache_path(tmp_path, 3).exists() and loads == []
        code, hit = run_cli(capsys, *listing)
        assert code == 0 and len(loads) == 1
        assert hit == miss
        assert json.loads(hit)["diagrams"] == [d.encode() for d in enumerate_basis(3)]

    def test_no_directory_means_no_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(capsys, "basis", "--n", "2", "--diagrams")
        assert code == 0
        assert json.loads(out)["diagrams"] == [d.encode() for d in enumerate_basis(2)]
        assert list(tmp_path.iterdir()) == []

    def test_env_var_selects_directory(self, capsys, tmp_path, monkeypatch):
        # a count and a listing each fill a missing file
        for n, flags in [(2, ()), (3, ("--diagrams",))]:
            monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
            code, _ = run_cli(capsys, "basis", "--n", str(n), *flags)
            assert code == 0
            assert cache_path(tmp_path, n).exists()

    def test_corrupt_header_rejected(self, tmp_path):
        path = cache_path(tmp_path, 2)
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("not json\n")
        with pytest.raises(CacheError):
            load_basis(path, 2)

    def test_wrong_version_rejected(self, tmp_path):
        path = cache_path(tmp_path, 2)
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write(json.dumps({"count": 0, "hash": "", "n": 2, "version": 99}) + "\n")
        with pytest.raises(CacheError):
            load_basis(path, 2)

    def test_edited_content_fails_digest(self, tmp_path):
        path = cache_path(tmp_path, 2)
        save_basis(path, 2, B2)
        with gzip.open(path, "rt", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(CacheError):
            load_basis(path, 2)

    def test_not_gzip_rejected(self, tmp_path):
        path = cache_path(tmp_path, 2)
        path.write_text("plain text")
        with pytest.raises(CacheError):
            load_basis(path, 2)

    def test_header_size_must_match_request(self, capsys, tmp_path):
        # a consistent n=2 file under the n=3 name must not be served as B_3
        save_basis(cache_path(tmp_path, 3), 2, B2)
        with pytest.raises(CacheError):
            load_basis(cache_path(tmp_path, 3), 3)
        code, out = run_cli(capsys, "basis", "--n", "3", "--diagrams", "--cache-dir", str(tmp_path))
        assert (code, out) == (2, "")

    def test_guard_applies_before_a_hit(self, capsys, tmp_path, monkeypatch):
        # the size guard refuses a count or a listing, on a hit or a miss,
        # before any file is looked for, read or written
        hit, miss = tmp_path / "hit", tmp_path / "miss"
        save_basis(cache_path(hit, 3), 3, [d.encode() for d in enumerate_basis(3)])

        def refuse(*args, **kwargs):
            raise AssertionError("a cache file was touched")

        for name in ("cache_path", "load_basis", "save_basis"):
            monkeypatch.setattr(cache, name, refuse)
        for cache_dir in (hit, miss):
            for flags in ((), ("--diagrams",)):
                code, out = run_cli(capsys, "basis", "--n", "3", "--max-n", "1", *flags, "--cache-dir", str(cache_dir))
                assert (code, out) == (3, "")
        assert list(tmp_path.iterdir()) == [hit]
        assert list(hit.iterdir()) == [hit / "basis_n3.txt.gz"]

    def test_invalid_diagram_behind_a_good_digest_rejected(self, tmp_path):
        # the content digest holds, so only the diagram's own check can refuse it
        path = write_consistent_cache(tmp_path, 2, [INTERLEAVED])
        with pytest.raises(CacheError):
            load_basis(path, 2)

    @pytest.mark.parametrize("case", sorted(NOT_THE_BASIS))
    def test_file_that_is_not_the_sorted_basis_rejected(self, tmp_path, case):
        path = write_consistent_cache(tmp_path, 2, NOT_THE_BASIS[case])
        with pytest.raises(CacheError):
            load_basis(path, 2)

    @pytest.mark.parametrize("how", ["truncated", "flipped"])
    def test_damaged_gzip_rejected(self, tmp_path, how):
        # a short stream raises EOFError and bad deflate data zlib.error
        path = cache_path(tmp_path, 4)
        save_basis(path, 4, basis.basis_encodings(4))
        damage(path, how)
        with pytest.raises(CacheError):
            load_basis(path, 4)

    @pytest.mark.parametrize(
        "field, value", [("version", 2), ("n", 3), ("count", 9)], ids=["version", "n", "count"]
    )
    def test_bad_header_refused_before_the_walk(self, tmp_path, monkeypatch, field, value):
        path = write_consistent_cache(tmp_path, 2, B2, {field: value})

        def refuse(*args, **kwargs):
            raise AssertionError("the walk ran")

        monkeypatch.setattr("bubblealg.cache.basis_encodings", refuse)
        with pytest.raises(CacheError):
            load_basis(path, 2)

    def test_exact_lines_behind_a_wrong_hash_rejected(self, tmp_path):
        path = write_consistent_cache(tmp_path, 2, B2, {"hash": basis_digest(B2[::-1])})
        with pytest.raises(CacheError):
            load_basis(path, 2)

    def test_extra_line_after_the_basis_rejected(self, tmp_path):
        path = cache_path(tmp_path, 2)
        save_basis(path, 2, B2)
        with gzip.open(path, "at", encoding="ascii") as fh:
            fh.write(B2[-1] + "\n")
        with pytest.raises(CacheError):
            load_basis(path, 2)

    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch):
        class FailingFile(gzip.GzipFile):
            # the gzip header reaches the file, then the data fails like a full disk
            def write(self, data):
                raise OSError("no space left on device")

        monkeypatch.setattr(gzip, "GzipFile", FailingFile)
        path = cache_path(tmp_path, 2)
        with pytest.raises(CacheError, match="no space left on device"):
            save_basis(path, 2, B2)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
        save_basis(path, 2, B2)
        assert load_basis(path, 2) == B2

    def test_save_holds_no_copy_of_the_text(self, tmp_path):
        # hashing and writing go a bounded run of lines at a time, so the
        # peak a save adds stays well under the body it writes
        lines = basis.basis_encodings(6)
        body = sum(len(line) + 1 for line in lines)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save_basis(cache_path(tmp_path, 6), 6, lines)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.2 * body
        assert load_basis(cache_path(tmp_path, 6), 6) == lines

    def test_digest_is_of_the_whole_text(self):
        lines = basis.basis_encodings(5)
        whole = hashlib.sha256("".join(lines).encode("ascii")).hexdigest()
        assert basis_digest(lines) == whole
        assert basis_digest([]) == hashlib.sha256(b"").hexdigest()

    def test_saves_are_byte_identical(self, tmp_path, monkeypatch):
        # neither the write time nor the temporary file's name enters the file
        basis = [d.encode() for d in enumerate_basis(3)]
        first, second = cache_path(tmp_path / "a", 3), cache_path(tmp_path / "b", 3)
        save_basis(first, 3, basis)
        monkeypatch.setattr(time, "time", lambda: 1.6e9)
        monkeypatch.setattr(os, "getpid", lambda: 4242)
        save_basis(second, 3, basis)
        data = first.read_bytes()
        assert data == second.read_bytes()
        assert data[3:8] == bytes(5)  # no optional fields, mtime 0

    def test_file_written_by_gzip_open_still_loads(self, tmp_path):
        # written as before the header was fixed: file name and time included
        lines = [d.encode() for d in enumerate_basis(3)]
        header = {"count": len(lines), "hash": basis_digest(lines), "n": 3, "version": 1}
        path = cache_path(tmp_path, 3)
        with gzip.open(path, "wt", encoding="ascii", compresslevel=COMPRESS_LEVEL) as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for line in lines:
                fh.write(line + "\n")
        assert load_basis(path, 3) == lines
        # the same deflate stream follows the shorter header
        old = path.read_bytes()
        save_basis(path, 3, lines)
        new = path.read_bytes()
        assert old[old.index(b"\0", 10) + 1 :] == new[10:]

    def test_long_header_line_refused_in_bounded_memory(self, tmp_path):
        # a first line of 64 MiB of spaces compresses to about 65 KB; only
        # HEADER_LIMIT bytes of it may be read before the file is refused
        path = cache_path(tmp_path, 2)
        with gzip.GzipFile(path, "wb", compresslevel=9, mtime=0) as fh:
            spaces = b" " * 2**20
            for _ in range(64):
                fh.write(spaces)
            fh.write(b"\n")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with pytest.raises(CacheError, match="no header line"):
                load_basis(path, 2)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "head",
        [
            b"",
            b'{"count": 10, "hash": "", "n": 2, "version": 1}',
            b'{"count": 10, "hash": "\xe9", "n": 2, "version": 1}\n',
            b" " * HEADER_LIMIT + b"\n",
        ],
        ids=["empty", "no_newline", "non_ascii", "over_the_limit"],
    )
    def test_header_must_be_one_ascii_line_within_the_limit(self, tmp_path, head):
        path = cache_path(tmp_path, 2)
        path.write_bytes(gzip.compress(head))
        with pytest.raises(CacheError, match="cannot read cache file"):
            load_basis(path, 2)

    def test_header_just_within_the_limit_loads(self, tmp_path):
        path = cache_path(tmp_path, 2)
        header = {"count": len(B2), "hash": basis_digest(B2), "n": 2, "version": 1}
        line = json.dumps(header, sort_keys=True)
        line += " " * (HEADER_LIMIT - 1 - len(line)) + "\n"
        path.write_bytes(gzip.compress(line.encode("ascii") + "".join(enc + "\n" for enc in B2).encode("ascii")))
        assert load_basis(path, 2) == B2


def rewritten_body(path, n, edit):
    """Rewrite a saved cache file with its header kept and ``edit`` applied
    to the bytes of its body, so the header still names the walk's hash."""
    with gzip.open(path, "rb") as fh:
        header = fh.readline()
        body = fh.read()
    path.write_bytes(gzip.compress(header + edit(body)))


class TestRunWiseLoad:
    """The body is compared with the walk's text RUN lines at a time, here
    seven, so that n = 4 and n = 5 files span many runs."""

    @pytest.fixture(params=[4, 5])
    def saved(self, request, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "RUN", 7)
        n = request.param
        lines = basis_encodings(n)
        path = cache_path(tmp_path, n)
        save_basis(path, n, lines)
        # byte offsets at which the second and the last full run start
        starts = [sum(len(line) + 1 for line in lines[:k]) for k in (7, 7 * (len(lines) // 7 - 1))]
        return path, n, lines, starts

    def test_saved_file_loads(self, saved):
        path, n, lines, _ = saved
        assert load_basis(path, n) == lines

    @pytest.mark.parametrize("boundary", [0, 1], ids=["second_run", "last_full_run"])
    @pytest.mark.parametrize("side", [-1, 0], ids=["before", "after"])
    def test_one_byte_changed_at_a_run_boundary(self, saved, boundary, side):
        path, n, _, starts = saved
        at = starts[boundary] + side
        rewritten_body(path, n, lambda body: body[:at] + bytes([body[at] ^ 0x01]) + body[at + 1 :])
        with pytest.raises(CacheError, match="canonical order"):
            load_basis(path, n)

    def test_body_truncated_at_a_run_boundary(self, saved):
        path, n, _, starts = saved
        rewritten_body(path, n, lambda body: body[: starts[1]])
        with pytest.raises(CacheError, match="canonical order"):
            load_basis(path, n)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda body: body.replace(b"\n", b"\r\n", 1),
            lambda body: body[:100] + b"\xe9" + body[101:],
        ],
        ids=["crlf_line", "non_ascii_byte"],
    )
    def test_damaged_line_refused(self, saved, edit):
        path, n, _, _ = saved
        rewritten_body(path, n, edit)
        with pytest.raises(CacheError, match="canonical order"):
            load_basis(path, n)

    def test_extra_line_refused(self, saved):
        path, n, lines, _ = saved
        rewritten_body(path, n, lambda body: body + lines[-1].encode("ascii") + b"\n")
        with pytest.raises(CacheError, match="lines after"):
            load_basis(path, n)

    def test_trailing_garbage_after_the_gzip_member_refused(self, saved):
        path, n, _, _ = saved
        with open(path, "ab") as fh:
            fh.write(b"garbage")
        with pytest.raises(CacheError, match="cannot read cache file"):
            load_basis(path, n)

    def test_no_read_asks_for_more_than_one_run(self, saved, monkeypatch):
        path, n, lines, _ = saved
        sizes = []
        read = gzip.GzipFile.read

        def recorded(self, size=-1):
            sizes.append(size)
            return read(self, size)

        monkeypatch.setattr(gzip.GzipFile, "read", recorded)
        assert load_basis(path, n) == lines
        longest = max(sum(len(line) + 1 for line in lines[k : k + 7]) for k in range(0, len(lines), 7))
        assert len(sizes) == -(-len(lines) // 7) + 1
        assert all(0 < size <= longest for size in sizes)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestBasisCommand:
    def test_total_matches_known_count(self, capsys):
        code, out = run_cli(capsys, "basis", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 10
        assert sum(s["count"] for s in payload["strata"]) == 10
        assert all(s["count"] == s["dim"] ** 2 for s in payload["strata"])

    def test_diagrams_flag_lists_encodings(self, capsys):
        code, out = run_cli(capsys, "basis", "--n", "2", "--diagrams")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["diagrams"]) == 10
        assert "D[2,2]{(1,3,r);(2,4,r)}" in payload["diagrams"]

    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(capsys, "basis", "--n", "3", "--diagrams")
        _, second = run_cli(capsys, "basis", "--n", "3", "--diagrams")
        assert first == second

    def test_cache_dir_round_trip(self, capsys, tmp_path):
        code, first = run_cli(capsys, "basis", "--n", "3", "--diagrams", "--cache-dir", str(tmp_path))
        assert code == 0
        assert cache_path(tmp_path, 3).exists()
        code, second = run_cli(capsys, "basis", "--n", "3", "--diagrams", "--cache-dir", str(tmp_path))
        assert code == 0
        assert first == second

    def test_resource_bound_exit_code(self, capsys):
        code, _ = run_cli(capsys, "basis", "--n", "9")
        assert code == 3
        code, _ = run_cli(capsys, "basis", "--n", "3", "--max-n", "1")
        assert code == 3

    def test_corrupt_cache_is_a_usage_error(self, capsys, tmp_path):
        path = cache_path(tmp_path, 2)
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("garbage\n")
        code, _ = run_cli(capsys, "basis", "--n", "2", "--diagrams", "--cache-dir", str(tmp_path))
        assert code == 2

    def test_wrong_size_cache_is_a_usage_error(self, capsys, tmp_path):
        save_basis(cache_path(tmp_path, 3), 2, B2)
        code, _ = run_cli(capsys, "basis", "--n", "3", "--diagrams", "--cache-dir", str(tmp_path))
        assert code == 2

    def test_cache_hit_still_hits_the_resource_bound(self, capsys, tmp_path):
        save_basis(cache_path(tmp_path, 3), 3, [d.encode() for d in enumerate_basis(3)])
        code, _ = run_cli(capsys, "basis", "--n", "3", "--max-n", "1", "--cache-dir", str(tmp_path))
        assert code == 3

    def test_invalid_cached_diagram_is_a_usage_error(self, capsys, tmp_path):
        write_consistent_cache(tmp_path, 2, [INTERLEAVED])
        code, _ = run_cli(capsys, "basis", "--n", "2", "--diagrams", "--cache-dir", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("how", ["truncated", "flipped"])
    def test_damaged_gzip_is_a_usage_error(self, capsys, tmp_path, how):
        code, _ = run_cli(capsys, "basis", "--n", "4", "--cache-dir", str(tmp_path))
        assert code == 0
        damage(cache_path(tmp_path, 4), how)
        code, out = run_cli(capsys, "basis", "--n", "4", "--diagrams", "--cache-dir", str(tmp_path))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("case", sorted(NOT_THE_BASIS))
    def test_cache_that_is_not_the_sorted_basis_is_a_usage_error(self, capsys, tmp_path, case):
        write_consistent_cache(tmp_path, 2, NOT_THE_BASIS[case])
        code, out = run_cli(capsys, "basis", "--n", "2", "--diagrams", "--cache-dir", str(tmp_path))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("kind", ["garbage", "wrong_size", "truncated", "flipped"])
    def test_count_only_request_leaves_a_cached_file_unread(self, capsys, tmp_path, kind):
        # the count is walk_count(2n, 0, 0) in closed form, so a request
        # without --diagrams never opens a file already in the cache; the
        # listing request is the one that refuses it
        path = cache_path(tmp_path, 4)
        if kind == "garbage":
            path.write_bytes(gzip.compress(b"garbage\n"))
        elif kind == "wrong_size":
            save_basis(path, 2, B2)
        else:
            save_basis(path, 4, basis_encodings(4))
            damage(path, kind)
        planted = path.read_bytes()
        _, want = run_cli(capsys, "basis", "--n", "4")
        code, out = run_cli(capsys, "basis", "--n", "4", "--cache-dir", str(tmp_path))
        assert (code, out) == (0, want)
        assert path.read_bytes() == planted
        code, out = run_cli(capsys, "basis", "--n", "4", "--diagrams", "--cache-dir", str(tmp_path))
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("listing", [False, True], ids=["count", "listing"])
    def test_cache_dir_that_cannot_be_written_is_a_cache_error(self, capsys, tmp_path, listing):
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory")
        flags = ("--diagrams",) * listing
        code = main(["basis", "--n", "2", *flags, "--cache-dir", str(taken)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("cache error: cannot write cache file")
        assert list(tmp_path.iterdir()) == [taken]

    @pytest.mark.parametrize("listing", [False, True], ids=["count", "listing"])
    def test_empty_cache_dir_flag_is_no_cache(self, capsys, tmp_path, monkeypatch, listing):
        # as an empty BUBBLE_CACHE_DIR already is; Path("") would be the
        # current directory
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        monkeypatch.chdir(tmp_path)
        flags = ("--diagrams",) * listing
        _, want = run_cli(capsys, "basis", "--n", "2", *flags)
        code, out = run_cli(capsys, "basis", "--n", "2", *flags, "--cache-dir", "")
        assert (code, out) == (0, want)
        assert list(tmp_path.iterdir()) == []
        # an empty flag is not given, so the environment's directory is used
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env"))
        code, out = run_cli(capsys, "basis", "--n", "2", *flags, "--cache-dir", "")
        assert (code, out) == (0, want)
        assert list(tmp_path.iterdir()) == [tmp_path / "env"]
        assert cache_path(tmp_path / "env", 2).exists()

    def test_golden_stdout_with_and_without_cache(self, capsys, tmp_path):
        # sha256 of stdout recorded before decode and load were made strict
        listing = "351766bad8d39f6ace606fe61a41c191a7106109bc1ce60944cafd980d247916"
        counts = "f8063588fe52184756f2a7eae3d2884f5af324ed1edf6eea1ce0654c3dacbf27"
        cached = ("--cache-dir", str(tmp_path))
        for argv, digest in [
            (("basis", "--n", "5", "--diagrams"), listing),
            (("basis", "--n", "5", "--diagrams", *cached), listing),  # miss
            (("basis", "--n", "5", "--diagrams", *cached), listing),  # hit
            (("basis", "--n", "5", *cached), counts),  # hit
        ]:
            code, out = run_cli(capsys, *argv)
            assert code == 0
            assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
        assert list(tmp_path.iterdir()) == [cache_path(tmp_path, 5)]

    def test_each_diagram_encoded_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        real_encode = Diagram.encode

        def counting(d):
            calls.append(d)
            return real_encode(d)

        monkeypatch.setattr(Diagram, "encode", counting)
        cached = ("--cache-dir", str(tmp_path))
        # no cache and a miss write the text on the walk, and a hit prints
        # the lines the load checked: no diagram is ever encoded
        for extra, encoded in [((), 0), (cached, 0), (cached, 0)]:
            calls.clear()
            code, _ = run_cli(capsys, "basis", "--n", "3", "--diagrams", *extra)
            assert code == 0
            assert len(calls) == encoded


def forbid_diagrams(monkeypatch):
    """Make building a diagram, or enumerating them, fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a diagram was built")

    monkeypatch.setattr(Diagram, "_raw", refuse)
    monkeypatch.setattr(Diagram, "__post_init__", refuse)
    monkeypatch.setattr(basis, "enumerate_basis", refuse)
    monkeypatch.setattr(cli, "enumerate_basis", refuse)


class TestNoDiagramsBuilt:
    def test_dims_counts_without_the_edge_product(self, capsys, monkeypatch):
        # basis_encodings joins north and south edges; the count must not
        def refuse(*args, **kwargs):
            raise AssertionError("an edge was walked")

        monkeypatch.setattr(basis, "enumerate_bras", refuse)
        code, out = run_cli(capsys, "dims", "--n", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["basis_size"] == 56628 and payload["rank_identity"] is True

    def test_dims_counts_without_diagrams(self, capsys, monkeypatch):
        forbid_diagrams(monkeypatch)
        code, out = run_cli(capsys, "dims", "--n", "6")
        assert code == 0
        assert json.loads(out)["basis_size"] == 56628

    @pytest.fixture
    def nothing_walked(self, monkeypatch):
        # every B_n front end and the bra walk run on this one walker
        def refuse(*args, **kwargs):
            raise AssertionError("a boundary was walked")

        monkeypatch.setattr(basis, "_walk_matchings", refuse)

    def test_dims_walks_nothing(self, capsys, nothing_walked):
        # the sha256 of dims --n 8 recorded when it counted every leaf of B_8
        code, out = run_cli(capsys, "dims", "--n", "8")
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
            "e10c4befb24de5948603593ec566f9dc31e99babcd85dd75489b1121272cb289"
        )

    def test_rep_without_check_or_matrices_walks_nothing(self, capsys, nothing_walked):
        code, out = run_cli(capsys, "rep", "--n", "8", "--qr", "2", "--qb", "3")
        assert code == 0
        payload = json.loads(out)
        assert (payload["basis_size"], payload["matrix_dim"]) == (6952660, 65536)
        # recorded when rep --n 7 built all 613 470 diagrams to count them
        code, out = run_cli(capsys, "rep", "--n", "7", "--qr", "2", "--qb", "3")
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
            "f3069e3e6420374d522d05ec4f8e0123552bb18af202208ca51539257fb569ad"
        )

    def test_basis_8_counts_without_diagrams(self, capsys, monkeypatch):
        # B_8 as diagrams would need gigabytes; its count holds none of them
        forbid_diagrams(monkeypatch)
        code, out = run_cli(capsys, "basis", "--n", "8")
        assert code == 0
        assert json.loads(out)["total"] == 6952660

    def test_cache_miss_writes_the_same_file_without_diagrams(self, capsys, tmp_path, monkeypatch):
        basis_4 = [d.encode() for d in enumerate_basis(4)]
        want = save_basis(cache_path(tmp_path / "from_diagrams", 4), 4, basis_4)
        forbid_diagrams(monkeypatch)
        code, out = run_cli(capsys, "basis", "--n", "4", "--diagrams", "--cache-dir", str(tmp_path / "miss"))
        assert code == 0
        assert json.loads(out)["diagrams"] == want
        got = cache_path(tmp_path / "miss", 4).read_bytes()
        assert got == cache_path(tmp_path / "from_diagrams", 4).read_bytes()
        # the file the miss wrote loads as the basis
        assert load_basis(cache_path(tmp_path / "miss", 4), 4) == want

    def test_cache_hit_builds_no_diagram(self, capsys, tmp_path, monkeypatch):
        forbid_diagrams(monkeypatch)
        cached = ("--cache-dir", str(tmp_path))
        _, miss = run_cli(capsys, "basis", "--n", "4", "--diagrams", *cached)
        code, hit = run_cli(capsys, "basis", "--n", "4", "--diagrams", *cached)
        assert code == 0
        assert hit == miss
        assert len(json.loads(hit)["diagrams"]) == 588

    def test_basis_counts_check_builds_no_diagram(self, monkeypatch):
        # the check counts the leaves of the walk that enumerate_basis takes
        forbid_diagrams(monkeypatch)
        assert checks._check_basis_counts(5) == (True, "counts match the closed form, n<=5")

    def test_count_only_cache_hit_walks_nothing(self, capsys, tmp_path, nothing_walked):
        # a planted file is not opened, let alone compared with a walk of B_8
        path = cache_path(tmp_path, 8)
        path.write_bytes(b"planted")
        code, out = run_cli(capsys, "basis", "--n", "8", "--cache-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["total"] == 6952660
        assert path.read_bytes() == b"planted"


class TestEnumerationGoldens:
    # sha256 of stdout recorded before dims, basis and the cache stopped
    # building diagrams; "basis --n 5 --diagrams" is pinned above in
    # test_golden_stdout_with_and_without_cache
    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("dims --n 6", "429bf5b618e7bb3ba42d208bcfdb653ad3ec520155bf70cfebbcd1c2bf410560"),
            (
                "dims --n 4 --format csv",
                "5d99be1f68cd2034c8aadfebbeaf49c235e2c5727d1c10e7a2eb38104e51f84d",
            ),
            (
                "basis --n 6 --diagrams",
                "223ddcec59649530d44dbe337a89e4a9311cb3843bf87afc38e359bbb63c9464",
            ),
            ("basis --n 6", "f64f834010fc9ac2311ccb1ff3d4ec33abd2ca3e2e6e2f9427cc9d4ce8f885b4"),
            ("basis --n 0", "069c0c278bd1cbbd75997d8b45205fd0c4002ae76516601fe4e92fc339cc4a43"),
            (
                "basis --n 1 --diagrams",
                "f5757d079ae9af507bac9c9fe193650fc481c10ea84dc45231ff722a9b7b1a2d",
            ),
        ],
        ids=["dims_6", "dims_4_csv", "basis_6_diagrams", "basis_6", "basis_0", "basis_1_diagrams"],
    )
    def test_golden_stdout(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_golden_cache_miss_and_hit(self, capsys, tmp_path):
        listing = "223ddcec59649530d44dbe337a89e4a9311cb3843bf87afc38e359bbb63c9464"
        for _ in ("miss", "hit"):
            code, out = run_cli(capsys, "basis", "--n", "6", "--diagrams", "--cache-dir", str(tmp_path))
            assert code == 0
            assert hashlib.sha256(out.encode("ascii")).hexdigest() == listing
        written = hashlib.sha256(cache_path(tmp_path, 6).read_bytes()).hexdigest()
        assert written == "d3b5872a12e3da06eae8a7e4d8e5f4dd3a71cda5499121aef295df66086de621"

    def test_golden_count_only_miss_fills_the_file(self, capsys, tmp_path):
        # a count-only miss still writes the file a listing miss writes
        for _ in ("miss", "hit"):
            code, out = run_cli(capsys, "basis", "--n", "6", "--cache-dir", str(tmp_path))
            assert code == 0
            assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
                "f64f834010fc9ac2311ccb1ff3d4ec33abd2ca3e2e6e2f9427cc9d4ce8f885b4"
            )
        written = hashlib.sha256(cache_path(tmp_path, 6).read_bytes()).hexdigest()
        assert written == "d3b5872a12e3da06eae8a7e4d8e5f4dd3a71cda5499121aef295df66086de621"


class TestDimsCommand:
    def test_json_reports_rank_identity(self, capsys):
        code, out = run_cli(capsys, "dims", "--n", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["rank_identity"] is True
        assert payload["basis_size"] == 70
        assert payload["dim_square_sum"] == 70

    def test_csv_rows_square_to_the_total(self, capsys):
        code, out = run_cli(capsys, "dims", "--n", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,dim,count"
        counts = [int(line.split(",")[3]) for line in lines[1:]]
        assert sum(counts) == 70


class TestGramCommand:
    def test_g2_00_det_text(self, capsys):
        code, out = run_cli(capsys, "gram", "--n", "2", "--i", "0", "--j", "0", "--det")
        payload = json.loads(out)
        assert code == 0
        assert payload["det"] == str(DR * DB)
        assert payload["det"] == "1*dr^1*db^1"
        assert payload["det_cross_checked"] is True
        assert payload["size"] == 2

    def test_matrix_alone_eliminates_no_block(self, capsys, monkeypatch):
        # with no --det, --blocks or --roots no determinant is printed, so
        # none is taken; the digest was recorded while every block was
        # still eliminated
        def refuse(m):
            raise AssertionError("a block was eliminated")

        monkeypatch.setattr(stdmod, "poly_det", refuse)
        code, out = run_cli(capsys, "gram", "--n", "6", "--i", "1", "--j", "1")
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
            "44f3aac34e179ccd02e27f6db18da59de54a872a1b6d514777ea8e7aa92b077d"
        )

    def test_each_bra_text_is_written_once(self, capsys, monkeypatch):
        # enumerate_bras sorts by the text and gram prints it; a text is
        # written from the bra's arcs, so each bra's arcs are read once
        reads = Counter()
        arcs = HalfDiagram.arcs.fget

        def counted(bra):
            reads[bra] += 1
            return arcs(bra)

        monkeypatch.setattr(HalfDiagram, "arcs", property(counted))
        code, out = run_cli(capsys, "gram", "--n", "6", "--i", "1", "--j", "1", "--det")
        assert code == 0
        assert len(json.loads(out)["basis"]) == len(reads) == walk_count(6, 1, 1)
        assert set(reads.values()) == {1}

    def test_det_text_never_expands_the_product(self, capsys, monkeypatch):
        # above the cross-check size nothing multiplies a red factor by a
        # blue one: the text is written from the two factored parts and each
        # block is compared with its factors term by term.  The digest is
        # the n7_i1_j0 golden below
        real = LaurentPoly.__mul__

        def one_weight_only(self, other):
            out = real(self, other)
            if isinstance(out, LaurentPoly) and any(a and b for a, b in out.terms):
                raise AssertionError("a product in both loop weights was built")
            return out

        monkeypatch.setattr(LaurentPoly, "__mul__", one_weight_only)
        argv = "gram --n 7 --i 1 --j 0 --det --blocks --roots r".split()
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
            "82077b3f148fa1ccf262aeb764adb2cb4a667414452f51b2bfcd2c38d724505e"
        )

    def test_wrong_closed_form_is_property_failure(self, monkeypatch, capsys):
        # every block is eliminated and must equal the closed-form tables
        monkeypatch.setattr(stdmod, "one_colour_det", lambda points, defects: ({3: 1}, 1))
        code = main(["gram", "--n", "4", "--i", "0", "--j", "0", "--det"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "property failure" in captured.err

    def test_entries_match_matrix_text(self, capsys):
        code, out = run_cli(capsys, "gram", "--n", "2", "--i", "1", "--j", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["size"] == 2
        assert payload["entries"][0][0] == "1*dr^0*db^0"
        assert payload["entries"][0][1] == "0"

    def test_blocks_and_roots_sections(self, capsys):
        code, out = run_cli(
            capsys, "gram", "--n", "3", "--i", "1", "--j", "0", "--blocks", "--roots", "r"
        )
        payload = json.loads(out)
        assert code == 0
        words = [b["word"] for b in payload["blocks"]]
        assert sorted(words) == words
        assert payload["roots"]["all_matched"] is True
        assert payload["roots"]["var"] == "r"

    def test_empty_label_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "gram", "--n", "3", "--i", "0", "--j", "0")
        assert code == 2

    def test_bra_size_counts_both_halves(self, capsys):
        # a one-bra module, but n=9 means 18 boundary points against max_n=8
        code, _ = run_cli(capsys, "gram", "--n", "9", "--i", "9", "--j", "0")
        assert code == 3

    # sha256 of stdout, and of the payload with every root "value" removed
    # (None without --roots).  The stdout digests of n5_i1_j0, n6_i1_j1,
    # n7_i1_j0, n7_i0_j1 and n8_i4_j0 were re-recorded when the root scan
    # began printing each root as its cosine from the psi_k table instead
    # of an np.roots output; their root-free digests were recorded before
    # that, so the re-record moved nothing but root values
    @pytest.mark.parametrize(
        "argv, digest, rootless",
        [
            (
                "gram --n 5 --i 1 --j 0 --det --blocks --roots r",
                "7aca87d6da768fc308fdfb0561d36f82440474fd574c38ce4dd239e95b9e3992",
                "e943fc63831842d954302fbfedb1c34c73310fec171a0eb6cc7ee904484a17ec",
            ),
            (
                "gram --n 6 --i 1 --j 1 --det --blocks --roots b",
                "626097c3f6e34dc6abf10387f518805404a9fd21016dc1f7d2ba688938e079a7",
                "1273a23e1761065a1cbba200b969f48aef1fb4ccaf0707a32239e2eefe48b47f",
            ),
            (
                "gram --n 7 --i 1 --j 0 --det --blocks --roots r",
                "82077b3f148fa1ccf262aeb764adb2cb4a667414452f51b2bfcd2c38d724505e",
                "af17ccf9bdea3164d3a8ec050d0e1e1a2f2e23772ab9012538dc972f3b91f8df",
            ),
            (
                "gram --n 7 --i 0 --j 1 --det --roots b",
                "05c3165617ed1cbe33ab9112c228ca45182859a886a10feee1ee9a9326c0bdfe",
                "c4fe957579e4f6367ce73a3ccd175fb603909e4383d999c4a2e4c86eb126780d",
            ),
            # recorded before the root scan stopped expanding the
            # determinant, before the zero-skipping elimination and before
            # the streaming JSON writer; the shapes of the benchmark's gram
            # requests that the goldens above do not cover
            (
                "gram --n 7 --i 2 --j 1 --det --blocks",
                "04de627b311ec6596597268c0dfdb4efe843e73cc856e5359f36d4d73e7e1eaa",
                None,
            ),
            (
                "gram --n 8 --i 4 --j 0 --det --roots r",
                "16cf4f61fbab1409562efca45ac9dbb59b144796bae812797909e3a5bb89c64e",
                "04df6e5e883af00f5e31a88e9facc3c336967aeabbb9f08ab9e0dcf0939b566b",
            ),
            (
                "gram --n 8 --i 0 --j 6 --det",
                "7675ce4f372113af6116dbf2c2c765b51bb970e0b56681f79c4c07ebd09e81da",
                None,
            ),
            (
                # a constant determinant: both samples list no root
                "gram --n 7 --i 4 --j 3 --det --roots r",
                "de78643d80ae9d1151d1865a57a184714e47dfaff2939722440d02c99019decf",
                "de78643d80ae9d1151d1865a57a184714e47dfaff2939722440d02c99019decf",
            ),
        ],
        ids=[
            "n5_i1_j0",
            "n6_i1_j1",
            "n7_i1_j0",
            "n7_i0_j1",
            "n7_i2_j1",
            "n8_i4_j0",
            "n8_i0_j6",
            "n7_i4_j3",
        ],
    )
    def test_golden_stdout(self, capsys, argv, digest, rootless):
        code, out = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
        if rootless is not None:
            payload = json.loads(out)
            for sample in payload["roots"]["samples"]:
                for root in sample["roots"]:
                    del root["value"]
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            assert hashlib.sha256(text.encode("ascii")).hexdigest() == rootless


class TestRepCommand:
    def test_check_passes_at_generic_point(self, capsys):
        code, out = run_cli(
            capsys, "rep", "--n", "2", "--qr", "2+0.5j", "--qb", "1.5-0.25j", "--check"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["check"]["passed"] is True
        assert payload["check"]["pairs_checked"] == 100
        assert payload["matrix_dim"] == 16

    def test_matrices_are_row_major_pairs(self, capsys):
        code, out = run_cli(capsys, "rep", "--n", "1", "--qr", "2", "--qb", "3", "--matrices")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["matrices"]) == 2
        for text in payload["matrices"].values():
            cells = text.split(";")
            assert len(cells) == 16
            assert all(len(cell.split(",")) == 2 for cell in cells)

    def test_bad_parameter_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "rep", "--n", "2", "--qr", "spam", "--qb", "1", "--check")
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_tolerance_not_finite_and_non_negative_is_usage_error(self, capsys, tol):
        code = main(["rep", "--n", "2", "--qr", "2", "--qb", "3", "--check", f"--tol={tol}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--tol" in captured.err

    def test_impossible_tolerance_is_property_failure(self, capsys):
        code, out = run_cli(
            capsys, "rep", "--n", "2", "--qr", "2", "--qb", "3", "--check", "--tol", "0"
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["check"]["passed"] is False

    def test_entry_outside_a_colour_block_fails_rep_check(self, capsys, monkeypatch):
        from bubblealg import spinchain
        from bubblealg.diagram import RED, straight_diagram

        planted, matrix = straight_diagram([RED, RED]), spinchain.diagram_matrix

        def planting(d, params):
            m = matrix(d, params)
            if d == planted:
                # outside the red-red block: only zero products see it
                m[15, 15] = 0.5
            return m

        monkeypatch.setattr(spinchain, "diagram_matrix", planting)
        code, out = run_cli(capsys, "rep", "--n", "2", "--qr", "2+0.5j", "--qb", "1.5-0.25j", "--check")
        assert code == 1
        assert json.loads(out)["check"]["max_residual"] >= 0.5


class TestYbeCommand:
    def test_tl_sweep_passes(self, capsys):
        code, out = run_cli(capsys, "ybe", "--family", "tl", "--sweep", "5")
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is True
        assert payload["ybe"]["max_residual"] < 1e-12
        assert len(payload["ybe"]["points"]) == 5

    def test_fixed_lambda_with_transfer(self, capsys):
        code, out = run_cli(
            capsys,
            "ybe", "--family", "bubble", "--lambda", "0.7", "--sweep", "4", "--transfer", "2",
        )
        payload = json.loads(out)
        assert code == 0
        assert all(p["lambda"] == 0.7 for p in payload["ybe"]["points"])
        assert payload["transfer"]["n"] == 2
        assert payload["transfer"]["max_residual"] < 1e-9

    def test_singular_lambda_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "ybe", "--family", "bubble", "--lambda", "1.0471975511965976")
        assert code == 2

    @pytest.mark.parametrize("family", ["tl", "bubble"])
    @pytest.mark.parametrize("lam", ["inf", "-inf", "nan"])
    def test_lambda_not_finite_is_usage_error(self, capsys, family, lam):
        code = main(["ybe", "--family", family, f"--lambda={lam}", "--sweep", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "lambda must be finite" in captured.err

    def test_csv_has_one_row_per_point(self, capsys):
        code, out = run_cli(
            capsys,
            "ybe", "--family", "tl", "--sweep", "3", "--transfer", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "quantity,index,lambda,u,v,residual"
        assert len(lines) == 1 + 3 + 3

    def test_deterministic_for_fixed_seed(self, capsys):
        _, first = run_cli(capsys, "ybe", "--family", "tl", "--sweep", "3", "--seed", "7")
        _, second = run_cli(capsys, "ybe", "--family", "tl", "--sweep", "3", "--seed", "7")
        assert first == second

    def test_transfer_output_depends_only_on_the_command_line(self, capsys):
        argv = "ybe --family bubble --sweep 3 --transfer 3 --seed 7".split()
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert first == second
        other = run_cli(capsys, *argv[:-1], "8")
        assert json.loads(other[1])["transfer"] != json.loads(first[1])["transfer"]

    @pytest.mark.parametrize(
        "family, size",
        # both failed the absolute gate on the largest entry of T_u T_v - T_v T_u
        [("bubble", "4"), ("tl", "6")],
    )
    def test_transfer_gate_is_relative(self, capsys, family, size):
        code, out = run_cli(capsys, "ybe", "--family", family, "--sweep", "20", "--transfer", size)
        payload = json.loads(out)
        assert code == 0
        assert payload["transfer"]["passed"] is True
        assert payload["transfer"]["max_residual"] < 1e-12

    def test_zero_sweep_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "ybe", "--family", "tl", "--sweep", "0")
        assert code == 2

    @pytest.mark.parametrize("sites", ["0", "-1"])
    def test_transfer_without_sites_refused_before_any_sweep(self, capsys, monkeypatch, sites):
        from bubblealg import yangbaxter

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(yangbaxter, "ybe_sweep", refuse)
        code, out = run_cli(capsys, "ybe", "--family", "bubble", "--sweep", "200", "--transfer", sites)
        assert code == 2 and out == ""


class TestSpectralGoldens:
    # sha256 of stdout recorded before the two R-matrix builders were merged
    # into one and the homomorphism check stopped building Elements; they
    # pin every residual float
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "ybe --family tl --sweep 20 --transfer 4 --seed 7",
                "c9817ccd14d2156f1328ba08bbffeb469a6981ba0ade365f521eb50498fb9c71",
            ),
            (
                "ybe --family bubble --sweep 20 --transfer 4 --seed 7",
                "4a1815d008d551c13fd00b06d9c9918564c9ac60cccdb2ba6c5fb5717d24fb7f",
            ),
            (
                "ybe --family bubble --sweep 20 --transfer 4 --seed 7 --format csv",
                "60b83e105c8beb3cd19898f5d722944425329aae726fe023769010e2eed154b7",
            ),
            (
                "ybe --family bubble --lambda 0.7 --sweep 5",
                "c84b6a437800c3093057557f5574149a4e53a549298ac0ca742901f4f812d054",
            ),
            (
                "rep --n 2 --qr 2+0.5j --qb 1.5-0.25j --check",
                "b9ccdc5cfea86e88229682b4b14c362f2c0621abd40234747ca901ecd689a60c",
            ),
            # recorded when the cells became plain float reprs; under numpy 2
            # they had read np.float64(...) (12a508b0...)
            (
                "rep --n 1 --qr 2 --qb 3 --matrices",
                "0a2b233425b28be6b83c58e2181891b0a159ace3d7ec638d7d8b72fc4d5927ad",
            ),
            # recorded before the homomorphism check skipped word-mismatched pairs
            (
                "rep --n 3 --qr 2+0.5j --qb 1.5-0.25j --check",
                "e3f925fb06e09535de53c89c4e4c4167f0cac3d6597683a164fef9000f8cf615",
            ),
            (
                "check --n 3",
                "2c0273d8a75457dff8b1b8e2e0d741a4222cc5842fe5e3c960e23134fdb1c6d5",
            ),
            # recorded before the loop weights became plain powers of the
            # deltas; the = form keeps argparse from reading -2+0.1j as a flag
            (
                "rep --n 2 --qr=0.3-1.7j --qb=-2+0.1j --check",
                "0daac08abcc5fcdafff20dac83cddf35164b8f52799b1011d7fd7e6e9a677d4b",
            ),
            (
                "rep --n 3 --qr=0.3-1.7j --qb=-2+0.1j --check",
                "872f56c9012c5551c2e6bde8e21dfbc2f804383c443f56dbb0350be78668e34a",
            ),
        ],
        ids=[
            "ybe_tl",
            "ybe_bubble",
            "ybe_bubble_csv",
            "ybe_fixed_lambda",
            "rep_check",
            "rep_matrices",
            "rep_check_n3",
            "check_n3",
            "rep_check_far",
            "rep_check_far_n3",
        ],
    )
    def test_golden_stdout(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


class TestRequestLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            "basis --n -1 --diagrams",
            "basis --n -1",
            "dims --n -2",
            "rep --n -1 --qr 2 --qb 3",
            "rep --n -1 --qr 2 --qb 3 --check",
        ],
    )
    def test_negative_size_is_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        # the listing runs through a cache directory and the bare count
        # without one, so both of basis's routes are refused
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        code, out = run_cli(capsys, *argv.split(), *(["--cache-dir", str(tmp_path)] if "--diagrams" in argv else []))
        assert (code, out) == (2, "")
        assert list(tmp_path.iterdir()) == []

    def test_negative_side_rejected_and_zero_is_valid(self):
        for front_end in (enumerate_basis, rank_identity, basis_encodings):
            with pytest.raises(ValueError):
                front_end(-1)
        assert enumerate_basis(0) == [Diagram(0, 0, ())]

    @pytest.mark.parametrize(
        "bad", ["nan", "inf", "-inf", "nan+1j", "1+infj", "1e-320", "1.7e308+1.7e308j"]
    )
    def test_non_finite_parameter_is_usage_error(self, capsys, bad):
        for flags in (["--qr", bad, "--qb", "3"], ["--qr", "2", "--qb", bad]):
            code, out = run_cli(capsys, "rep", "--n", "2", *flags, "--check")
            assert (code, out) == (2, "")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            "rep --n 2 --qr 1e200 --qb 1 --check",
            "rep --n 2 --qr 1e-300 --qb 1 --check",
            "rep --n 3 --qr 1e-200 --qb 1 --check",
        ],
    )
    def test_float_overflow_in_the_check_is_usage_error(self, capsys, argv):
        # the loop weight is finite, but the matrix products overflow
        # float64, which then cannot show whether the homomorphism holds
        code = main(argv.split())
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert f"n={argv.split()[2]}" in captured.err and "Traceback" not in captured.err

    def test_negative_seed_is_usage_error_before_numpy_loads(self):
        # numpy's generators refuse a negative seed, but only once the
        # work before the first draw has run, or never when no draw needs one
        seen = probe_imports(
            [
                "check --quick --seed -1",
                "ybe --family tl --sweep 2 --transfer 3 --seed -1",
                "ybe --family tl --sweep 2 --seed -1",
            ]
        )
        assert [row[:2] for row in seen] == [[2, False]] * 3

    def test_seed_zero_is_valid(self, capsys):
        code, out = run_cli(capsys, "ybe", "--family", "tl", "--sweep", "1", "--seed", "0")
        assert code == 0
        assert json.loads(out)["seed"] == 0

    @pytest.mark.filterwarnings("error")
    def test_large_finite_loop_weight_is_still_checked(self, capsys):
        code, out = run_cli(capsys, "rep", "--n", "2", "--qr", "1e100", "--qb", "1", "--check")
        assert code == 0
        assert json.loads(out)["check"]["passed"] is True

    @pytest.fixture
    def nothing_dense(self, monkeypatch):
        """Make building any dense matrix raise at once, so a request the
        budget lets through raises ``Built`` instead of allocating."""
        from bubblealg import spinchain, yangbaxter

        class Built(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Built

        monkeypatch.setattr(spinchain, "diagram_matrix", refuse)
        monkeypatch.setattr(yangbaxter, "_apply_transfer", refuse)
        return Built

    @pytest.mark.parametrize(
        "argv",
        [
            "rep --n 4 --qr 2 --qb 3 --check",
            "rep --n 4 --qr 2 --qb 3 --matrices",
            "rep --n 5 --qr 2 --qb 3 --matrices",
            "ybe --family bubble --sweep 1 --transfer 10",
            "ybe --family bubble --sweep 1 --transfer 12",
            "ybe --family tl --sweep 1 --transfer 22",
        ],
    )
    def test_dense_budget_refuses_before_building(self, capsys, nothing_dense, argv):
        assert run_cli(capsys, *argv.split()) == (3, "")

    def test_dense_request_admits_up_to_the_budget(self):
        with numeric.dense_request(numeric.DENSE_BUDGET, numeric.ONE_BLAS_THREAD_BELOW, "at the budget"):
            pass
        message = f"past it would hold 5.37e\\+08 bytes of dense arrays, over the budget of {numeric.DENSE_BUDGET}"
        with pytest.raises(basis.ResourceLimitError, match=message):
            with numeric.dense_request(numeric.DENSE_BUDGET + 1, numeric.ONE_BLAS_THREAD_BELOW, "past it"):
                pytest.fail("a request over the budget was admitted")

    def test_size_guard_runs_before_the_dense_count(self, capsys):
        # the dense budget counts B_n with walk_count, whose factorials
        # grow with n, so an n far past the guard must be refused first
        code = main("rep --n 400 --qr 2 --qb 2 --check".split())
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "resource limit" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            "rep --n 3 --qr 2+0.5j --qb 1.5-0.25j --check",
            "rep --n 3 --qr 2 --qb 3 --matrices",
            "ybe --family bubble --sweep 1 --transfer 5",
            "ybe --family bubble --sweep 1 --transfer 9",
            "ybe --family tl --sweep 1 --transfer 8",
            "ybe --family tl --sweep 1 --transfer 21",
        ],
    )
    def test_dense_budget_admits_the_benchmark_sizes(self, capsys, nothing_dense, argv):
        with pytest.raises(nothing_dense):
            main(argv.split())

    def test_rep_matrices_budget_counts_the_text(self, capsys, monkeypatch):
        needs = []
        real = numeric.dense_request
        monkeypatch.setattr(
            numeric, "dense_request", lambda held, largest, what: needs.append(held) or real(held, largest, what)
        )
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, *"rep --n 3 --qr 2+0.5j --qb 1.5-0.25j --matrices".split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # each of the 70 x 64 x 64 entries is at least "0.0,0.0" and one
        # separator: ";" within a matrix, the closing quote after its last
        assert len(out) > 70 * 64 * 64 * len("0.0,0.0;")
        assert peak <= needs[0] <= numeric.DENSE_BUDGET

    def test_rep_matrices_cells_are_floats(self, capsys):
        code, out = run_cli(capsys, *"rep --n 2 --qr 2+0.5j --qb 1.5-0.25j --matrices".split())
        assert code == 0
        matrices = json.loads(out)["matrices"]
        assert len(matrices) == 10
        for text in matrices.values():
            cells = text.split(";")
            assert len(cells) == 16 * 16
            for cell in cells:
                parts = cell.split(",")
                assert len(parts) == 2 and all(math.isfinite(float(part)) for part in parts), cell

    def test_rep_without_matrices_has_no_dense_bound(self, capsys, nothing_dense):
        code, out = run_cli(capsys, "rep", "--n", "4", "--qr", "2", "--qb", "3")
        assert code == 0
        assert json.loads(out)["basis_size"] == 588


def reject_constant(token):
    """``json.loads`` hook for NaN and Infinity, which strict JSON has no token for."""
    raise ValueError(f"bare {token} in the JSON output")


class TestNanNeverPasses:
    def test_nan_ybe_residual_fails_the_sweep_gate(self, capsys, monkeypatch):
        from bubblealg import yangbaxter

        real = yangbaxter.ybe_residual
        calls = []

        def poisoned(lam, u, v, kind="bubble"):
            calls.append(lam)
            return float("nan") if len(calls) == 2 else real(lam, u, v, kind)

        monkeypatch.setattr(yangbaxter, "ybe_residual", poisoned)
        report = yangbaxter.ybe_sweep("tl", count=4, seed=5)
        assert math.isnan(report.max_residual)
        assert report.worst == report.points[1][0]
        calls.clear()
        code, out = run_cli(capsys, "ybe", "--family", "tl", "--sweep", "4", "--seed", "5")
        assert code == 1
        assert json.loads(out)["passed"] is False
        calls.clear()
        assert not checks._check_ybe(5, 4).passed

    def test_nan_residuals_fail_the_check_gates(self, monkeypatch):
        from bubblealg.spinchain import HomomorphismReport

        nan = float("nan")
        monkeypatch.setattr(checks, "homomorphism_report", lambda n, p: HomomorphismReport(n, 100, nan))
        monkeypatch.setattr(checks, "transfer_commutator", lambda *args: nan)
        assert not checks._check_homomorphism(1).passed
        assert not checks._check_transfer(2, 1).passed

    def test_nan_residual_is_printed_as_null(self, capsys, monkeypatch):
        from bubblealg import yangbaxter

        real = yangbaxter.transfer_commutator
        calls = []

        def poisoned(*args):
            calls.append(args)
            return float("nan") if len(calls) == 2 else real(*args)

        monkeypatch.setattr(yangbaxter, "transfer_commutator", poisoned)
        code, out = run_cli(capsys, "ybe", "--family", "tl", "--sweep", "3", "--transfer", "3")
        payload = json.loads(out, parse_constant=reject_constant)
        assert code == 1
        assert payload["transfer"]["passed"] is False
        assert payload["transfer"]["max_residual"] is None
        assert [p["residual"] is None for p in payload["transfer"]["points"]] == [False, True, False]
        assert payload["ybe"]["passed"] is True

    def test_nan_rep_residual_is_printed_as_null(self, capsys, monkeypatch):
        from bubblealg import spinchain
        from bubblealg.spinchain import HomomorphismReport

        monkeypatch.setattr(spinchain, "homomorphism_report", lambda n, p: HomomorphismReport(n, 100, float("nan")))
        code, out = run_cli(capsys, "rep", "--n", "1", "--qr", "2", "--qb", "3", "--check")
        payload = json.loads(out, parse_constant=reject_constant)
        assert code == 1
        assert payload["check"]["max_residual"] is None


def first_entry_plus_one(m: Matrix) -> Matrix:
    return ((m[0][0] + ONE, *m[0][1:]), *m[1:])


def with_changed_blocks(real):
    def gram_blocks(n, i, j):
        bras, blocks = real(n, i, j)
        return bras, [GramBlock(b.word, b.indices, GramRows(first_entry_plus_one(b.matrix))) for b in blocks]

    return gram_blocks


def skip_first(leaf):
    calls = count()
    return lambda slots: next(calls) and leaf(slots)


def raising_product(real):
    # a product of the diagram with the fewest propagating strands whose
    # result is the diagram with the most
    def products(left, right):
        ordered = sorted(left, key=lambda d: sum(propagating_index(d)))
        yield ordered[0], ordered[0], 0, 0, ordered[-1]

    return products


def raising(real):
    def check(*args):
        raise RuntimeError("boom")

    return check


# Each case replaces one name a check reads from the checks module so that
# the property the check tests fails: (the name, a function of the real
# object giving its replacement, the run, a pattern the detail must match)
BROKEN_CHECKS = {
    "basis_counts": (
        "_walk_matchings",
        lambda real: lambda run, stacks, leaf: real(run, stacks, skip_first(leaf)),
        lambda: checks._check_basis_counts(2),
        r"^n=1: enumerated 1, closed form 2$",
    ),
    "rank_identity": (
        "rank_identity",
        lambda real: lambda n: real(n)._replace(basis_size=0),
        lambda: checks._check_rank_identity(2),
        r"^n=1: basis 0 != square sum 2$",
    ),
    "gram_identity_top": (
        "gram_matrix",
        lambda real: lambda n, i, j: first_entry_plus_one(real(n, i, j)),
        lambda: checks._check_gram_identity_top(2),
        r"^G_1\(0,1\) is not the identity$",
    ),
    "gram_g2_diagonal": (
        "gram_matrix",
        lambda real: lambda n, i, j: first_entry_plus_one(real(n, i, j)),
        checks._check_gram_g2_diagonal,
        r"^G_2\(0,0\) mismatch$",
    ),
    "gram_tl_blocks": (
        "gram_blocks",
        with_changed_blocks,
        lambda: checks._check_gram_tl_blocks(2),
        r"^block \w+ of G_2\(0,0\) has wrong determinant$",
    ),
    "gram_root_scan": (
        "scan_gram_roots",
        lambda real: lambda report, var: GramRootScan(report.n, report.label, var, ((0.5, None),), 0),
        lambda: checks._check_root_scan(3),
        r"^unmatched root in det G_3\(1,0\) scanning colour 0$",
    ),
    "white_idempotent": (
        "white_generator",
        lambda real: lambda n, pos: real(n, pos).scale(2),
        lambda: checks._check_white_idempotent(2),
        r"^U_1 at n=2 fails its square rule$",
    ),
    "identity_decomposition_orthogonal": (
        "monochrome_straight_diagrams",
        lambda real: enumerate_basis,
        lambda: checks._check_identity_decomposition(2),
        r"^straights not orthogonal at n=2$",
    ),
    "identity_decomposition_sum": (
        "monochrome_straight_diagrams",
        lambda real: lambda n: real(n)[1:],
        lambda: checks._check_identity_decomposition(2),
        r"^straights do not sum to 1 at n=2$",
    ),
    "filtration": (
        "products",
        raising_product,
        lambda: checks._check_filtration(2),
        r"^D\[2,2\]\S+ o D\[2,2\]\S+ raises a propagating count$",
    ),
    "unitarity": (
        "unitarity_sweep",
        lambda real: lambda kind, count, seed: SweepReport(kind, "unitarity", count, 1.0, SpectralPoint(0.5, 0.0, 0.0)),
        lambda: checks._check_unitarity(1, 3),
        r"^tl 1\.000e\+00, bubble 1\.000e\+00$",
    ),
    "localisation": (
        "localisation_report",
        lambda real: lambda n: SpanReport(n, None, 0, 1),
        lambda: checks._check_localisation(2),
        r"^n=2: rank 0, expected 1$",
    ),
    "restriction": (
        "restriction_report",
        lambda real: lambda n, i, j: RestrictionReport(n, (i, j), {}, False),
        lambda: checks._check_restriction(2),
        r"^n=2, label \(2,0\) fails the recursion$",
    ),
    "cyclic_span": (
        "cyclic_span_report",
        lambda real: lambda n, i, j: SpanReport(n, (i, j), 0, 1),
        lambda: checks._check_cyclic_span(2),
        r"^n=1, label \(1,0\): rank 0 != 1$",
    ),
    # a check that raises fails with the error as its detail
    "raised": (
        "_check_filtration",
        raising,
        lambda: next(r for r in run_checks(size=2, quick=True) if r.name == "filtration"),
        r"^error: RuntimeError\('boom'\)$",
    ),
}


# The detail of every check of run_checks(size=7) that prints no float,
# so no BLAS kernel can move it; all pass.  Only spin_homomorphism,
# yang_baxter and transfer_commute print a residual.
CHECK_DETAILS_7 = {
    "basis_counts": "counts match the closed form, n<=7",
    "rank_identity": "basis size equals square sum, n<=7",
    "gram_identity_top": "full-cut forms are identities, n<=7",
    "gram_g2_diagonal": "G_2(0,0) = diag(db, dr) in canonical bra order",
    "gram_tl_blocks": "438 word blocks match the one-colour oracle",
    "gram_det_dual_route": "6 determinants agree both routes, n<=4",
    "gram_root_scan": "3 scans hit only 2cos(pi m/k) points, n<=4",
    "white_idempotent": "U_i^2 = (dr+db) U_i for all positions, n<=7",
    "identity_decomposition": "2^7 orthogonal idempotents sum to 1",
    "filtration": "propagating counts never grow over 21912 products (n=4)",
    "unitarity": "both families scalar to working precision",
    "localisation": "sandwich rank equals |B_(n-2)|, n<=7",
    "restriction": "walk recursion realised for every label, n<=7",
    "cyclic_span": "orbit rank equals walk dimension for every label, n<=7",
}


class TestCheckCommand:
    def test_size_7_details_are_pinned(self):
        residuals = {"spin_homomorphism", "yang_baxter", "transfer_commute"}
        got = {r.name: (r.passed, r.detail) for r in run_checks(size=7) if r.name not in residuals}
        assert got == {name: (True, detail) for name, detail in CHECK_DETAILS_7.items()}

    def test_quick_suite_passes(self, capsys):
        code, out = run_cli(capsys, "check", "--quick")
        payload = json.loads(out)
        assert code == 0
        assert payload["all_passed"] is True
        assert len(payload["results"]) == 17
        filtration = next(r for r in payload["results"] if r["name"] == "filtration")
        assert filtration["detail"].endswith("(n=3)")

    def test_default_suite_runs_filtration_over_b4(self, capsys):
        code, out = run_cli(capsys, "check")
        payload = json.loads(out)
        filtration = next(r for r in payload["results"] if r["name"] == "filtration")
        assert code == 0
        assert filtration["detail"] == "propagating counts never grow over 21912 products (n=4)"

    def test_run_checks_accepts_seeds(self):
        results = run_checks(size=3, seed=11, quick=True)
        assert all_passed(results)

    def test_localisation_detail_names_the_size_run(self):
        results = {r.name: r for r in run_checks(size=2)}
        assert results["localisation"].detail.endswith("n<=2")
        assert results["transfer_commute"].detail.endswith("n<=2")
        # the fixed-label checks start at n=3, above the requested size
        assert results["gram_det_dual_route"].detail.endswith("n<=3")
        assert results["gram_root_scan"].detail.endswith("n<=3")

    def test_rank_checks_run_at_the_requested_size(self):
        results = {r.name: r for r in run_checks(size=4)}
        assert all_passed(results.values())
        assert results["localisation"].detail.endswith("n<=4")
        assert results["cyclic_span"].detail.endswith("n<=4")
        assert results["transfer_commute"].detail.endswith("n<=4")
        assert results["identity_decomposition"].detail.startswith("2^4 ")
        assert results["gram_det_dual_route"].detail.endswith("n<=4")
        assert results["gram_root_scan"].detail.endswith("n<=4")

    def test_cyclic_span_lists_no_large_basis(self, monkeypatch):
        # the search acts with the local generators only, so no B_n with
        # n >= 3 is listed: stdmod holds no enumerate_basis, and a call
        # through the basis module is refused
        assert not hasattr(stdmod, "enumerate_basis")

        def refusing(n, *args, **kwargs):
            if n >= 3:
                raise AssertionError(f"B_{n} listed")
            return enumerate_basis(n, *args, **kwargs)

        monkeypatch.setattr(basis, "enumerate_basis", refusing)
        monkeypatch.setattr(checks, "enumerate_basis", refusing)
        assert checks._check_cyclic_span(4).passed

    def test_transfer_check_runs_both_families_up_to_the_size(self, monkeypatch):
        sizes = []

        def recording(lam, u, v, n, kind, rng):
            sizes.append((kind, n))
            return 0.0

        monkeypatch.setattr(checks, "transfer_commutator", recording)
        assert checks._check_transfer(4, 1).passed
        assert sizes == [("tl", 2), ("tl", 3), ("tl", 4), ("bubble", 2), ("bubble", 3), ("bubble", 4)]

    def test_tiny_size_rejected(self, capsys):
        code, _ = run_cli(capsys, "check", "--n", "1")
        assert code == 2

    def test_size_past_the_guard_runs_no_check(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a check ran")

        for name in dir(checks):
            if name.startswith("_check_"):
                monkeypatch.setattr(checks, name, refuse)
        code, out = run_cli(capsys, "check", "--n", "9")
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("case", sorted(BROKEN_CHECKS))
    def test_check_fails_where_its_property_fails(self, monkeypatch, case):
        name, replacement, run, detail = BROKEN_CHECKS[case]
        monkeypatch.setattr(checks, name, replacement(getattr(checks, name)))
        result = run()
        assert result.passed is False
        assert re.search(detail, result.detail), result.detail


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _ = run_cli(capsys, "basis", "--n", "2", "--bogus")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        code, _ = run_cli(capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out = run_cli(capsys, "ybe", "--help")
        assert code == 0
        assert "--transfer" in out
        assert "20260822" in out


# Runs requests in order in one fresh interpreter and prints, per request,
# its exit code, whether numpy, the cache module and the oracle module had
# been imported by then, and which of the stdlib's dataclasses, inspect and
# fractions the package had loaded: those not in sys.modules before it was
# imported, so what the interpreter's site loads does not count.
IMPORT_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from bubblealg.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    stdlib = [m for m in ("dataclasses", "inspect", "fractions") if m in sys.modules and m not in before]
    loaded = [m in sys.modules for m in ("numpy", "bubblealg.cache", "bubblealg.oracles", "bubblealg.exactpoly")]
    seen.append([code, *loaded, stdlib])
print(json.dumps(seen))
"""


def fresh_env() -> dict[str, str]:
    """The environment of a fresh ``bubble`` process on this checkout,
    with no cache directory and no BLAS thread setting."""
    env = {**os.environ, "PYTHONPATH": str(Path(bubblealg.__file__).resolve().parent.parent)}
    for var in ("BUBBLE_CACHE_DIR", *numeric.BLAS_THREAD_VARS):
        env.pop(var, None)
    return env


def probe_env() -> dict[str, str]:
    """``fresh_env`` with ``tests/``, and so ``blas.py``, on the path."""
    env = fresh_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
    return env


@pytest.mark.parametrize(
    "request_line",
    [
        "basis --n 4 --diagrams",
        "dims --n 5",
        "gram --n 6 --i 1 --j 1 --det --blocks --roots b",
        "rep --n 2 --qr 2+0.5j --qb 1.5-0.25j --matrices --check",
        "ybe --family bubble --sweep 4 --transfer 3 --seed 7",
        "check --quick",
    ],
)
def test_stdout_does_not_depend_on_hash_randomisation(request_line):
    # set and dict orders of str keys vary with PYTHONHASHSEED; the
    # output of a fixed command line and seed may not
    first, second = (
        subprocess.run(
            [sys.executable, "-m", "bubblealg.cli", *request_line.split()],
            env={**fresh_env(), "PYTHONHASHSEED": seed}, capture_output=True, timeout=120,
        )
        for seed in ("0", "1")
    )
    assert first.stdout
    assert (first.returncode, first.stdout) == (second.returncode, second.stdout)


# Runs basis requests in one fresh interpreter and prints, for each, its
# exit code and which of the cache's codec modules it brought in
CODEC_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from bubblealg.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen.append([code, [m for m in ("gzip", "hashlib", "zlib") if m in sys.modules and m not in before]])
print(json.dumps(seen))
"""


def probe_imports(requests: list[str]) -> list:
    """IMPORT_PROBE's rows for the requests, run one after another in one
    fresh interpreter: a module a request loads stays for the next."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps([line.split() for line in requests])],
        env=fresh_env(), capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


class TestLeanPath:
    def test_numpy_loads_only_for_float_work(self):
        seen = probe_imports(
            [
                "basis --n 3",
                "basis --n 3 --diagrams",
                "gram --n 4 --i 0 --j 0 --det",
                "gram --n 4 --i 0 --j 0 --roots r",
                "rep --n 2 --qr 2 --qb 3",
                "rep --n 4 --qr 2 --qb 3 --check",
                "ybe --family bubble --transfer 10",
                "dims --n 3",
                "rep --n 2 --qr 2 --qb 3 --check",
                "ybe --family tl --sweep 2",
            ]
        )
        # basis, gram and a bare rep never compute a float: gram reads its
        # roots off the psi_k table, and its records are named tuples and
        # its samples text, so none of them loads dataclasses, inspect or
        # fractions.  No request names a cache directory, so none loads the
        # cache module, --diagrams included (one that names a directory is
        # probed below); basis and gram take no count from the oracle
        # module.  basis loads no ring; gram does, and it stays
        assert seen[:2] == [[0, False, False, False, False, []]] * 2
        assert seen[2:5] == [[0, False, False, False, True, []]] * 3
        # a numeric request over its dense budget is refused before numpy loads
        assert seen[5:7] == [[3, False, False, False, True, []]] * 2
        # dims compares with the oracle's closed form.  Once loaded, numpy
        # stays; what it loads is its own, but fractions is not among it,
        # and ybe takes its median without the statistics module
        assert seen[7] == [0, False, False, True, True, []]
        assert [row[:4] for row in seen[8:]] == [[0, True, False, True]] * 2
        assert all("fractions" not in row[5] for row in seen[8:])

    def test_basis_dims_rep_and_ybe_load_no_ring(self):
        # only gram and check need the ring; float work does not
        seen = probe_imports(
            [
                "basis --n 3 --diagrams",
                "dims --n 3",
                "rep --n 2 --qr 2 --qb 3 --matrices --check",
                "ybe --family bubble --sweep 2 --transfer 3",
                "ybe --family tl --sweep 2",
            ]
        )
        assert [row[0] for row in seen] == [0] * 5
        assert [row[4] for row in seen] == [False] * 5

    def test_count_only_cache_hit_loads_no_codec(self, tmp_path):
        # a count-only hit only looks for the file; a listing hit reads it
        save_basis(cache_path(tmp_path, 3), 3, basis_encodings(3))
        count = ["basis", "--n", "3", "--cache-dir", str(tmp_path)]
        out = subprocess.run(
            [sys.executable, "-c", CODEC_PROBE, json.dumps([count, [*count, "--diagrams"]])],
            env=fresh_env(), capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        (count_code, count_loaded), (listing_code, listing_loaded) = json.loads(out)
        assert (count_code, count_loaded) == (0, [])
        assert listing_code == 0 and {"gzip", "hashlib"} <= set(listing_loaded)

    def test_refused_check_loads_no_numpy(self):
        # check's size bounds, like rep's and ybe's dense budget, apply
        # before numpy loads
        seen = probe_imports(["check --n 9", "check --n 1", "check --n 1 --quick"])
        assert seen == [[3, False, False, False, False, []], [2, False, False, False, False, []], [2, False, False, False, False, []]]

    def test_every_export_resolves(self):
        star: dict = {}
        exec("from bubblealg import *", star)
        assert set(bubblealg.__all__) <= set(star)
        # a lazy export is the numeric module's own object
        for name in ("NumericParams", "gram_det_report", "ybe_sweep"):
            value = getattr(bubblealg, name)
            assert getattr(importlib.import_module(value.__module__), name) is value
        with pytest.raises(AttributeError):
            bubblealg.no_such_name


# Runs one request in a fresh interpreter and prints its exit code, whether
# os.environ came back unchanged, and the BLAS threads it ran with
THREAD_PROBE = """
import contextlib, io, json, os, sys
from blas import THREADS, first
from bubblealg.cli import main
before = dict(os.environ)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, dict(os.environ) == before, first(THREADS)]))
"""

# the benchmark's spectral requests, and the other sizes on each side of the cut-off
ONE_THREAD = [
    "rep --n 3 --qr 2+0.5j --qb 1.5-0.25j --check",
    "ybe --family bubble --sweep 20 --transfer 5 --seed 1",
    "ybe --family tl --sweep 20 --transfer 8 --seed 1",
    "rep --n 3 --qr 2 --qb 3 --matrices",
    "ybe --family bubble",
    "ybe --family bubble --transfer 5",
    "ybe --family tl --transfer 13",
    "check",
    "check --quick",
    "check --n 5",
    "check --n 8 --quick",
]
THREAD_POOL = [
    "ybe --family bubble --transfer 6",
    "ybe --family bubble --transfer 9",
    "ybe --family tl --transfer 14",
    "ybe --family tl --transfer 15",
    "ybe --family tl --transfer 21",
    "check --n 6",
    "check --n 7",
    "check --n 8",
]


class TestBlasThreads:
    @pytest.mark.parametrize("line", ONE_THREAD + THREAD_POOL)
    def test_policy(self, line, monkeypatch):
        # each request states its largest state as it enters dense_request,
        # and stops there before anything is built
        class Admitted(Exception):
            pass

        seen = []

        def recording(held, largest, what):
            seen.append(largest)
            raise Admitted

        monkeypatch.setattr(numeric, "dense_request", recording)
        with pytest.raises(Admitted):
            main(line.split())
        assert (seen[0] < numeric.ONE_BLAS_THREAD_BELOW) == (line in ONE_THREAD)

    @pytest.fixture
    def no_numpy_yet(self, monkeypatch):
        # what a fresh process sees: numpy not loaded and no thread setting
        monkeypatch.delitem(sys.modules, "numpy")
        for var in numeric.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)

    def test_one_thread_for_the_import_only(self, no_numpy_yet):
        before = dict(os.environ)
        with numeric.dense_request(0, 0, "test"):
            assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert dict(os.environ) == before

    def test_nothing_set_at_the_cut_off(self, no_numpy_yet):
        before = dict(os.environ)
        with numeric.dense_request(0, numeric.ONE_BLAS_THREAD_BELOW, "test"):
            assert dict(os.environ) == before

    @pytest.mark.parametrize("var", numeric.BLAS_THREAD_VARS)
    def test_a_user_setting_is_left_alone(self, no_numpy_yet, monkeypatch, var):
        monkeypatch.setenv(var, "2")
        before = dict(os.environ)
        with numeric.dense_request(0, 0, "test"):
            assert dict(os.environ) == before

    def test_nothing_set_once_numpy_is_loaded(self, monkeypatch, capsys):
        import numpy  # noqa: F401

        for var in numeric.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        before = dict(os.environ)
        with numeric.dense_request(0, 0, "test"):
            assert dict(os.environ) == before
        assert main(["ybe", "--family", "tl", "--sweep", "2"]) == 0
        assert dict(os.environ) == before

    def test_fresh_process_thread_counts(self):
        def run(code, *argv):
            out = subprocess.run(
                [sys.executable, "-c", code, *argv],
                env=probe_env(), capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            return json.loads(out)

        pool = run("import blas; print(blas.first(blas.THREADS))")
        if pool is None:
            pytest.skip("numpy bundles no OpenBLAS to ask")
        small = run(THREAD_PROBE, *"rep --n 2 --qr 2 --qb 3 --check".split())
        assert small == [0, True, 1]
        # at the cut-off the request runs on the pool numpy starts by itself
        large = run(THREAD_PROBE, *"ybe --family tl --sweep 1 --transfer 15".split())
        assert large == [0, True, pool]


# kernels whose sums differ from Prescott's on the commands below; on one
# x86-64 host Sandybridge's stdout matched Prescott's, so under it the
# comparison would pass without showing anything
KERNELS_UNLIKE_PRESCOTT = ("SkylakeX", "Haswell", "Zen")


class TestBlasKernel:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="residuals are printed in full, and each kernel sums the BLAS products under them in its own order",
    )
    @pytest.mark.parametrize(
        "line", ["ybe --family bubble --sweep 4 --seed 1", "ybe --family tl --sweep 4 --transfer 6 --seed 1"]
    )
    def test_stdout_does_not_depend_on_the_kernel(self, line):
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip("Prescott and the kernels compared are x86-64 OpenBLAS kernels; other machines name theirs differently")
        env = probe_env()
        env.pop("OPENBLAS_CORETYPE", None)

        def run(*argv, **extra):
            return subprocess.run(
                [sys.executable, *argv], env={**env, **extra},
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout

        core = json.loads(run("-c", "import blas, json; print(json.dumps(blas.first(blas.CORE)))"))
        if core not in KERNELS_UNLIKE_PRESCOTT:
            pytest.skip(f"the default kernel {core} is not one of {KERNELS_UNLIKE_PRESCOTT}, whose sums differ from Prescott's")
        command = ["-m", "bubblealg.cli", *line.split()]
        # Prescott needs only SSE3, so forcing it cannot crash an x86-64 CPU
        assert run(*command, OPENBLAS_CORETYPE="Prescott") == run(*command)


WRITER_STRINGS = [
    "",
    "plain",
    'quote " and backslash \\',
    "tab\tnewline\nreturn\r",
    "control \x00\x1f\x7f",
    "non-ASCII é ü ß",
    "astral \U0001f600 and  ",
    "1*dr^2*db^0 + -1*dr^0*db^0",
]


def writer_payload(rng: random.Random, depth: int = 0):
    """A random JSON value: nested, empty and tuple containers, escaped
    and non-ASCII strings, ints, bools, None and (non-)finite floats."""
    kind = rng.randrange(11 if depth < 4 else 6)
    if kind == 0:
        return rng.choice(WRITER_STRINGS) + "".join(rng.choice("ab\"\\\n\xe9\U0001f600") for _ in range(rng.randrange(30)))
    if kind == 1:
        return rng.choice([0, -1, 7, 2**70, -(2**64)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([0.0, -0.0, 1.5, 1e-300, -2.5e300, 0.1 + 0.2, float("nan"), float("inf"), float("-inf")])
    if kind == 5:
        return rng.choice([[], (), {}])
    if kind == 6:
        return [rng.choice(WRITER_STRINGS) for _ in range(rng.randrange(1, 12))]
    if kind == 7:
        return tuple(writer_payload(rng, depth + 1) for _ in range(rng.randrange(1, 5)))
    if kind == 8:
        return [writer_payload(rng, depth + 1) for _ in range(rng.randrange(1, 5))]
    return {rng.choice(WRITER_STRINGS) + str(k): writer_payload(rng, depth + 1) for k in range(rng.randrange(1, 5))}


class TestJsonWriter:
    @pytest.mark.parametrize("string_run", [cli.STRING_RUN, 2])
    def test_same_bytes_as_json_dumps(self, capsys, monkeypatch, string_run):
        monkeypatch.setattr(cli, "STRING_RUN", string_run)
        rng = random.Random(2718)
        for _ in range(300):
            payload = {"top": writer_payload(rng), "rest": writer_payload(rng)}
            cli._emit_json(payload)
            assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_pieced_string_is_written_as_json_dumps_would(self):
        pieces = ["", "plain", "", 'quote " and \\ back', "\n\t\x00\x1f\x7f", "\u00e9 \u2603 \U0001d11e", ""]
        pieces.append("x" * (2**20 + 3))
        value = {
            "a": cli.StringPieces(iter(pieces)),
            "b": [cli.StringPieces([]), cli.StringPieces([""]), 1],
            "c": cli.StringPieces(p for p in pieces[::-1]),
        }
        expect = {"a": "".join(pieces), "b": ["", "", 1], "c": "".join(pieces[::-1])}
        got = "".join(cli._json_chunks(value, ""))
        assert got == json.dumps(expect, sort_keys=True, indent=2)

    @pytest.mark.parametrize("string_run", [cli.STRING_RUN, 3, 1])
    def test_string_lists_with_and_without_escapes(self, monkeypatch, string_run):
        # a run of plain strings is joined as it is, any other run escaped
        monkeypatch.setattr(cli, "STRING_RUN", string_run)
        plain = ["", "plain", "1*dr^2*db^0 + -1*dr^0*db^0", " ~ ", "'single' quotes/slash"]
        awkward = ['a "quote"', "back\\slash", "nul \x00", "tab\t", "line\n", "del \x7f", "caf\u00e9", "\U0001f600"]
        value = {
            "plain": plain,
            "awkward": awkward,
            "mixed": [plain[: k % 5] + [x] + plain[k % 5 :] for k, x in enumerate(awkward)],
            "empties": ["", "", ""],
        }
        assert "".join(cli._json_chunks(value, "")) == json.dumps(value, sort_keys=True, indent=2)

    def test_plain_is_exactly_what_json_writes_as_it_is(self):
        # one character at a time against the definition, over Latin-1 and
        # a few wider code points, then strings of them
        chars = [chr(c) for c in range(0x100)] + ["e\u0301", "\u2028", "\U0001f600"]
        for ch in chars:
            assert cli._plain(ch) == (json.dumps(ch) == f'"{ch}"'), repr(ch)
        plain = "".join(ch for ch in chars if cli._plain(ch))
        assert len(plain) == 93 and cli._plain(plain) and cli._plain("")
        assert not any(cli._plain(plain + ch) for ch in chars if not cli._plain(ch))

    def test_unserialisable_values_are_refused(self):
        with pytest.raises(TypeError):
            list(cli._json_chunks({"x": {1, 2}}, ""))
        with pytest.raises(TypeError):
            list(cli._json_chunks({1: "x"}, ""))

    def test_long_string_is_written_as_json_dumps_would(self, capsys):
        # one str over 1 MiB, escapes spread through it, goes out in one chunk
        unit = 'q"b\\c\x00\x1f\n\x7f\u00e9\u2603\U0001d11e.'
        value = {"long": unit * (2**20 // len(unit) + 1)}
        assert len(value["long"]) > 2**20
        cli._emit_json(value)
        assert capsys.readouterr().out == json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # the basis --n 5 --diagrams golden of TestBasisCommand
            (
                "basis --n 5 --diagrams",
                "351766bad8d39f6ace606fe61a41c191a7106109bc1ce60944cafd980d247916",
            ),
            # the n6_i1_j1 golden of TestGramCommand
            (
                "gram --n 6 --i 1 --j 1 --det --blocks --roots b",
                "626097c3f6e34dc6abf10387f518805404a9fd21016dc1f7d2ba688938e079a7",
            ),
        ],
        ids=["basis_5_diagrams", "gram_n6_i1_j1"],
    )
    def test_output_streams_to_stdout_in_chunks(self, monkeypatch, argv, digest):
        # the writer holds no batch of its own: each chunk goes to stdout as
        # it is made, and a string list arrives at most STRING_RUN items at a time
        writes = []

        class Sink:
            def write(self, text):
                writes.append(text)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        monkeypatch.setattr(cli, "STRING_RUN", 64)
        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(argv.split()) == 0
        out = "".join(writes)
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
        assert len(writes) >= 10
        assert all(w.count('"D[') + w.count('"H[') <= 64 for w in writes)
        if "--det" in argv:
            # the determinant's pieces arrive between its key and its closing quote
            start = next(k for k, w in enumerate(writes) if w.endswith('"det": ')) + 2
            end = writes.index('"', start)
            assert end - start > 1


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.mark.skipif(not WORKLOADS.exists(), reason="perfbench/workloads.py is absent")
def test_every_benchmark_request_parses(monkeypatch, tmp_path):
    # a flag or subcommand the benchmark still sends but the parser no
    # longer takes would make every timed request exit 2
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    requests = [r for w in workloads.WORKLOADS for plan in [workloads.plan(w, 1)] for r in plan.setup + plan.requests]
    requests += [*workloads.all_gram_requests(), *workloads.SHORT.values()]
    assert {r.args[0] for r in requests} == {"basis", "dims", "gram", "rep", "ybe"}
    parser = cli.build_parser()
    for request in requests:
        assert callable(parser.parse_args(request.argv(tmp_path)).func), request.key


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.skipif(not README.exists(), reason="README.md is absent")
def test_every_readme_example_parses():
    # the CLI section's code block is what a reader copies first
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("bubble ")]
    assert len(lines) == 6
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert callable(parser.parse_args(argv).func), line
