"""Gzip-backed on-disk cache for enumerated diagram bases.

File layout: a gzip text stream (written at compression level 6, with
no file name and time 0 in its header) whose
first line is a JSON header ``{"count", "hash", "n", "version"}``
followed by one canonical diagram encoding per line.  The hash is the
sha256 digest of the concatenated encodings.  A save hashes and then
writes the lines ``RUN`` at a time, so it never holds a second copy of
the text; the header with the hash comes first, so the lines are gone
over twice.

A file must hold exactly B_n in its canonical order.  The header is
read as one ASCII line of at most ``HEADER_LIMIT`` bytes, so a file
cannot make a load hold more than that before it is refused.  It must
name this version, the requested n and |B_n| = walk_count(2n, 0, 0)
lines; that is checked before the walk runs.  The body is then compared
with ``basis_encodings(n)``, the text the walk writes by joining each
north bra to each south bra of its label, as bytes ``RUN`` lines at a
time, and the header hash with the digest of that text, hashed in the
same runs.  A file that passes is byte for byte what a miss writes, so
a hit returns the walk's own list and never decodes a line.  Loads are
strict: a file that fails any check, or whose gzip stream is damaged,
raises CacheError rather than silently re-enumerating, since a corrupt
cache usually means something else went wrong.  A save that cannot make
the directory or write the file raises CacheError too.

This module only reads and writes files; ``cli.cmd_basis`` decides
when, and only a listing reads one, since |B_n| is walk_count(2n, 0, 0)
in closed form.  gzip, hashlib and zlib are imported by the functions
that read or write, so a count that finds its file loads none of them.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Iterator
from pathlib import Path

from .basis import DEFAULT_MAX_N, _check_size, basis_encodings, walk_count

CACHE_VERSION = 1
# level 9 spends most of a write in deflate for a file about 12% smaller
COMPRESS_LEVEL = 6
# lines hashed, written or compared at a time, so no copy of the whole
# text is made
RUN = 1024
# bytes the header line may take, newline included; a header is about
# 110 bytes
HEADER_LIMIT = 4096


class CacheError(RuntimeError):
    """A cache file is unreadable or inconsistent with its header."""


def cache_path(cache_dir: str | Path, n: int) -> Path:
    return Path(cache_dir) / f"basis_n{n}.txt.gz"


def _hashed_runs(encodings: list[str], digest) -> Iterator[list[str]]:
    """The encodings ``RUN`` at a time, each run's concatenated text fed
    to ``digest`` before the run is yielded."""
    for start in range(0, len(encodings), RUN):
        run = encodings[start : start + RUN]
        digest.update("".join(run).encode("ascii"))
        yield run


def basis_digest(encodings: list[str]) -> str:
    """sha256 of the concatenated encodings, hashed ``RUN`` lines at a time."""
    import hashlib

    digest = hashlib.sha256()
    for _ in _hashed_runs(encodings, digest):
        pass
    return digest.hexdigest()


def save_basis(path: str | Path, n: int, encodings: list[str]) -> list[str]:
    """Write a basis given as its encodings, one line each, and return the
    same list; the parent directory is created if needed.

    The data goes to a temporary file beside ``path`` that is then renamed
    over it, so an interrupted write leaves no partial file behind.  The
    gzip header holds no file name and time 0, so one basis always gives
    the same bytes.  A directory that cannot be made, or a file that cannot
    be written, is a CacheError."""
    import gzip

    path = Path(path)
    header = {
        "count": len(encodings),
        "hash": basis_digest(encodings),
        "n": n,
        "version": CACHE_VERSION,
    }
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb") as raw:
                gz = gzip.GzipFile(filename="", mode="wb", compresslevel=COMPRESS_LEVEL, fileobj=raw, mtime=0)
                with io.TextIOWrapper(gz, encoding="ascii") as fh:
                    fh.write(json.dumps(header, sort_keys=True) + "\n")
                    for start in range(0, len(encodings), RUN):
                        fh.write("\n".join(encodings[start : start + RUN]) + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise CacheError(f"cannot write cache file {path}: {exc}") from exc
    return encodings


def load_basis(path: str | Path, n: int, max_n: int = DEFAULT_MAX_N) -> list[str]:
    """Read B_n back and return ``basis_encodings(n)`` once the file is
    shown to hold exactly that text.

    The header's version, n and count are checked before the walk runs;
    then the body is compared with the walk's text ``RUN`` lines at a time,
    as bytes, and the header hash with the digest of the walk's text.  A
    damaged gzip stream is a CacheError like any other bad file."""
    import gzip
    import hashlib
    import zlib

    _check_size(n, max_n)
    path = Path(path)
    try:
        with gzip.open(path, "rb") as fh:
            line = fh.readline(HEADER_LIMIT)
            if not line.endswith(b"\n"):
                raise CacheError(f"cannot read cache file {path}: no header line in its first {HEADER_LIMIT} bytes")
            header = json.loads(line.decode("ascii"))
            if not isinstance(header, dict) or header.get("version") != CACHE_VERSION:
                raise CacheError(f"unsupported cache version in {path}")
            if header.get("n") != n:
                raise CacheError(f"cache {path} holds the size-{header.get('n')} basis, not size {n}")
            if header.get("count") != walk_count(2 * n, 0, 0):
                raise CacheError(f"cache {path} counts {header.get('count')} diagrams, not |B_{n}|")
            encodings = basis_encodings(n, max_n=max_n)
            digest = hashlib.sha256()
            for run in _hashed_runs(encodings, digest):
                want = ("\n".join(run) + "\n").encode("ascii")
                if fh.read(len(want)) != want:
                    raise CacheError(f"cache {path} is not B_{n} in canonical order")
            if fh.read(1):
                raise CacheError(f"cache {path} holds lines after B_{n}")
    except (OSError, EOFError, zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    if header.get("hash") != digest.hexdigest():
        raise CacheError(f"cache {path} fails its content digest")
    return encodings

