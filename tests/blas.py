"""The kernel and thread count of the OpenBLAS bundled with numpy, asked
through ctypes.

``python3 tests/blas.py`` prints one ``NAME: core KERNEL, N threads`` line
per library in ``numpy.libs``, or a note when there is none, so a float
golden that fails can be traced to the kernel that summed it.  numpy is
imported only when a function is called, since a ``bubble`` request
fixes its BLAS threads as numpy loads.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

# each question: the symbols that answer it, newest naming first, and its type
CORE = (("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"), ctypes.c_char_p)
THREADS = (("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int)


def libraries() -> list[Path]:
    import numpy

    return sorted((Path(numpy.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))


def ask(lib: Path, question) -> str | int | None:
    """The answer of the first of the question's symbols ``lib`` exports, or None."""
    symbols, restype = question
    handle = ctypes.CDLL(str(lib))
    for symbol in symbols:
        getter = getattr(handle, symbol, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], restype
            answer = getter()
            return answer.decode() if isinstance(answer, bytes) else answer
    return None


def first(question) -> str | int | None:
    """The first library's answer, or None when numpy bundles none that answers."""
    return next((a for a in (ask(lib, question) for lib in libraries()) if a is not None), None)


if __name__ == "__main__":
    import numpy

    libs = libraries()
    for lib in libs:
        print(f"{lib.name}: core {ask(lib, CORE)}, {ask(lib, THREADS)} threads")
    if not libs:
        print(f"note: numpy {numpy.__version__} bundles no OpenBLAS in numpy.libs; kernel unknown")
