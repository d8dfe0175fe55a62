"""Print, as one JSON line, the environment ``bubble`` requests run in.

Run with the same interpreter and environment as the requests: library
versions, CPU count and the BLAS thread count in effect after
``bubblealg.cli`` is imported.
"""

import ctypes
import json
import os
import platform
from pathlib import Path

import bubblealg.cli  # noqa: F401  (loads numpy, scipy and the BLAS library as a request does)
import numpy
import scipy


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, or None if it is not found."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                return int(getter())
    return None


print(
    json.dumps(
        {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": blas_threads(),
            "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        }
    )
)
