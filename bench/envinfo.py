"""The environment block recorded with every result: what sets the speed."""

from __future__ import annotations

import ctypes
import os
import platform
import resource

#: environment variables that change tubenet's threading, recorded as found
#: (OpenBLAS falls back to OMP_NUM_THREADS)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: thread-count getters exported by the OpenBLAS builds numpy and scipy ship
BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        return []
    return sorted(paths)


def blas_threads() -> dict:
    """Effective thread count of each loaded OpenBLAS, read from the library."""
    found = {}
    for path in loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in BLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is None:
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            found[os.path.basename(path)] = {"getter": name, "threads": int(getter())}
            break
    return found


def highs_version() -> str:
    from scipy.optimize._highspy import _core

    return "{}.{}.{}".format(_core.HIGHS_VERSION_MAJOR, _core.HIGHS_VERSION_MINOR,
                             _core.HIGHS_VERSION_PATCH)


def environment() -> dict:
    import numpy
    import scipy

    try:
        import threadpoolctl  # noqa: F401 - only its presence matters here
        has_threadpoolctl = True
    except ImportError:
        has_threadpoolctl = False
    return {
        "cores_visible": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "threadpoolctl": has_threadpoolctl,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs_version(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("TUBENET_") or k in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
