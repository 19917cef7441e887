"""Pin the BLAS thread pool of a worker process.

numpy's bundled OpenBLAS starts one BLAS thread per core in every
process, forked workers included, so ``p`` worker processes on ``p``
cores run ``p * cores`` BLAS threads that spin and contend over the
small profile-profile gemms of the DP kernels.  Each worker is already
one core's worth of work, so worker entry points call
:func:`pin_worker_blas` to run BLAS on one thread.

Rounding: OpenBLAS may round a large product differently on one thread
than on several, so a worker's products can differ in the last bit from
the same product in the caller.  Alignments on every backend still
match byte for byte in the equivalence suites, but that is observed,
not guaranteed by construction.

The library is found through ``/proc/self/maps`` (numpy wheels bundle it
under a mangled name) and driven through its C API.  Without OpenBLAS
(MKL, Accelerate, or a non-Linux host) every function returns ``None``
and changes nothing.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache
from typing import Any, Optional, Tuple

import numpy as np  # noqa: F401 - loads the BLAS this module looks for

__all__ = ["WORKER_BLAS_THREADS", "blas_threads", "pin_worker_blas"]

#: BLAS threads per worker process.
WORKER_BLAS_THREADS = 1

_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "_64_", "")


@lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[Any, Any, Any]]:
    """``(get_num_threads, set_num_threads, thread_shutdown)`` of the
    loaded OpenBLAS; ``thread_shutdown`` may be ``None``."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({
                line.split()[-1] for line in maps
                if "openblas" in line.lower() and ".so" in line
            })
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    stop = getattr(lib, "blas_thread_shutdown_", None)
                    if stop is not None:
                        stop.argtypes, stop.restype = [], ctypes.c_int
                    return get, put, stop
    return None


def blas_threads() -> Optional[int]:
    """This process's OpenBLAS thread count, or ``None`` without OpenBLAS."""
    api = _openblas()
    return None if api is None else int(api[0]())


def pin_worker_blas() -> Optional[int]:
    """Run this (worker) process's BLAS on :data:`WORKER_BLAS_THREADS`
    threads; returns the resulting count, ``None`` without OpenBLAS."""
    api = _openblas()
    if api is None:
        return None
    get, put, stop = api
    put(WORKER_BLAS_THREADS)
    if stop is not None:
        # Setting the count starts OpenBLAS's thread server, whose idle
        # threads spin for ~0.1 s of CPU.  One thread needs no server;
        # stopping it is what OpenBLAS itself does before a fork.
        stop()
    return int(get())
