"""Host facts, host speed and process accounting (CPU seconds, peak RSS).

The benchmark sets no BLAS thread variable: numpy's BLAS starts the
thread count it chooses in every process, and that oversubscription is
part of what the CPU metrics are there to show.

Shared hosts change speed by tens of percent for minutes at a time
(a neighbour on a sibling core), which no run length averages away.
:func:`reference_kernel_s` measures the current speed with a fixed
kernel that owes nothing to the program; timings are scaled by
``REFERENCE_KERNEL_S / reference_kernel_s()`` to seconds at the
reference speed.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: About what :func:`reference_kernel_s` reads on the host the bounds
#: were set on (2-vCPU x86-64 VM, Python 3.11, numpy 2.4 with its
#: bundled OpenBLAS), so scaled times read as seconds there.
REFERENCE_KERNEL_S = 0.002


def reference_kernel_s() -> float:
    """Seconds a fixed kernel takes on this host right now.

    The geometric mean of an interpreter-bound loop and a BLAS-bound
    matrix product, each the best of three, so that slowdowns of
    either kind count.  About 15 ms.
    """
    a = np.random.default_rng(0).random((160, 160))
    best_py = best_blas = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i
        t1 = time.perf_counter()
        for _ in range(5):
            np.exp((a @ a) * 1e-6).sum()
        t2 = time.perf_counter()
        best_py = min(best_py, t1 - t0)
        best_blas = min(best_blas, t2 - t1)
    return math.sqrt(best_py * best_blas)


def process_cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def pid_cpu_s(pid: int) -> float:
    """CPU seconds (user + system) of a live process, from /proc."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    # Fields after "comm)": state is index 0, utime 11, stime 12.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def pids_cpu_s(pids: Iterable[int]) -> float:
    return sum(pid_cpu_s(p) for p in pids)


def pid_peak_rss_kib(pid: int) -> int:
    """VmHWM (peak resident set) of a live process, in KiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def peak_rss_mib(worker_pids: Iterable[int] = ()) -> Dict[str, float]:
    """Peak RSS in MiB of this process, its largest reaped child and
    each given live worker."""
    kib = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    for pid in worker_pids:
        kib[f"worker-{pid}"] = pid_peak_rss_kib(pid)
    return {k: v / 1024.0 for k, v in kib.items()}


def _blas_info() -> Dict[str, Any]:
    config = getattr(np, "__config__", None)
    deps = getattr(config, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _openblas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS loaded into this process, if any.

    Found through /proc/self/maps (numpy wheels bundle their own copy
    under a mangled name), then asked through its C API.
    """
    libs = set()
    try:
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha(root: Path) -> str:
    """HEAD's commit of the checkout at ``root``, or ``"unknown"``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(root: Path) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": _blas_info(),
        "blas_threads": _openblas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in (
                "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS",
                "MKL_NUM_THREADS",
            )
            if k in os.environ
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(root),
    }
