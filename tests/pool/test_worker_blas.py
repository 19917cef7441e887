"""Pool workers run BLAS single-threaded; the parent keeps its own count.

Every worker is one core's worth of work, so an OpenBLAS thread pool
inside each of them only oversubscribes the cores.  These tests pin the
contract: pool workers (fresh or respawned after a SIGKILL) report one
BLAS thread, both from inside the worker and through ``stats()``, and
the parent process's count never moves.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.parcomp.blas import WORKER_BLAS_THREADS, blas_threads
from repro.pool import WorkerPool
from repro.pool.shm import shm_dir_segments

pytestmark = pytest.mark.skipif(
    blas_threads() is None, reason="no OpenBLAS loaded in this process"
)

BLAS_PY = Path(__file__).resolve().parents[2] / "src/repro/parcomp/blas.py"


def _worker_blas(_item):
    return blas_threads()


@pytest.fixture()
def pool2():
    p = WorkerPool(max_workers=2, min_workers=2)
    try:
        yield p
    finally:
        p.close()
        assert shm_dir_segments(p.name) == []


def _wait_until(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


class TestWorkerPin:
    def test_workers_run_one_blas_thread(self, pool2):
        assert WORKER_BLAS_THREADS == 1
        assert pool2.map_tasks(_worker_blas, [0, 1]) == [1, 1]

    def test_stats_report_the_pin_after_warm_up(self, pool2):
        pool2.warm_up()
        stats = pool2.stats()
        assert stats["worker_blas_threads"] == [1, 1]
        assert len(stats["worker_pids"]) == 2

    def test_respawned_slot_is_pinned_too(self, pool2):
        pool2.warm_up()
        victim = pool2.stats()["worker_pids"][0]
        before = pool2.stats()["respawns"]
        os.kill(victim, signal.SIGKILL)
        assert _wait_until(lambda: pool2.stats()["respawns"] > before)
        assert victim not in pool2.stats()["worker_pids"]
        # The count rides the replacement's "ready" message.
        assert _wait_until(
            lambda: pool2.stats()["worker_blas_threads"] == [1, 1]
        )
        assert pool2.map_tasks(_worker_blas, [0, 1]) == [1, 1]


def test_parent_count_unchanged_by_import_and_pool_run():
    """Measured in a fresh interpreter: before ``import repro``, after
    it, after pool start-up and after a pool run."""
    probe = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("blas_probe", {str(BLAS_PY)!r})
blas = importlib.util.module_from_spec(spec)
spec.loader.exec_module(blas)
counts = [blas.blas_threads()]
import repro
from repro.pool import WorkerPool
counts.append(blas.blas_threads())
with WorkerPool(max_workers=2) as pool:
    pool.warm_up()
    counts.append(blas.blas_threads())
    pool.map_tasks(abs, [-1, -2])
    counts.append(blas.blas_threads())
print(json.dumps(counts))
"""
    env = dict(os.environ, PYTHONPATH=str(BLAS_PY.parents[2]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        stdout=subprocess.PIPE, text=True, timeout=120,
    ).stdout
    counts = json.loads(out.strip().splitlines()[-1])
    assert counts[0] is not None
    assert counts == [counts[0]] * 4

