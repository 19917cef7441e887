"""``processes`` ranks run BLAS single-threaded; in-process ranks do not.

A rank process is one core's worth of work, so its OpenBLAS thread pool
only oversubscribes the cores.  The ``threads`` backend runs its ranks
inside the caller's process and must leave the caller's BLAS alone.
"""

import pytest

from repro.parcomp import run_spmd
from repro.parcomp.blas import WORKER_BLAS_THREADS, blas_threads

pytestmark = pytest.mark.skipif(
    blas_threads() is None, reason="no OpenBLAS loaded in this process"
)


def _rank_blas(comm):
    return blas_threads()


def test_processes_ranks_run_one_blas_thread():
    res = run_spmd(2, _rank_blas, backend="processes")
    assert res.results == [WORKER_BLAS_THREADS] * 2 == [1, 1]


def test_processes_run_leaves_the_parent_alone():
    before = blas_threads()
    run_spmd(2, _rank_blas, backend="processes")
    assert blas_threads() == before


def test_threads_ranks_keep_the_callers_count():
    before = blas_threads()
    assert run_spmd(2, _rank_blas, backend="threads").results == [before] * 2
    assert blas_threads() == before


