"""The benchmark's workloads: inputs from a seed, one alignment job each.

Every input is a rose family (relatedness 800, the paper's timing
setting) with its reference alignment tracked, so each job's output can
be scored.  A :class:`Runner` owns everything a workload keeps alive
between jobs (the worker pool of ``sad-pool``, the per-job tile-store
directories of ``clustalw-fulldp``) and runs one job per :meth:`run`
call through the public engine API.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from host import pids_cpu_s, process_cpu_s

from repro.core.config import SampleAlignDConfig
from repro.datagen.rose import SequenceFamily, generate_family
from repro.distance.tilestore import TileStore, condensed_size
from repro.engine import get_engine
from repro.engine.api import AlignRequest, AlignResult

#: Relatedness of every generated family (pairwise PAM distance).
RELATEDNESS = 800.0

#: Worker processes any workload may use.
MAX_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    engine: str
    n: int
    length: int
    n_procs: int = 1
    engine_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: ``SampleAlignDConfig(backend=...)`` for the distributed engine.
    backend: Optional[str] = None
    #: Give every job a fresh tile-store directory and check that the
    #: job computed and consolidated every pair into it.
    fresh_store: bool = False
    #: Families generated per seed; jobs cycle through them, so a run's
    #: medians average over inputs as well as over repeats.
    families: int = 16


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sad-pool",
            why=(
                "the paper's Sample-Align-D pipeline on 2 pool workers; the "
                "only workload that runs k-mer rank, sample sort, the SPMD "
                "collectives and the bucket aligner in worker processes"
            ),
            engine="sample-align-d",
            n=96,
            length=200,
            n_procs=2,
            backend="pool",
        ),
        Workload(
            name="muscle-serial",
            why=(
                "the sequential MUSCLE the paper compares against; per-pair "
                "profile DP in refinement dominates, with no comm, pool or "
                "k-mer rank"
            ),
            engine="muscle",
            n=64,
            length=120,
        ),
        Workload(
            name="clustalw-fulldp",
            why=(
                "CLUSTALW full-DP distances on the processes backend into a "
                "fresh memmap tile store per job; the distance layer "
                "computes, writes and consolidates every pair"
            ),
            engine="clustalw-full",
            n=96,
            length=120,
            engine_kwargs={
                "distance_backend": "processes",
                "distance_workers": MAX_WORKERS,
                "distance_out": "memmap",
            },
            fresh_store=True,
        ),
    )
}


def make_inputs(workload: Workload, seed: int) -> List[SequenceFamily]:
    """The workload's families for ``seed`` (same seed, same inputs)."""
    return [
        generate_family(
            workload.n,
            workload.length,
            RELATEDNESS,
            seed=seed * 1009 + i,
            track_alignment=True,
        )
        for i in range(workload.families)
    ]


def start_pool():
    """A 2-worker pool installed as the process default, warmed up.

    ``min_workers`` equals ``max_workers`` so the idle shrink never
    stops a worker between jobs.
    """
    from repro.pool import WorkerPool
    from repro.pool.backend import set_default_pool

    pool = WorkerPool(max_workers=MAX_WORKERS, min_workers=MAX_WORKERS)
    set_default_pool(pool)
    pool.warm_up()
    return pool


class StoreCheckError(AssertionError):
    """A ``clustalw-fulldp`` job did not write its whole tile store."""


class Runner:
    """Runs the jobs of one workload; owns the pool and store dirs."""

    def __init__(self, workload: Workload, scratch: Path) -> None:
        self.workload = workload
        self.scratch = scratch
        self.pool = start_pool() if workload.backend == "pool" else None
        self._jobs = 0
        # Built here so that set-up covers it; fresh-store jobs rebuild
        # it per job with their own store directory.
        self.engine = get_engine(workload.engine, **workload.engine_kwargs)

    def request(self, family: SequenceFamily) -> AlignRequest:
        w = self.workload
        config = None
        if w.backend is not None:
            config = SampleAlignDConfig(backend=w.backend)
        return AlignRequest(
            tuple(family.sequences),
            engine=w.engine,
            n_procs=w.n_procs,
            config=config,
        )

    def run(self, request: AlignRequest) -> Tuple[AlignResult, float, Dict[str, float]]:
        """One job: its result, wall seconds and CPU seconds.

        CPU is split into this process plus its reaped children
        (``proc``) and the live pool workers (``workers``).
        """
        self._jobs += 1
        engine = self.engine
        store = None
        if self.workload.fresh_store:
            store = self.scratch / f"store-{self._jobs}"
            if store.exists():
                raise StoreCheckError(f"store {store} exists before its job")
            engine = get_engine(
                self.workload.engine,
                distance_store_dir=str(store),
                **self.workload.engine_kwargs,
            )
        pids = self.pool.stats()["worker_pids"] if self.pool else []
        try:
            cpu0, wcpu0 = process_cpu_s(), pids_cpu_s(pids)
            t0 = time.perf_counter()
            result = engine.run(request)
            wall = time.perf_counter() - t0
            cpu = {
                "proc": process_cpu_s() - cpu0,
                "workers": pids_cpu_s(pids) - wcpu0,
            }
            if store is not None:
                check_store(store, len(request.sequences))
        finally:
            if store is not None:
                shutil.rmtree(store, ignore_errors=True)
        return result, wall, cpu

    def close(self) -> None:
        if self.pool is not None:
            from repro.pool.backend import set_default_pool

            set_default_pool(None)
            self.pool.close()
            self.pool = None


def check_store(root: Path, n: int) -> None:
    """The store of a job that started empty holds all n(n-1)/2 pairs.

    The directory did not exist before the job, so a complete,
    consolidated store of the right size can only have been written by
    this job -- never short-circuited from an earlier one.
    """
    store = TileStore(root)
    header = store.read_header()
    want = condensed_size(n)
    if header is None or int(header.get("n_pairs", -1)) != want:
        raise StoreCheckError(f"store header does not cover {want} pairs")
    stats = store.stats()
    if not stats["complete"] or stats["condensed_bytes"] != want * 8:
        raise StoreCheckError(
            f"store not consolidated over {want} pairs: {stats}"
        )
