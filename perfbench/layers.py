"""Per-layer measurement: probes around each layer's public entry points.

:func:`install` wraps the public functions and methods listed in
:data:`PROBES` with ``repro.obs.span(...)``.  A wrapper records a span
only while tracing is on, and never one inside another span of its own
group (a collective built from other collectives counts once).  It is
rebound in every loaded ``repro`` module that holds the original, so
callers that imported the name see it too.  Install before the worker
pool forks: the pool's workers and the ``processes`` backend's ranks
inherit the wrappers, and their spans come back through the program's
own trace propagation.

:func:`job_metrics` turns the spans of one traced job into the
per-layer metrics of :data:`METRICS`; :func:`layer_table` gives busy
time, self time and the slowest process for every span name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.tracing import SpanRecord, span, tracing_enabled


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: The end-to-end metric and workload this layer metric should move.
    moves: str


_SAD = "align_s on sad-pool"
METRICS: Tuple[Metric, ...] = (
    Metric("kmer.rank_s", "s", "lower", _SAD + "; absent elsewhere"),
    Metric("kmer.rank_calls", "count", "lower", _SAD + "; absent elsewhere"),
    Metric("samplesort.partition_s", "s", "lower", _SAD),
    Metric("samplesort.bucket_imbalance", "ratio", "lower",
           _SAD + " (the slowest bucket sets wall time)"),
    Metric("parcomp.collective_s", "s", "lower",
           _SAD + " and clustalw-fulldp"),
    Metric("parcomp.comm_bytes", "bytes", "lower",
           _SAD + " and clustalw-fulldp"),
    Metric("parcomp.messages", "count", "lower",
           _SAD + " and clustalw-fulldp"),
    Metric("parcomp.modeled_s", "s", "lower",
           _SAD + " and clustalw-fulldp"),
    Metric("parcomp.dispatch_s", "s", "lower",
           _SAD + " and clustalw-fulldp"),
    Metric("pool.tasks", "count", "lower", "align_s and failed jobs on sad-pool"),
    Metric("pool.respawns", "count", "lower",
           "align_s and failed jobs on sad-pool"),
    Metric("pool.fallback_runs", "count", "lower",
           "align_s and failed jobs on sad-pool"),
    Metric("pool.shm_bytes", "bytes", "lower", _SAD),
    Metric("pool.pickle_bytes", "bytes", "lower", _SAD),
    Metric("pool.worker_cpu_s", "s", "lower", _SAD),
    Metric("pool.cpu_per_wall", "ratio", "lower",
           _SAD + " (BLAS threads oversubscribing the cores)"),
    Metric("proc.cpu_s", "s", "lower", "align_s on all three workloads"),
    Metric("proc.cpu_per_wall", "ratio", "lower",
           "align_s on all three workloads (BLAS threads oversubscribing)"),
    Metric("proc.peak_rss_mib", "MiB", "lower",
           "memory on all three workloads (highest peak RSS of the main "
           "process, its reaped children and the pool workers)"),
    Metric("msa.bucket_align_s", "s", "lower", _SAD),
    Metric("msa.bucket_align_max_s", "s", "lower", _SAD),
    Metric("core.ancestor_s", "s", "lower", _SAD),
    Metric("core.tweak_s", "s", "lower", _SAD),
    Metric("core.glue_s", "s", "lower", _SAD),
    Metric("distance.all_pairs_s", "s", "lower",
           "align_s on clustalw-fulldp; small on muscle-serial"),
    Metric("distance.pairs", "count", "lower",
           "align_s on clustalw-fulldp; small on muscle-serial"),
    Metric("distance.pairs_per_s", "1/s", "higher",
           "align_s on clustalw-fulldp; small on muscle-serial"),
    Metric("distance.identity_s", "s", "lower", "align_s on muscle-serial"),
    Metric("distance.tiles_written", "count", "lower",
           "align_s on clustalw-fulldp"),
    Metric("distance.consolidate_s", "s", "lower",
           "align_s on clustalw-fulldp"),
    Metric("tree.build_s", "s", "lower", _SAD + " and muscle-serial"),
    Metric("tree.builds", "count", "lower", _SAD + " and muscle-serial"),
    Metric("tree.merge_s", "s", "lower",
           _SAD + " (level-batched merges dominate a bucket)"),
    Metric("tree.merges", "count", "lower", _SAD + " and muscle-serial"),
    Metric("align.pair_calls", "count", "lower",
           "align_s on muscle-serial; near zero on sad-pool"),
    Metric("align.pair_s", "s", "lower",
           "align_s on muscle-serial; near zero on sad-pool"),
    Metric("align.refine_s", "s", "lower", "align_s on muscle-serial"),
    Metric("align.batch_calls", "count", "lower",
           _SAD + " (batched) and muscle-serial"),
    Metric("align.batch_pairs", "count", "lower",
           _SAD + " (batched) and muscle-serial"),
    Metric("align.batch_width", "pairs", "higher",
           _SAD + " (batched) and muscle-serial"),
    Metric("align.batch_s", "s", "lower",
           _SAD + " (batched) and muscle-serial"),
    Metric("align.dp_cells", "count", "lower",
           _SAD + " (batched) and muscle-serial (per pair)"),
    Metric("align.dp_cells_per_s", "1/s", "higher",
           _SAD + " (batched) and muscle-serial (per pair)"),
    Metric("engine.overhead_s", "s", "lower", "align_s on all three workloads"),
    Metric("trace.overhead_frac", "ratio", "lower",
           "none (checks the trace itself)"),
    Metric("trace.unattributed_s", "s", "lower",
           "none (checks the trace itself)"),
)
UNITS = {m.name: m.unit for m in METRICS}


# ---------------------------------------------------------------------------
# Probes.


def _n_pairs(a: Dict[str, Any]) -> Dict[str, Any]:
    n = len(a["seqs"])
    return {"pairs": n * (n - 1) // 2}


def _tile_pairs(a: Dict[str, Any]) -> Dict[str, Any]:
    return {"pairs": int(getattr(a["values"], "size", len(a["values"])))}


def _pair_cells(a: Dict[str, Any]) -> Dict[str, Any]:
    return {"pairs": 1, "cells": a["px"].n_columns * a["py"].n_columns}


def _batch_cells(a: Dict[str, Any]) -> Dict[str, Any]:
    pairs = list(a["pairs"])
    return {
        "pairs": len(pairs),
        "cells": sum(px.n_columns * py.n_columns for px, py in pairs),
    }


def _ledger(spmd: Any) -> Dict[str, Any]:
    ledger = spmd.ledger
    return {
        "comm_bytes": int(ledger.total_bytes()),
        "messages": int(ledger.n_messages()),
        "modeled_s": float(spmd.modeled_time()),
    }


@dataclass(frozen=True)
class Probe:
    span: str
    module: str
    #: ``"function"`` or ``"Class.method"`` (subclass overrides too).
    attr: str
    #: Re-entrancy group; defaults to the span name.
    guard: str = ""
    #: Span attributes from the bound arguments.
    args: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None
    #: Span attributes from the return value.
    result: Optional[Callable[[Any], Dict[str, Any]]] = None


def _probes() -> List[Probe]:
    out = [
        Probe("bench.engine.run", "repro.engine.engines",
              "SequentialEngine.run"),
        Probe("bench.engine.run", "repro.engine.engines",
              "SampleAlignDEngine.run"),
        Probe("bench.engine.pipeline", "repro.core.driver", "sample_align_d"),
        Probe("bench.parcomp.dispatch", "repro.obs.propagate", "run_traced",
              result=_ledger),
        Probe("bench.msa.align", "repro.msa.base",
              "SequentialMsaAligner.align"),
        Probe("bench.core.tweak", "repro.core.tweak",
              "tweak_against_ancestor"),
        Probe("bench.core.glue", "repro.core.glue", "glue_blocks"),
        Probe("bench.distance.all_pairs", "repro.distance.allpairs",
              "all_pairs", args=_n_pairs),
        Probe("bench.distance.identity", "repro.distance.transforms",
              "alignment_identity_matrix"),
        Probe("bench.distance.write_tile", "repro.distance.tilestore",
              "TileStore.write_tile", args=_tile_pairs),
        Probe("bench.distance.consolidate", "repro.distance.tilestore",
              "TileStore.consolidate"),
        Probe("bench.tree.build", "repro.tree.builders", "TreeBuilder.build"),
        Probe("bench.tree.merge", "repro.align.progressive",
              "progressive_align"),
        Probe("bench.align.pair", "repro.align.profile_align",
              "align_profiles", guard="dp", args=_pair_cells),
        Probe("bench.align.batch", "repro.align.profile_align",
              "align_profiles_batch", guard="dp", args=_batch_cells),
        Probe("bench.align.refine", "repro.align.refine", "refine_alignment"),
    ]
    out += [
        Probe("bench.kmer.rank", "repro.kmer.rank", fn)
        for fn in ("centralized_rank", "globalized_rank")
    ]
    out += [
        Probe("bench.samplesort.partition",
              "repro.samplesort.regular_sampling", fn)
        for fn in ("regular_sample", "choose_pivots", "bucket_assignments")
    ]
    out += [
        Probe("bench.parcomp.collective", "repro.parcomp.comm",
              f"VirtualComm.{op}")
        for op in ("allgather", "gather", "bcast", "alltoall", "reduce")
    ]
    out += [
        Probe("bench.core.ancestor", "repro.core.ancestor", fn)
        for fn in ("local_ancestor", "global_ancestor", "merge_ancestors")
    ]
    return out


PROBES: Tuple[Probe, ...] = tuple(_probes())

#: Spans that frame a job rather than measure a layer.
FRAME_SPANS = frozenset(
    {"bench.engine.run", "bench.engine.pipeline", "bench.parcomp.dispatch"}
)

_held = threading.local()


def _guards() -> set:
    guards = getattr(_held, "guards", None)
    if guards is None:
        guards = _held.guards = set()
    return guards


def _reset_guards_in_child() -> None:
    # A child forked mid-call must not inherit the parent's open groups.
    _held.guards = set()


def _wrap(fn: Callable[..., Any], probe: Probe) -> Callable[..., Any]:
    sig = inspect.signature(fn) if probe.args else None
    guard = probe.guard or probe.span
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracing_enabled():
            return fn(*args, **kwargs)
        guards = _guards()
        if guard in guards:
            return fn(*args, **kwargs)
        attrs = {"fn": name}
        if sig is not None:
            attrs.update(probe.args(sig.bind(*args, **kwargs).arguments))
        guards.add(guard)
        try:
            with span(probe.span, **attrs) as s:
                out = fn(*args, **kwargs)
                if probe.result is not None:
                    s.set(**probe.result(out))
            return out
        finally:
            guards.discard(guard)

    return wrapper


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _import_all(package: str) -> None:
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        importlib.import_module(info.name)


_installed = False


def install() -> None:
    """Wrap every probe target.  Idempotent.

    Imports ``repro.msa`` and ``repro.tree`` in full first, so every
    aligner and tree-builder subclass exists to be wrapped.
    """
    global _installed
    if _installed:
        return
    for package in ("repro.msa", "repro.tree"):
        _import_all(package)
    for probe in PROBES:
        mod = importlib.import_module(probe.module)
        if "." in probe.attr:
            cls_name, meth = probe.attr.split(".")
            for cls in _subclasses(getattr(mod, cls_name)):
                fn = vars(cls).get(meth)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                setattr(cls, meth, _wrap(fn, probe))
            continue
        orig = getattr(mod, probe.attr)
        new = _wrap(orig, probe)
        for m in list(sys.modules.values()):
            if not getattr(m, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, new)
    os.register_at_fork(after_in_child=_reset_guards_in_child)
    _installed = True


# ---------------------------------------------------------------------------
# From spans to metrics.


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanTree:
    """One job's spans with parent links across processes."""

    def __init__(self, records: List[SpanRecord]) -> None:
        self.records = records
        self.by_id = {r.span_id: r for r in records}
        self.children: Dict[str, List[SpanRecord]] = defaultdict(list)
        for r in records:
            if r.parent_id in self.by_id:
                self.children[r.parent_id].append(r)

    def named(self, name: str) -> List[SpanRecord]:
        return [r for r in self.records if r.name == name]

    def bench_parent(self, r: SpanRecord) -> Optional[SpanRecord]:
        """Nearest ancestor recorded by a probe."""
        p = self.by_id.get(r.parent_id)
        while p is not None and not p.name.startswith("bench."):
            p = self.by_id.get(p.parent_id)
        return p

    def within(self, r: SpanRecord, name: str) -> bool:
        p = self.by_id.get(r.parent_id)
        while p is not None:
            if p.name == name:
                return True
            p = self.by_id.get(p.parent_id)
        return False


def _iv(r: SpanRecord) -> Tuple[float, float]:
    return (r.t0, r.t0 + r.dur)


def _sum(records: Iterable[SpanRecord], key: Optional[str] = None) -> float:
    if key is None:
        return float(sum(r.dur for r in records))
    return float(sum(r.attrs.get(key, 0) for r in records))


def job_metrics(
    records: List[SpanRecord], bucket_sizes: Optional[List[int]] = None
) -> Dict[str, float]:
    """Span-derived per-layer metrics of one traced job.

    Times are busy seconds summed over every process; ``*_max_s`` is
    the slowest process.  The pool, process-CPU and trace-overhead
    metrics are measured outside spans (see ``run.py``).
    """
    t = SpanTree(records)
    m: Dict[str, float] = {}

    rank = t.named("bench.kmer.rank")
    m["kmer.rank_s"] = _sum(rank)
    m["kmer.rank_calls"] = float(len(rank))
    m["samplesort.partition_s"] = _sum(t.named("bench.samplesort.partition"))
    if bucket_sizes:
        m["samplesort.bucket_imbalance"] = max(bucket_sizes) / (
            sum(bucket_sizes) / len(bucket_sizes)
        )
    else:
        m["samplesort.bucket_imbalance"] = 0.0

    m["parcomp.collective_s"] = _sum(t.named("bench.parcomp.collective"))
    dispatches = t.named("bench.parcomp.dispatch")
    m["parcomp.comm_bytes"] = _sum(dispatches, "comm_bytes")
    m["parcomp.messages"] = _sum(dispatches, "messages")
    m["parcomp.modeled_s"] = _sum(dispatches, "modeled_s")
    dispatch_s = 0.0
    for d in dispatches:
        busy = [
            r.dur for r in t.records
            if r.name.endswith(".rank") and t.bench_parent(r) is d
        ]
        dispatch_s += d.dur - max(busy, default=0.0)
    m["parcomp.dispatch_s"] = dispatch_s

    bucket = [
        r for r in t.named("bench.msa.align")
        if t.within(r, "bench.parcomp.dispatch")
    ]
    per_pid: Dict[int, float] = defaultdict(float)
    for r in bucket:
        per_pid[r.pid] += r.dur
    m["msa.bucket_align_s"] = _sum(bucket)
    m["msa.bucket_align_max_s"] = max(per_pid.values(), default=0.0)

    m["core.ancestor_s"] = _sum(t.named("bench.core.ancestor"))
    m["core.tweak_s"] = _sum(t.named("bench.core.tweak"))
    m["core.glue_s"] = _sum(t.named("bench.core.glue"))

    ap = t.named("bench.distance.all_pairs")
    m["distance.all_pairs_s"] = _sum(ap)
    m["distance.pairs"] = _sum(ap, "pairs")
    m["distance.pairs_per_s"] = (
        m["distance.pairs"] / m["distance.all_pairs_s"]
        if m["distance.all_pairs_s"] > 0 else 0.0
    )
    m["distance.identity_s"] = _sum(t.named("bench.distance.identity"))
    tiles = t.named("bench.distance.write_tile")
    m["distance.tiles_written"] = float(len(tiles))
    m["distance.tile_pairs"] = _sum(tiles, "pairs")
    m["distance.consolidate_s"] = _sum(t.named("bench.distance.consolidate"))

    builds = t.named("bench.tree.build")
    merges = t.named("bench.tree.merge")
    m["tree.build_s"] = _sum(builds)
    m["tree.builds"] = float(len(builds))
    m["tree.merge_s"] = _sum(merges)
    m["tree.merges"] = float(len(merges))

    pair = t.named("bench.align.pair")
    batch = t.named("bench.align.batch")
    m["align.pair_calls"] = float(len(pair))
    m["align.pair_s"] = _sum(pair)
    m["align.refine_s"] = _sum(t.named("bench.align.refine"))
    m["align.batch_calls"] = float(len(batch))
    m["align.batch_pairs"] = _sum(batch, "pairs")
    m["align.batch_width"] = (
        m["align.batch_pairs"] / len(batch) if batch else 0.0
    )
    m["align.batch_s"] = _sum(batch)
    m["align.dp_cells"] = _sum(pair, "cells") + _sum(batch, "cells")
    dp_s = m["align.pair_s"] + m["align.batch_s"]
    m["align.dp_cells_per_s"] = m["align.dp_cells"] / dp_s if dp_s > 0 else 0.0

    # The pipeline is what run() calls: sample_align_d, or the
    # sequential aligner's align() directly under the engine span.
    overhead = 0.0
    unattributed = 0.0
    for run in t.named("bench.engine.run"):
        pipeline = [
            r for r in t.records
            if r.name in ("bench.engine.pipeline", "bench.msa.align")
            and t.bench_parent(r) is run
        ]
        overhead += run.dur - _sum(pipeline)
        layers = [
            _iv(r) for r in t.records
            if r.name.startswith("bench.")
            and r.name not in FRAME_SPANS
            and r not in pipeline
        ]
        lo, hi = _iv(run)
        unattributed += run.dur - covered(layers, lo, hi)
    m["engine.overhead_s"] = overhead
    m["trace.unattributed_s"] = unattributed
    return m


def layer_table(records: List[SpanRecord], jobs: int) -> List[Dict[str, Any]]:
    """Per span name, per job: count, busy, self and slowest-process time.

    Self time is a span's duration minus the part of it its direct
    children cover (children may run in other processes, in parallel).
    """
    t = SpanTree(records)
    rows: Dict[str, Dict[str, Any]] = {}
    per_pid: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for r in records:
        row = rows.setdefault(
            r.name, {"span": r.name, "count": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        lo, hi = _iv(r)
        kids = [_iv(c) for c in t.children.get(r.span_id, ())]
        row["count"] += 1
        row["busy_s"] += r.dur
        row["self_s"] += r.dur - covered(kids, lo, hi)
        per_pid[r.name][r.pid] += r.dur
    jobs = max(jobs, 1)
    out = []
    for name, row in rows.items():
        out.append({
            "span": name,
            "count": row["count"] / jobs,
            "busy_s": row["busy_s"] / jobs,
            "self_s": row["self_s"] / jobs,
            "max_process_s": max(per_pid[name].values()) / jobs,
            "processes": len(per_pid[name]),
        })
    out.sort(key=lambda row: -row["busy_s"])
    return out
