"""The repository's benchmark: whole alignment jobs, timed and checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sad-pool --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` times jobs with tracing off and reports the end-to-end
metrics (``align_s``, ``qscore``, ``setup_s``; peak RSS is printed
but carries no bound, see ``proc.peak_rss_mib``).
``align_s`` and ``setup_s`` are medians of wall seconds scaled to the
reference host speed of ``host.py``, measured right before and after
each job or set-up; the unscaled medians are printed beside them.
``--trace 1`` reports the per-layer metrics instead: it installs the
probes of ``layers.py``, times untraced jobs for half the budget (CPU
and pool counters come from these), then traced jobs for the other
half (spans come from these).  Every job's output is checked; a failed
check or an exception counts the job as failed.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Artifacts (report, per-layer table, Chrome trace) go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"

#: Fresh processes timed from start until ready, per run.
SETUP_PROBES = 7
#: Timed jobs per phase even when the budget runs out sooner.
MIN_JOBS = 3

END_TO_END_UNITS = {
    "align_s": "s",
    "qscore": "fraction",
    "setup_s": "s",
}


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return ""
    q = statistics.quantiles(values, n=4)
    return f"p25 {q[0]:.4f} p75 {q[2]:.4f}"


@dataclasses.dataclass
class Job:
    """One successful, checked job."""

    result: Any
    wall: float
    #: CPU seconds: ``proc`` (this process and reaped children) and
    #: ``workers`` (live pool workers).
    cpu: Dict[str, float]
    #: Reference-speed factor around the job (see ``host.py``).
    scale: float

    @property
    def scaled(self) -> float:
        return self.wall * self.scale


def _speed_scale(before: float, after: float) -> float:
    from host import REFERENCE_KERNEL_S

    return REFERENCE_KERNEL_S / min(before, after)


class Jobs:
    """Runs, checks and counts the jobs of one workload run."""

    def __init__(self, workload, seed: int, out: Path) -> None:
        from workloads import Runner, make_inputs

        self.workload = workload
        self.families = make_inputs(workload, seed)
        self.runner = Runner(workload, out)
        self.requests = [self.runner.request(f) for f in self.families]
        self.digests: List[Optional[str]] = [None] * len(self.families)
        self.alignments: List[Any] = [None] * len(self.families)
        self.attempted = 0
        self.failed = 0
        self._next = 0
        #: Called before every job (the traced run drains stale spans).
        self.before_job: Optional[Callable[[], Any]] = None

    def one(self, extra_check: Optional[Callable[[Any], None]] = None) -> Optional[Job]:
        """Run and check the next job; None when it failed."""
        from checks import OutputError, check_alignment, digest
        from host import reference_kernel_s

        i = self._next % len(self.families)
        self._next += 1
        self.attempted += 1
        if self.before_job is not None:
            self.before_job()
        try:
            k0 = reference_kernel_s()
            result, wall, cpu = self.runner.run(self.requests[i])
            k1 = reference_kernel_s()
            check_alignment(result.alignment, self.families[i].sequences)
            d = digest(result.alignment)
            if self.digests[i] is None:
                self.digests[i] = d
                self.alignments[i] = result.alignment
            elif d != self.digests[i]:
                raise OutputError("alignment differs from the run's first job")
            if extra_check is not None:
                extra_check(result)
            return Job(result, wall, cpu, _speed_scale(k0, k1))
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def timed(self, seconds: float, **kw) -> List[Job]:
        """Jobs until the next one would overrun ``seconds``."""
        done: List[Job] = []
        failed_before = self.failed
        t0 = time.perf_counter()
        while True:
            job = self.one(**kw)
            if job is not None:
                done.append(job)
            n = len(done)
            elapsed = time.perf_counter() - t0
            if self.failed - failed_before > n + MIN_JOBS:
                break  # mostly failing: stop burning the budget
            if n >= MIN_JOBS and elapsed + _median([j.wall for j in done]) > seconds:
                break
        return done

    def qscore(self) -> float:
        from repro.metrics.qscore import qscore

        scores = [
            qscore(aln, fam.reference)
            for aln, fam in zip(self.alignments, self.families)
            if aln is not None
        ]
        return sum(scores) / len(scores) if scores else 0.0


def measure_setup(name: str, probes: int) -> List[tuple]:
    """(wall, scaled) seconds from process start until a fresh process
    is ready to time, per probe."""
    from host import reference_kernel_s

    times = []
    for _ in range(probes):
        k0 = reference_kernel_s()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", name],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed ({proc.returncode})")
        k1 = reference_kernel_s()
        times.append((elapsed, elapsed * _speed_scale(k0, k1)))
    return times


def setup_probe(name: str) -> int:
    """Child side of :func:`measure_setup`: import, build, bring up, exit."""
    from workloads import WORKLOADS, Runner

    runner = Runner(WORKLOADS[name], OUT / "probe")
    print("ready", flush=True)
    runner.close()
    return 0


def _pool_counters(pool) -> Dict[str, float]:
    if pool is None:
        return {}
    s = pool.stats()
    tr = s["transport"]
    return {
        "pool.tasks": s["runs"] + s["tasks_served"],
        "pool.respawns": s["respawns"],
        "pool.fallback_runs": s["fallback_runs"],
        "pool.shm_bytes": tr["shm_bytes"],
        "pool.pickle_bytes": tr["pickle_bytes"],
    }


def _peak_rss(jobs: Jobs) -> Dict[str, float]:
    from host import peak_rss_mib

    pool = jobs.runner.pool
    return peak_rss_mib(pool.stats()["worker_pids"] if pool else ())


def run_end_to_end(jobs: Jobs, seconds: float) -> Dict[str, Any]:
    jobs.one()  # warm-up: lazy imports, first-touch allocations
    done = jobs.timed(seconds)
    return {
        "metrics": {
            "align_s": _median([j.scaled for j in done]),
            "qscore": jobs.qscore(),
        },
        "detail": {
            "align_s": [j.scaled for j in done],
            "align_wall_s": [j.wall for j in done],
            "peak_rss_mib_by_process": _peak_rss(jobs),
        },
    }


def run_traced(jobs: Jobs, seconds: float) -> Dict[str, Any]:
    from layers import METRICS, job_metrics, layer_table
    from repro.obs import disable_tracing, drain_spans, enable_tracing
    from repro.obs.tracing import to_chrome_trace

    w = jobs.workload
    pool = jobs.runner.pool
    jobs.one()

    # Untraced half: wall for the overhead ratio, CPU and pool counters.
    before = _pool_counters(pool)
    untraced = jobs.timed(seconds / 2)
    after = _pool_counters(pool)
    n_u = max(len(untraced), 1)
    wall_u = max(sum(j.wall for j in untraced), 1e-9)
    m: Dict[str, float] = {k: (after[k] - before[k]) / n_u for k in after}
    cpu_proc = sum(j.cpu["proc"] for j in untraced)
    cpu_workers = sum(j.cpu["workers"] for j in untraced)
    m["proc.cpu_s"] = cpu_proc / n_u
    m["proc.cpu_per_wall"] = cpu_proc / wall_u
    m["pool.worker_cpu_s"] = cpu_workers / n_u
    m["pool.cpu_per_wall"] = cpu_workers / wall_u

    # Traced half: one span tree per job.
    per_job: List[Dict[str, float]] = []
    spans: List[Any] = []
    last: List[Any] = []

    def check_spans(result) -> None:
        records = drain_spans()
        got = job_metrics(records, result.diagnostics.get("bucket_sizes"))
        n = len(result.alignment.ids)
        tile_pairs = got.pop("distance.tile_pairs")
        if w.fresh_store and tile_pairs != n * (n - 1) // 2:
            raise AssertionError("job did not write all n(n-1)/2 pairs")
        if w.backend == "pool":
            # A bucket of one sequence needs no aligner call.
            buckets = result.diagnostics["bucket_sizes"]
            for name, want in (
                ("bench.kmer.rank", w.n_procs),
                ("bench.msa.align", sum(1 for b in buckets if b > 1)),
                ("bench.core.ancestor", w.n_procs),
            ):
                pids = {r.pid for r in records if r.name == name}
                if len(pids) < want:
                    raise AssertionError(
                        f"{name} spans from {len(pids)} ranks, want {want}"
                    )
        per_job.append(got)
        spans.extend(records)
        last[:] = records

    jobs.before_job = drain_spans  # a failed job's spans must not leak
    enable_tracing()
    try:
        traced = jobs.timed(seconds / 2, extra_check=check_spans)
    finally:
        disable_tracing()
        drain_spans()
    for key in per_job[0] if per_job else ():
        m[key] = _median([j[key] for j in per_job])
    # Scaled times, so a host slowdown between the halves is not
    # mistaken for tracing cost.
    scaled_u = [j.scaled for j in untraced]
    scaled_t = [j.scaled for j in traced]
    m["trace.overhead_frac"] = (
        _median(scaled_t) / _median(scaled_u) - 1.0
        if scaled_u and scaled_t else 0.0
    )
    m["proc.peak_rss_mib"] = max(_peak_rss(jobs).values())
    metrics = {k.name: float(m.get(k.name, 0.0)) for k in METRICS}
    table = layer_table(spans, len(per_job))
    return {
        "metrics": metrics,
        "detail": {
            "align_s_untraced": scaled_u,
            "align_s_traced": scaled_t,
            "layer_table": table,
            "moves": {k.name: k.moves for k in METRICS},
        },
        "chrome_trace": to_chrome_trace(last),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> int:
    from host import host_facts
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    if tiny:
        w = dataclasses.replace(w, n=8, length=40)
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    # Keep the program's temporary files inside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    if trace:
        from layers import install

        install()  # before the pool forks, so workers inherit the probes
    jobs = Jobs(w, seed, out)
    try:
        if trace:
            res = run_traced(jobs, seconds)
        else:
            res = run_end_to_end(jobs, seconds)
    finally:
        jobs.runner.close()
    units: Dict[str, str] = dict(END_TO_END_UNITS)
    if trace:
        from layers import UNITS

        units = dict(UNITS)
    else:
        setup = measure_setup(name, SETUP_PROBES)
        res["metrics"]["setup_s"] = _median([t[1] for t in setup])
        res["detail"]["setup_s"] = [t[1] for t in setup]
        res["detail"]["setup_wall_s"] = [t[0] for t in setup]
    shutil.rmtree(tmp, ignore_errors=True)
    failed_frac = jobs.failed / max(jobs.attempted, 1)
    host = host_facts(ROOT)
    report = {
        "workload": name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "inputs": {"n": w.n, "length": w.length, "families": w.families},
        "host": host,
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "failed_frac": failed_frac,
        "metrics": res["metrics"],
        "detail": res["detail"],
    }
    (out / "report.json").write_text(json.dumps(report, indent=1))
    if "chrome_trace" in res:
        (out / "trace.json").write_text(json.dumps(res["chrome_trace"]))

    print(f"perfbench {name} seed={seed} trace={int(trace)} "
          f"n={w.n} length={w.length} attempted={jobs.attempted} "
          f"failed={jobs.failed} failed_frac={failed_frac:.4f}")
    blas = host["blas"]
    print(f"host nproc={host['nproc']} blas={blas.get('name')} "
          f"{blas.get('version')} blas_threads={host['blas_threads']} "
          f"python={host['python']} numpy={host['numpy']} "
          f"git={host['git_sha'][:12]}")
    for key, value in res["metrics"].items():
        samples = res["detail"].get(key, [])
        extra = f"  (n={len(samples)} {_quartiles(samples)})" if samples else ""
        print(f"  {key:30s} {value:14.6g} {units[key]}{extra}")
        wall = res["detail"].get(f"{key[:-2]}_wall_s", [])
        if key.endswith("_s") and wall:
            print(f"  {'  unscaled wall':30s} {_median(wall):14.6g} s"
                  f"  (n={len(wall)} {_quartiles(wall)})")
    peaks = res["detail"].get("peak_rss_mib_by_process")
    if peaks:
        print(f"  {'peak_rss_mib (no bound)':30s} {max(peaks.values()):14.6g} MiB"
              f"  ({', '.join(f'{k} {v:.1f}' for k, v in peaks.items())})")
    if trace:
        print("  per-layer table (per traced job):")
        for row in res["detail"]["layer_table"]:
            if row["span"].startswith("bench."):
                print(f"    {row['span']:30s} n={row['count']:8.1f} "
                      f"busy={row['busy_s']:9.4f}s self={row['self_s']:9.4f}s "
                      f"max_proc={row['max_process_s']:9.4f}s")
    print(f"  artifacts: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": jobs.failed == 0,
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()
        },
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    """Every workload in its own process; one combined result line."""
    from workloads import WORKLOADS

    combined: Dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace)), *(["--tiny"] if tiny else [])],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        for key, val in res["metrics"].items():
            combined[f"{name}/{key}"] = val
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": combined,
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="8-sequence inputs (used by selftest.py)")
    ap.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.setup_probe:
        return setup_probe(args.setup_probe)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.tiny)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")
    return run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
    )


if __name__ == "__main__":
    sys.exit(main())
