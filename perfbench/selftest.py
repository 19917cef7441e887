"""Self-test of the benchmark on tiny inputs (8 sequences per family).

    python3 perfbench/selftest.py

Checks that every metric in ``BENCHMARK.json`` is emitted with its unit
on every workload, that a corrupted alignment counts as a failed job,
and that another seed changes the inputs but not the set of metrics.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, f"{workload} exited {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace, units in want.items():
            res = _run(w["name"], 1, trace)
            assert res["correct"] and res["failed"] == 0, res
            assert res["attempted"] >= 1
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == units, (w["name"], trace, got)
            for k, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
        other = _run(w["name"], 2, 0)
        assert set(other["metrics"]) == set(want[0]), w["name"]
        print(f"ok   metrics and units on {w['name']}")


def check_layer_table(spec: dict) -> None:
    from layers import METRICS

    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    table = [(m.name, m.unit, m.better) for m in METRICS]
    assert listed == table, "BENCHMARK.json per_layer differs from layers.METRICS"
    print("ok   BENCHMARK.json per_layer matches layers.METRICS")


def check_seeds_change_inputs() -> None:
    from workloads import WORKLOADS, make_inputs

    for w in WORKLOADS.values():
        tiny = dataclasses.replace(w, n=8, length=40)
        a = [s.residues for f in make_inputs(tiny, 1) for s in f.sequences]
        b = [s.residues for f in make_inputs(tiny, 2) for s in f.sequences]
        again = [s.residues for f in make_inputs(tiny, 1) for s in f.sequences]
        assert a == again, "same seed must give the same inputs"
        assert a != b, "another seed must give other inputs"
    print("ok   seeds: same seed same inputs, other seed other inputs")


def check_corruption_fails() -> None:
    import numpy as np

    import run
    from repro.seq.alignment import Alignment
    from workloads import WORKLOADS

    def swap_rows(aln: Alignment) -> Alignment:
        ids = list(aln.ids)
        ids[0], ids[1] = ids[1], ids[0]
        m = np.array(aln.matrix)
        m[[0, 1]] = m[[1, 0]]
        return Alignment(ids, m, aln.alphabet)

    def change_residue(aln: Alignment) -> Alignment:
        m = np.array(aln.matrix)
        j = int(np.flatnonzero(m[0] != aln.alphabet.gap_code)[0])
        m[0, j] = (m[0, j] + 1) % aln.alphabet.size
        return Alignment(list(aln.ids), m, aln.alphabet)

    def shift_gap(aln: Alignment) -> Alignment:
        # Still a valid MSA of the input, but not the run's first answer.
        m = np.array(aln.matrix)
        gap = aln.alphabet.gap_code
        row = m[0][m[0] != gap]
        m = np.concatenate([m, np.full((m.shape[0], 1), gap, m.dtype)], axis=1)
        m[0] = gap
        m[0, 1 : 1 + row.size] = row
        return Alignment(list(aln.ids), m, aln.alphabet)

    w = dataclasses.replace(
        WORKLOADS["muscle-serial"], n=8, length=40, families=1
    )
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        jobs = run.Jobs(w, 1, Path(tmp))
        assert jobs.one() is not None and jobs.failed == 0
        real_run = jobs.runner.run
        for corrupt in (swap_rows, change_residue, shift_gap):
            def bad_run(request, corrupt=corrupt):
                result, wall, cpu = real_run(request)
                result.alignment = corrupt(result.alignment)
                return result, wall, cpu

            jobs.runner.run = bad_run
            before = jobs.failed
            assert jobs.one() is None, corrupt.__name__
            assert jobs.failed == before + 1, corrupt.__name__
        jobs.runner.close()
    print("ok   corrupted alignments count as failed jobs")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_layer_table(spec)
    check_seeds_change_inputs()
    check_corruption_fails()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
