"""Batched vs per-pair DP kernels over a (K, L) grid.

The batched Gotoh kernel (``repro.align.batchdp``) exists to amortise
numpy dispatch across pair problems; this bench quantifies that win and
hard-asserts the two contracts the distance stage relies on:

- **exactness** -- batched scores and alignments are byte-identical to
  the per-pair scalar kernel on every grid cell (asserted on bytes, not
  closeness);
- **speed** -- at distance-stage shapes (K >= 64 pairs of length ~200)
  the batched score kernel beats the per-pair loop >= 3x.  Both sides
  are single-threaded numpy on the same host, so the gate is
  host-independent, unlike wall-clock targets.

One ungated row times the sequence-level entry the full-DP distance
stage calls: ``global_align_batch`` (score stack read straight from
residue codes) against per-pair ``global_align`` on K=128 rose pairs
of length ~120, the ``clustalw-fulldp`` benchmark shape.

Output: benchmarks/reports/kernel_batch.json plus the text report.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _util import FULL, REPORT_DIR, fmt_table, write_report

from repro.align.batchdp import affine_align_batch, affine_score_batch
from repro.align.dp import affine_align, affine_score
from repro.align.pairwise import global_align, global_align_batch
from repro.datagen.rose import generate_family

#: (pairs, length) grid; the gated cell is (64, 200).
GRID = [(16, 80), (64, 80), (64, 200), (128, 80), (128, 200)]
if FULL:
    GRID += [(256, 200), (256, 400)]

GAP_OPEN, GAP_EXT = 10.0, 0.5

#: The issue-level gate: batched score kernel at K >= 64, L ~ 200.
GATE_MIN_SPEEDUP = 3.0
GATE_CELL = (64, 200)

#: The ungated sequence-pair row: (pairs, mean length).
SEQ_CELL = (128, 120)


def _problems(K, L, seed):
    rng = np.random.default_rng(seed)
    # BLOSUM-like integer scores; lengths jittered +-10% so the batch
    # exercises the ragged-padding path like real sequence data does.
    out = []
    for _ in range(K):
        m = int(rng.integers(round(L * 0.9), round(L * 1.1) + 1))
        n = int(rng.integers(round(L * 0.9), round(L * 1.1) + 1))
        out.append(rng.integers(-4, 12, size=(m, n)).astype(np.float64))
    return out


def _best(fn, repeats):
    fn()  # warmup: fault in pooled buffers, trigger lazy imports
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        best = wall if best is None or wall < best else best
    return best, result


def _sequence_pairs(K, L, seed):
    """K pairs from one rose family (relatedness 800) of mean length L."""
    n = 2
    while n * (n - 1) // 2 < K:
        n += 1
    seqs = generate_family(n, L, 800, seed=seed).sequences
    return [
        (seqs[i], seqs[j]) for i in range(n) for j in range(i + 1, n)
    ][:K]


def _sequence_row(repeats):
    K, L = SEQ_CELL
    pairs = _sequence_pairs(K, L, seed=11)
    wall_pair, per_pair = _best(
        lambda: [global_align(x, y) for x, y in pairs], repeats
    )
    wall_batch, batched = _best(lambda: global_align_batch(pairs), repeats)
    same = all(
        a.score == b.score
        and np.array_equal(a.x_map, b.x_map)
        and np.array_equal(a.y_map, b.y_map)
        for a, b in zip(per_pair, batched)
    )
    return {
        "pairs": K,
        "length": L,
        "align_per_pair_wall_s": wall_pair,
        "align_batched_wall_s": wall_batch,
        "align_speedup": wall_pair / wall_batch,
        "identical": same,
    }


def run_kernel_batch(repeats=3):
    grid_rows = []
    identical = True
    for K, L in GRID:
        S_list = _problems(K, L, seed=11)

        wall_s_pair, scores_pair = _best(
            lambda: np.array(
                [affine_score(S, GAP_OPEN, GAP_EXT) for S in S_list]
            ),
            repeats,
        )
        wall_s_batch, scores_batch = _best(
            lambda: affine_score_batch(S_list, GAP_OPEN, GAP_EXT), repeats
        )
        wall_a_pair, aligns_pair = _best(
            lambda: [affine_align(S, GAP_OPEN, GAP_EXT) for S in S_list],
            repeats,
        )
        wall_a_batch, aligns_batch = _best(
            lambda: affine_align_batch(S_list, GAP_OPEN, GAP_EXT), repeats
        )

        same = scores_pair.tobytes() == scores_batch.tobytes() and all(
            a.score == b.score
            and np.array_equal(a.x_map, b.x_map)
            and np.array_equal(a.y_map, b.y_map)
            for a, b in zip(aligns_pair, aligns_batch)
        )
        identical = identical and same
        grid_rows.append(
            {
                "pairs": K,
                "length": L,
                "score_per_pair_wall_s": wall_s_pair,
                "score_batched_wall_s": wall_s_batch,
                "score_speedup": wall_s_pair / wall_s_batch,
                "align_per_pair_wall_s": wall_a_pair,
                "align_batched_wall_s": wall_a_batch,
                "align_speedup": wall_a_pair / wall_a_batch,
                "identical": same,
            }
        )

    seq_row = _sequence_row(repeats)
    identical = identical and seq_row["identical"]

    gate_row = next(
        r
        for r in grid_rows
        if (r["pairs"], r["length"]) == GATE_CELL
    )
    gate_ok = gate_row["score_speedup"] >= GATE_MIN_SPEEDUP

    rows = [
        [
            r["pairs"],
            r["length"],
            f"{r['score_speedup']:.2f}x",
            f"{r['align_speedup']:.2f}x",
            f"{r['score_batched_wall_s'] * 1e3 / r['pairs']:.3f}",
            f"{r['align_batched_wall_s'] * 1e3 / r['pairs']:.3f}",
        ]
        for r in grid_rows
    ]
    table = fmt_table(
        ["K", "L", "score", "align", "score ms/pair", "align ms/pair"],
        rows,
    )
    text = (
        f"batched vs per-pair DP kernels (best of {repeats}, "
        f"after warmup)\n\n{table}\n\n"
        f"sequence pairs, global_align_batch vs global_align "
        f"(K={seq_row['pairs']} rose pairs, L~{seq_row['length']}; "
        f"no gate): {seq_row['align_speedup']:.2f}x, "
        f"{seq_row['align_batched_wall_s'] * 1e3 / seq_row['pairs']:.3f} "
        f"vs {seq_row['align_per_pair_wall_s'] * 1e3 / seq_row['pairs']:.3f}"
        f" ms/pair\n"
        f"byte-identical results on every cell: {identical}\n"
        f"gate: score speedup at K={GATE_CELL[0]} L={GATE_CELL[1]} "
        f"= {gate_row['score_speedup']:.2f}x "
        f"(>= {GATE_MIN_SPEEDUP:.0f}x required)"
    )
    write_report("kernel_batch", text)

    payload = {
        "bench": "kernel_batch",
        "repeats": repeats,
        "gap_open": GAP_OPEN,
        "gap_extend": GAP_EXT,
        "grid": grid_rows,
        "sequence_pairs": seq_row,
        "identical": identical,
        "gate": {
            "pairs": GATE_CELL[0],
            "length": GATE_CELL[1],
            "min_speedup": GATE_MIN_SPEEDUP,
            "score_speedup": gate_row["score_speedup"],
            "ok": gate_ok,
        },
    }
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / "kernel_batch.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return payload


def test_kernel_batch(benchmark):
    from _util import once

    payload = once(benchmark, run_kernel_batch)
    # Hard contract: the batched kernel is the scalar kernel, batched.
    assert payload["identical"]
    # Perf contract at distance-stage shapes.
    assert payload["gate"]["ok"], (
        f"batched score kernel {payload['gate']['score_speedup']:.2f}x "
        f"< {payload['gate']['min_speedup']:.0f}x at K=64 L=200"
    )


if __name__ == "__main__":
    result = run_kernel_batch()
    if not result["identical"]:
        print("FAIL: batched kernel diverged from per-pair", file=sys.stderr)
    if not result["gate"]["ok"]:
        print(
            f"FAIL: gate speedup {result['gate']['score_speedup']:.2f}x "
            f"< {result['gate']['min_speedup']:.0f}x",
            file=sys.stderr,
        )
    sys.exit(0 if result["identical"] and result["gate"]["ok"] else 1)
