"""Fig. 6 -- aligning 2000 genome proteins: Sample-Align-D vs sequential.

Paper: 2000 randomly selected Methanosarcina acetivorans proteins
(avg length 316) take >23 h with sequential MUSCLE on one node but
9.82 min with Sample-Align-D on 16 nodes -- a ~142x speedup.

Measured mode: a scaled sample from the synthetic proteome, sequential
MuscleLike vs Sample-Align-D on the virtual cluster (modeled cluster
time).  Modeled mode: the calibrated model at n=2000, L=316.
"""

import time

import numpy as np

from _util import FULL, fmt_table, once, write_report

from repro import sample_align_d
from repro.core.config import SampleAlignDConfig
from repro.engine.registry import get_sequential_aligner
from repro.perfmodel import predict_sequential_time, predict_total_time


def test_fig6_genome(benchmark, genome, coeffs):
    n = 2000 if FULL else 200
    seqs = genome.sample_proteins(n, seed=5)
    config = SampleAlignDConfig(local_aligner="muscle-p")

    # Sequential baseline on "one node".
    t0 = time.perf_counter()
    seq_aln = get_sequential_aligner("muscle-p").align(seqs)
    t_seq = time.perf_counter() - t0

    procs = (1, 2, 4, 8, 16)
    results = {}
    for p in procs:
        res = (
            once(benchmark, sample_align_d, seqs, n_procs=p, config=config)
            if p == 16
            else sample_align_d(seqs, n_procs=p, config=config)
        )
        results[p] = res

    table = [
        ["sequential muscle-p", "-", f"{t_seq:.2f}", "-", "-"],
    ]
    for p in procs:
        res = results[p]
        table.append(
            [
                f"sample-align-d p={p}",
                f"{res.modeled_time:.3f}",
                f"{res.wall_time:.2f}",
                f"{t_seq / res.modeled_time:.1f}x",
                f"{res.bucket_sizes.max()}",
            ]
        )

    t2000_seq = predict_sequential_time(2000, 316, coeffs)
    t2000_par = predict_total_time(2000, 16, 316, coeffs)
    lines = [
        f"Fig. 6: genome sample n={n} (paper: n=2000, avg len 316)",
        "",
        fmt_table(
            ["configuration", "modeled_s", "host_wall_s",
             "speedup_vs_sequential", "max_bucket"],
            table,
        ),
        "",
        "Analytic model at the paper's n=2000, L=316:",
        f"  sequential: {t2000_seq:.1f}s   p=16: {t2000_par:.1f}s   "
        f"ratio: {t2000_seq / t2000_par:.0f}x   (paper: ~23h vs 9.82min "
        "= 142x)",
    ]
    write_report("fig6_genome", "\n".join(lines))

    # Shape: parallel win at p=16 measured (granularity-limited at the
    # scaled n), and a Fig-6-magnitude ratio at the paper's n=2000.
    assert t_seq / results[16].modeled_time > 4.0
    assert t2000_seq / t2000_par > 30.0
    # Modeled time decreases monotonically up to p=8; at p=16 the scaled
    # workload may dip into the granularity regime the paper itself
    # reports for its smaller datasets ("deteriorates when all the 16
    # processors are used") -- allow a bounded dip.
    modeled = [results[p].modeled_time for p in procs]
    assert all(a > b for a, b in zip(modeled[:-1], modeled[1:-1]))
    assert modeled[-1] < 1.3 * modeled[-2]
    # Quality sanity: same sequences recovered.
    un = results[16].alignment.ungapped()
    for s in seqs:
        assert un[s.id].residues == s.residues
