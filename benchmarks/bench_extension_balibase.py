"""Section-5 extension -- BAliBASE-like categorised quality assessment.

The paper's stated future work: evaluate the distributed alignments on
BAliBASE-style benchmarks.  Each category stresses a specific failure
mode; the per-category table shows where the domain decomposition holds
up and where it pays (orphans and divergent subfamilies, RV20/RV30, are
exactly the hard cases the paper's section-5 caveat anticipates).
"""

import numpy as np

from _util import fmt_table, once, write_report

from repro import sample_align_d
from repro.core.config import SampleAlignDConfig
from repro.datagen.balibase import CATEGORIES, make_balibase_like
from repro.engine.registry import get_sequential_aligner
from repro.metrics import qscore


def run_suite():
    cases = make_balibase_like(cases_per_category=2, seed=11)
    methods = ["muscle", "clustalw", "probcons"]
    rows = {}
    for cat in CATEGORIES:
        cat_cases = [c for c in cases if c.category == cat]
        scores = {m: [] for m in methods + ["sample-align-d"]}
        for case in cat_cases:
            for m in methods:
                aln = get_sequential_aligner(m).align(case.sequences)
                scores[m].append(qscore(aln, case.reference))
            res = sample_align_d(
                case.sequences,
                n_procs=4,
                config=SampleAlignDConfig(local_aligner="muscle-p"),
            )
            scores["sample-align-d"].append(
                qscore(res.alignment, case.reference)
            )
        rows[cat] = {m: float(np.mean(v)) for m, v in scores.items()}
    return rows


def test_extension_balibase(benchmark):
    rows = once(benchmark, run_suite)

    methods = ["muscle", "clustalw", "probcons", "sample-align-d"]
    table = [
        [cat] + [f"{rows[cat][m]:.3f}" for m in methods]
        for cat in CATEGORIES
    ]
    means = {m: float(np.mean([rows[c][m] for c in CATEGORIES]))
             for m in methods}
    table.append(["MEAN"] + [f"{means[m]:.3f}" for m in methods])
    report = "\n".join(
        [
            "Section-5 extension: BAliBASE-like categories "
            "(Q vs reference; 2 cases per category)",
            "",
            fmt_table(["category"] + methods, table),
            "",
            "RV20 (orphans) and RV30 (divergent subfamilies) are the",
            "hard categories, as in the real BAliBASE; they are also",
            "the regime Sample-Align-D's bucketing targets.",
        ]
    )
    write_report("extension_balibase", report)

    # Sanity bands: everything aligned, SAD competitive with clustalw.
    for m in methods:
        assert means[m] > 0.25
    assert means["sample-align-d"] > means["clustalw"] - 0.2
