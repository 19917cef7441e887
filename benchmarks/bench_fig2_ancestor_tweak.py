"""Fig. 2 -- the global ancestor tweaking two independently aligned subsets.

The paper's illustration: two sequence subsets aligned independently
cannot simply be stacked; tweaking each against the shared global
ancestor restores cross-subset column semantics.  We quantify the effect
with the sum-of-pairs score and the Q score of the joined alignment,
with vs without the tweak.
"""

import numpy as np

from _util import fmt_table, once, write_report

from repro.align.scoring import sp_score
from repro.core.ancestor import global_ancestor, local_ancestor
from repro.core.glue import glue_blocks, glue_blocks_diagonal
from repro.core.tweak import tweak_against_ancestor
from repro.datagen.rose import generate_family
from repro.engine.registry import get_sequential_aligner
from repro.metrics import qscore
from repro.seq.alphabet import PROTEIN


def test_fig2_ancestor_tweak(benchmark):
    fam = generate_family(
        n_sequences=24, mean_length=120, relatedness=400, seed=9
    )
    seqs = list(fam.sequences)
    aligner = get_sequential_aligner("muscle-p")

    # Two subsets aligned independently of each other (two "cluster nodes").
    half = len(seqs) // 2
    aln_a = aligner.align(seqs[:half])
    aln_b = aligner.align(seqs[half:])

    anc_a = local_ancestor(aln_a, 0)
    anc_b = local_ancestor(aln_b, 1)
    ga = global_ancestor([anc_a, anc_b], aligner)

    def tweak_and_glue():
        blocks = [
            tweak_against_ancestor(aln_a, ga),
            tweak_against_ancestor(aln_b, ga),
        ]
        return glue_blocks(blocks, PROTEIN)

    tweaked = once(benchmark, tweak_and_glue)

    # The no-tweak join: block-diagonal stacking.
    raw_blocks = [
        tweak_against_ancestor(aln_a, ga),
        tweak_against_ancestor(aln_b, ga),
    ]
    stacked = glue_blocks_diagonal(raw_blocks, PROTEIN)

    rows = [
        [
            "joined without ancestor tweak",
            f"{sp_score(stacked):.1f}",
            f"{qscore(stacked.select_rows(fam.reference.ids), fam.reference):.3f}",
        ],
        [
            "tweaked against global ancestor",
            f"{sp_score(tweaked):.1f}",
            f"{qscore(tweaked.select_rows(fam.reference.ids), fam.reference):.3f}",
        ],
    ]
    report = "\n".join(
        [
            "Fig. 2: effect of the global-ancestor tweak on two",
            "independently aligned subsets (24 sequences, 2 subsets)",
            "",
            fmt_table(["join strategy", "SP score", "Q vs truth"], rows),
            "",
            f"global ancestor length: {len(ga)}",
        ]
    )
    write_report("fig2_ancestor_tweak", report)

    q_tweak = qscore(tweaked.select_rows(fam.reference.ids), fam.reference)
    q_stack = qscore(stacked.select_rows(fam.reference.ids), fam.reference)
    assert q_tweak > q_stack
    assert sp_score(tweaked) > sp_score(stacked)
