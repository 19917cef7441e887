"""Fig.-2 walkthrough: how the global ancestor fine-tunes local alignments.

Two subsets are aligned independently (as if on two cluster nodes); the
demo shows their local ancestors, the global ancestor the root derives,
and the before/after effect of the constrained tweak on the joined
alignment's quality.

Run:  python examples/ancestor_tweaking_demo.py
"""

from repro.align.scoring import sp_score
from repro.core.ancestor import global_ancestor, local_ancestor
from repro.core.glue import glue_blocks, glue_blocks_diagonal
from repro.core.tweak import tweak_against_ancestor
from repro.datagen import rose
from repro.engine.registry import get_sequential_aligner
from repro.metrics import qscore
from repro.seq.alphabet import PROTEIN

def main() -> None:
    family = rose.generate_family(
        n_sequences=16, mean_length=80, relatedness=350, seed=4
    )
    seqs = list(family.sequences)
    aligner = get_sequential_aligner("muscle-p")

    # Two "cluster nodes" align their buckets independently.
    aln_a = aligner.align(seqs[:8])
    aln_b = aligner.align(seqs[8:])
    print("node 0 bucket alignment:")
    print(aln_a.pretty(block=90, max_rows=3))
    print("node 1 bucket alignment:")
    print(aln_b.pretty(block=90, max_rows=3))

    # Local ancestors -> global ancestor (root side).
    anc_a = local_ancestor(aln_a, 0)
    anc_b = local_ancestor(aln_b, 1)
    ga = global_ancestor([anc_a, anc_b], aligner)
    print(f"local ancestor 0 ({len(anc_a)} aa): {anc_a.residues[:70]}")
    print(f"local ancestor 1 ({len(anc_b)} aa): {anc_b.residues[:70]}")
    print(f"global ancestor  ({len(ga)} aa): {ga.residues[:70]}\n")

    # Tweak both blocks against the template and glue.
    blocks = [tweak_against_ancestor(aln_a, ga),
              tweak_against_ancestor(aln_b, ga)]
    tweaked = glue_blocks(blocks, PROTEIN)
    stacked = glue_blocks_diagonal(blocks, PROTEIN)

    ref = family.reference
    for label, joined in [("block-diagonal join", stacked),
                          ("ancestor-tweaked join", tweaked)]:
        q = qscore(joined.select_rows(ref.ids), ref)
        print(f"{label:<22} columns={joined.n_columns:<5} "
              f"SP={sp_score(joined):>9.1f}  Q={q:.3f}")

    print("\ntweaked join, first rows of each node side by side:")
    view = tweaked.select_rows([seqs[0].id, seqs[1].id, seqs[8].id, seqs[9].id])
    print(view.pretty(block=90))

if __name__ == "__main__":
    main()
