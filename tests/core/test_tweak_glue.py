"""Tests for the ancestor tweak and the glue step."""

import numpy as np
import pytest

from repro.core.ancestor import global_ancestor, local_ancestor
from repro.core.glue import glue_blocks, glue_blocks_diagonal
from repro.core.tweak import TweakedBlock, tweak_against_ancestor
from repro.engine.registry import get_sequential_aligner
from repro.seq.alignment import Alignment
from repro.seq.alphabet import PROTEIN
from repro.seq.sequence import Sequence


def mk_aln(rows, ids=None):
    ids = ids or [f"r{i}" for i in range(len(rows))]
    return Alignment.from_rows(ids, rows)


class TestAncestor:
    def test_local_none_for_empty(self):
        assert local_ancestor(None, 0) is None
        empty = Alignment(["a"], np.zeros((1, 0), dtype=np.uint8))
        assert local_ancestor(empty, 0) is None

    def test_local_names_rank(self):
        aln = mk_aln(["MKV", "MKV"])
        anc = local_ancestor(aln, 3)
        assert anc.id == "ancestor_r3"
        assert anc.residues == "MKV"

    def test_global_single(self):
        anc = Sequence("ancestor_r0", "MKV")
        ga = global_ancestor(
            [anc, None], get_sequential_aligner("muscle-draft")
        )
        assert ga.id == "global_ancestor"
        assert ga.residues == "MKV"

    def test_global_multiple(self):
        ancs = [
            Sequence("ancestor_r0", "MKTAYIAKQR"),
            Sequence("ancestor_r1", "MKTAYIQR"),
            None,
            Sequence("ancestor_r3", "MKTAYIAKQR"),
        ]
        ga = global_ancestor(ancs, get_sequential_aligner("muscle-draft"))
        assert ga.id == "global_ancestor"
        assert len(ga) >= 8

    def test_global_all_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            global_ancestor(
                [None, None], get_sequential_aligner("muscle-draft")
            )


class TestTweak:
    def test_columns_unchanged(self):
        aln = mk_aln(["MKTAYI-KQR", "MKTAYIAKQR"])
        anc = Sequence("ga", "MKTAYIAKQR")
        block = tweak_against_ancestor(aln, anc)
        assert np.array_equal(block.matrix, aln.matrix)
        assert block.ids == aln.ids

    def test_match_slots_strictly_increasing(self):
        aln = mk_aln(["MKTAYIKQRW", "MKTAYIKQ-W"])
        anc = Sequence("ga", "MKTAYIAKQRW")
        block = tweak_against_ancestor(aln, anc)
        matched = block.anchor_slot[block.anchor_match]
        assert (np.diff(matched) > 0).all()

    def test_insert_ordinals_run_within_slot(self):
        # Block has residues the ancestor lacks -> insert columns.
        aln = mk_aln(["MKWWWWTA", "MKWWWWTA"])
        anc = Sequence("ga", "MKTA")
        block = tweak_against_ancestor(aln, anc)
        ins = ~block.anchor_match
        assert ins.any()
        counts = block.insert_counts()
        assert counts.sum() == int(ins.sum())
        # Ordinals inside one slot are 0..m-1.
        for slot in np.unique(block.anchor_slot[ins]):
            ords = block.anchor_ordinal[ins & (block.anchor_slot == slot)]
            assert sorted(ords.tolist()) == list(range(len(ords)))

    def test_identical_to_ancestor_all_match(self):
        aln = mk_aln(["MKTAYIAKQR"])
        anc = Sequence("ga", "MKTAYIAKQR")
        block = tweak_against_ancestor(aln, anc)
        assert block.anchor_match.all()

    def test_empty_block_rejected(self):
        empty = Alignment([], np.zeros((0, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            tweak_against_ancestor(empty, Sequence("ga", "MKV"))


class TestGlue:
    def _tweak(self, rows, anc, ids=None):
        return tweak_against_ancestor(mk_aln(rows, ids), anc)

    def test_two_blocks_share_ancestor_columns(self):
        anc = Sequence("ga", "MKTAYIAKQR")
        b1 = self._tweak(["MKTAYIAKQR"], anc, ids=["a"])
        b2 = self._tweak(["MKTAYIAKQR"], anc, ids=["b"])
        glued = glue_blocks([b1, b2], PROTEIN)
        assert glued.n_rows == 2
        assert glued.row_text("a") == glued.row_text("b") == "MKTAYIAKQR"

    def test_blocks_with_inserts(self):
        anc = Sequence("ga", "MKTA")
        b1 = self._tweak(["MKWWTA"], anc, ids=["a"])  # insert WW
        b2 = self._tweak(["MKTA"], anc, ids=["b"])
        glued = glue_blocks([b1, b2], PROTEIN)
        un = glued.ungapped()
        assert un["a"].residues == "MKWWTA"
        assert un["b"].residues == "MKTA"
        # b's row must show gaps where a's insert sits.
        assert "-" in glued.row_text("b")

    def test_roundtrip_many_blocks(self, small_family):
        anc = Sequence("ga", "".join(small_family.sequences[0].residues))
        seqs = list(small_family.sequences)
        blocks = []
        for i in range(0, len(seqs), 4):
            chunk = seqs[i : i + 4]
            aln = get_sequential_aligner("muscle-draft").align(chunk)
            blocks.append(tweak_against_ancestor(aln, anc))
        glued = glue_blocks(blocks, PROTEIN)
        un = glued.ungapped()
        for s in seqs:
            assert un[s.id].residues == s.residues

    def test_no_blocks_rejected(self):
        with pytest.raises(ValueError):
            glue_blocks([], PROTEIN)
        with pytest.raises(ValueError):
            glue_blocks_diagonal([], PROTEIN)

    def test_mismatched_ancestor_rejected(self):
        b1 = self._tweak(["MKTA"], Sequence("ga", "MKTA"), ids=["a"])
        b2 = self._tweak(["MKTA"], Sequence("ga", "MKTAY"), ids=["b"])
        with pytest.raises(ValueError, match="ancestor length"):
            glue_blocks([b1, b2], PROTEIN)

    def test_diagonal_glue(self):
        anc = Sequence("ga", "MKTA")
        b1 = self._tweak(["MKTA"], anc, ids=["a"])
        b2 = self._tweak(["MKTA"], anc, ids=["b"])
        glued = glue_blocks_diagonal([b1, b2], PROTEIN)
        assert glued.n_columns == 8
        assert glued.row_text("a") == "MKTA----"
        assert glued.row_text("b") == "----MKTA"
