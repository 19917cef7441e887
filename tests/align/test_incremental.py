"""Tests for incremental alignment (repro.align.incremental)."""

import numpy as np
import pytest

from repro.align.incremental import add_sequence, add_sequences
from repro.engine.registry import get_sequential_aligner
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence


class TestAddSequence:
    def test_columns_preserved(self, tiny_seqs):
        aln = get_sequential_aligner("muscle-draft").align(tiny_seqs[:4])
        new = tiny_seqs[4]
        out = add_sequence(aln, new)
        assert out.n_rows == 5
        # Original rows keep their relative column structure: ungapping
        # the original block reproduces the old rows.
        un = out.ungapped()
        for s in tiny_seqs:
            assert un[s.id].residues == s.residues

    def test_new_row_is_last(self, tiny_seqs):
        aln = get_sequential_aligner("muscle-draft").align(tiny_seqs[:4])
        out = add_sequence(aln, tiny_seqs[4])
        assert out.ids[-1] == tiny_seqs[4].id

    def test_duplicate_id_rejected(self, tiny_seqs):
        aln = get_sequential_aligner("muscle-draft").align(tiny_seqs[:4])
        with pytest.raises(ValueError, match="already present"):
            add_sequence(aln, tiny_seqs[0])

    def test_into_empty(self):
        empty = Alignment([], np.zeros((0, 0), dtype=np.uint8))
        out = add_sequence(empty, Sequence("a", "MKV"))
        assert out.n_rows == 1

    def test_identical_sequence_aligns_cleanly(self):
        aln = Alignment.from_rows(["a", "b"], ["MKTAYI", "MKTAYI"])
        out = add_sequence(aln, Sequence("c", "MKTAYI"))
        assert out.n_columns == 6
        assert out.row_text("c") == "MKTAYI"


class TestAddSequences:
    def test_batch(self, small_family):
        seqs = list(small_family.sequences)
        aln = get_sequential_aligner("muscle-draft").align(seqs[:6])
        out = add_sequences(aln, seqs[6:])
        assert out.n_rows == len(seqs)
        un = out.ungapped()
        for s in seqs:
            assert un[s.id].residues == s.residues

    def test_given_order(self, small_family):
        seqs = list(small_family.sequences)
        aln = get_sequential_aligner("muscle-draft").align(seqs[:6])
        out = add_sequences(aln, seqs[6:9], order="given")
        assert out.ids[-3:] == [s.id for s in seqs[6:9]]

    def test_empty_batch(self, tiny_seqs):
        aln = get_sequential_aligner("muscle-draft").align(tiny_seqs)
        assert add_sequences(aln, []) is aln

    def test_bad_order(self, tiny_seqs):
        aln = get_sequential_aligner("muscle-draft").align(tiny_seqs)
        with pytest.raises(ValueError):
            add_sequences(aln, [Sequence("z", "MKV")], order="best")

    def test_quality_close_to_full_realign(self, small_family):
        """Incremental addition should stay within reach of aligning
        everything from scratch."""
        from repro.metrics import qscore

        seqs = list(small_family.sequences)
        base = get_sequential_aligner("muscle-draft").align(seqs[:8])
        incremental = add_sequences(base, seqs[8:])
        full = get_sequential_aligner("muscle-draft").align(seqs)
        q_inc = qscore(incremental, small_family.reference)
        q_full = qscore(full, small_family.reference)
        assert q_inc > q_full - 0.25
