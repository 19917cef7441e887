"""Cross-cutting tests over every sequential MSA system."""

import pytest

from repro.engine.registry import (
    available_sequential_aligners,
    get_sequential_aligner,
)
from repro.metrics import qscore
from repro.seq.sequence import Sequence

ALL_ALIGNERS = [
    "muscle",
    "muscle-p",
    "muscle-draft",
    "clustalw",
    "clustalw-full",
    "tcoffee",
    "mafft-nwnsi",
    "mafft-fftnsi",
    "center-star",
]


@pytest.mark.parametrize("name", ALL_ALIGNERS)
class TestEveryAligner:
    def test_roundtrip(self, name, small_family):
        aln = get_sequential_aligner(name).align(small_family.sequences)
        un = aln.ungapped()
        for s in small_family.sequences:
            assert un[s.id].residues == s.residues

    def test_row_order(self, name, small_family):
        aln = get_sequential_aligner(name).align(small_family.sequences)
        assert aln.ids == small_family.sequences.ids

    def test_deterministic(self, name, tiny_seqs):
        a = get_sequential_aligner(name).align(tiny_seqs)
        b = get_sequential_aligner(name).align(tiny_seqs)
        assert a == b

    def test_single_sequence(self, name):
        aln = get_sequential_aligner(name).align([Sequence("only", "MKVAW")])
        assert aln.n_rows == 1 and aln.row_text("only") == "MKVAW"

    def test_two_sequences(self, name):
        aln = get_sequential_aligner(name).align(
            [Sequence("a", "MKTAYIAKQR"), Sequence("b", "MKTAYIQR")]
        )
        assert aln.n_rows == 2
        un = aln.ungapped()
        assert un["a"].residues == "MKTAYIAKQR"
        assert un["b"].residues == "MKTAYIQR"

    def test_quality_on_easy_family(self, name, easy_family):
        aln = get_sequential_aligner(name).align(easy_family.sequences)
        q = qscore(aln, easy_family.reference)
        assert q > 0.7, f"{name} scored Q={q:.3f} on a near-identical family"

    def test_empty_input_rejected(self, name):
        with pytest.raises(ValueError):
            get_sequential_aligner(name).align([])

    def test_mixed_alphabets_rejected(self, name):
        from repro.seq.alphabet import DNA

        with pytest.raises(ValueError, match="alphabet"):
            get_sequential_aligner(name).align(
                [Sequence("a", "MKV"), Sequence("b", "ACGT", alphabet=DNA)]
            )
