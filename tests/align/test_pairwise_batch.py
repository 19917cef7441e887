"""Sequence-pair batched DP (codes-fed stack): byte-identity to per pair.

``global_align_batch`` / ``global_score_batch`` fill the batched
kernel's padded score stack straight from residue codes.  Their
contract is exact equality with per-pair :func:`global_align` /
:func:`global_score` -- score bits and both residue maps -- so every
comparison here is on bytes, never closeness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.batchdp import affine_codes_batch
from repro.align.pairwise import (
    global_align,
    global_align_batch,
    global_score,
    global_score_batch,
)
from repro.obs.metrics import registry
from repro.seq.alphabet import DNA, PROTEIN
from repro.seq.matrices import BLOSUM62, DNA_SIMPLE, GapPenalties
from repro.seq.sequence import Sequence

#: (alphabet, matrix) families; each alphabet's symbols include its
#: wildcard (``X`` / ``N``).
FAMILIES = ((PROTEIN, BLOSUM62), (DNA, DNA_SIMPLE))
GAP_MODELS = ((10.0, 0.5), (4.0, 1.0), (1.0, 1.0), (0.0, 0.0))


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _seq(name, residues, alphabet):
    return Sequence(name, residues, alphabet=alphabet)


@st.composite
def pair_batches(draw, max_pairs=6, max_len=12):
    """A ragged batch of sequence pairs over one alphabet, plus gaps."""
    alphabet, matrix = draw(st.sampled_from(FAMILIES))
    residue = st.sampled_from(alphabet.symbols)
    text = st.lists(residue, min_size=0, max_size=max_len).map("".join)
    K = draw(st.integers(min_value=1, max_value=max_pairs))
    pairs = [
        (
            _seq(f"x{k}", draw(text), alphabet),
            _seq(f"y{k}", draw(text), alphabet),
        )
        for k in range(K)
    ]
    go, ge = draw(st.sampled_from(GAP_MODELS))
    tf = draw(st.sampled_from((1.0, 0.5, 0.0)))
    return pairs, matrix, GapPenalties(go, ge, tf)


def _assert_align_matches(pairs, matrix, gaps, got):
    assert len(got) == len(pairs)
    for (x, y), res in zip(pairs, got):
        want = global_align(x, y, matrix, gaps)
        assert _bits(res.score) == _bits(want.score)
        assert res.x_map.dtype == want.x_map.dtype
        assert res.x_map.tobytes() == want.x_map.tobytes()
        assert res.y_map.tobytes() == want.y_map.tobytes()
        assert res.x is x and res.y is y


def _assert_score_matches(pairs, matrix, gaps, got):
    assert got.dtype == np.float64 and got.shape == (len(pairs),)
    for (x, y), score in zip(pairs, got):
        assert _bits(score) == _bits(global_score(x, y, matrix, gaps))


@settings(max_examples=60, deadline=None)
@given(pair_batches(), st.sampled_from((None, 1, 16, 64)))
def test_align_batch_matches_per_pair(problem, max_cells):
    pairs, matrix, gaps = problem
    got = global_align_batch(pairs, matrix, gaps, max_batch_cells=max_cells)
    _assert_align_matches(pairs, matrix, gaps, got)


@settings(max_examples=60, deadline=None)
@given(pair_batches(), st.sampled_from((None, 1, 16, 64)))
def test_score_batch_matches_per_pair(problem, max_cells):
    pairs, matrix, gaps = problem
    got = global_score_batch(pairs, matrix, gaps, max_batch_cells=max_cells)
    _assert_score_matches(pairs, matrix, gaps, got)


@settings(max_examples=25, deadline=None)
@given(pair_batches(max_pairs=4, max_len=6))
def test_small_batch_after_large_batch(problem):
    """A large batch leaves the thread's pooled scratch full of its
    bytes; a smaller batch right after must still match per pair."""
    pairs, matrix, gaps = problem
    alphabet = matrix.alphabet
    rng = np.random.default_rng(len(pairs))
    symbols = np.array(list(alphabet.symbols))
    big = [
        (
            _seq("bx", "".join(rng.choice(symbols, 40)), alphabet),
            _seq("by", "".join(rng.choice(symbols, 37)), alphabet),
        )
        for _ in range(24)
    ]
    global_align_batch(big, matrix, gaps)
    global_score_batch(big, matrix, gaps)
    _assert_align_matches(
        pairs, matrix, gaps, global_align_batch(pairs, matrix, gaps)
    )
    _assert_score_matches(
        pairs, matrix, gaps, global_score_batch(pairs, matrix, gaps)
    )


class TestEdges:
    def test_empty_and_length_one_sequences(self):
        seqs = [_seq(f"s{i}", r, PROTEIN) for i, r in enumerate(
            ("", "W", "", "MKV", "X", "A")
        )]
        pairs = [(a, b) for a in seqs for b in seqs]
        for tf in (1.0, 0.5, 0.0):
            gaps = GapPenalties(10.0, 0.5, tf)
            aligned = global_align_batch(pairs, BLOSUM62, gaps)
            _assert_align_matches(pairs, BLOSUM62, gaps, aligned)
            scores = global_score_batch(pairs, BLOSUM62, gaps)
            _assert_score_matches(pairs, BLOSUM62, gaps, scores)

    def test_wildcards_score_through_the_table(self):
        pairs = [
            (_seq("a", "MKXXTA", PROTEIN), _seq("b", "XKTTAX", PROTEIN)),
            (_seq("c", "XXXX", PROTEIN), _seq("d", "MKTA", PROTEIN)),
        ]
        gaps = GapPenalties()
        _assert_align_matches(
            pairs, BLOSUM62, gaps, global_align_batch(pairs, BLOSUM62, gaps)
        )
        dna = [(_seq("e", "ACGNNT", DNA), _seq("f", "NCGTAT", DNA))]
        _assert_align_matches(
            dna, DNA_SIMPLE, gaps, global_align_batch(dna, DNA_SIMPLE, gaps)
        )

    def test_empty_batch(self):
        assert global_align_batch([]) == []
        assert global_score_batch([]).shape == (0,)

    def test_small_cell_budget_runs_several_chunks(self):
        rng = np.random.default_rng(5)
        symbols = np.array(list(PROTEIN.symbols))
        pairs = [
            (
                _seq("x", "".join(rng.choice(symbols, 9 + k)), PROTEIN),
                _seq("y", "".join(rng.choice(symbols, 12 - k)), PROTEIN),
            )
            for k in range(6)
        ]
        gaps = GapPenalties()
        before = registry().snapshot()
        got = global_align_batch(pairs, BLOSUM62, gaps, max_batch_cells=200)
        delta = registry().snapshot().diff(before)
        assert delta.metrics["dp.batch_calls"].value >= 3
        assert delta.metrics["dp.batch_pairs"].value == len(pairs)
        _assert_align_matches(pairs, BLOSUM62, gaps, got)

    def test_alphabet_mismatch_rejected(self):
        pairs = [(_seq("a", "ACGT", DNA), _seq("b", "ACGT", DNA))]
        with pytest.raises(ValueError, match="alphabet"):
            global_align_batch(pairs, BLOSUM62)

    def test_codes_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one array per pair"):
            affine_codes_batch(
                [np.zeros(3, dtype=np.uint8)],
                [],
                BLOSUM62.matrix,
                10.0,
                0.5,
                align=False,
            )

    def test_code_outside_table_rejected(self):
        with pytest.raises(IndexError, match="outside the substitution"):
            affine_codes_batch(
                [np.array([0, 1, 30], dtype=np.uint8)],
                [np.array([2, 3], dtype=np.uint8)],
                BLOSUM62.matrix,
                10.0,
                0.5,
                align=True,
            )
