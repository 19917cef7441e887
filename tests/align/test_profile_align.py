"""Tests for repro.align.profile_align."""

import numpy as np
import pytest

from repro.align.profile import Profile
from repro.align.profile_align import (
    ProfileAlignConfig,
    align_profiles,
    profile_score_matrix,
    score_profiles,
)
from repro.seq.alignment import Alignment
from repro.seq.matrices import GapPenalties
from repro.seq.sequence import Sequence


def prof(rows, ids=None):
    ids = ids or [f"r{i}" for i in range(len(rows))]
    return Profile(Alignment.from_rows(ids, rows))


class TestScoreMatrix:
    def test_matches_manual_loop(self):
        cfg = ProfileAlignConfig()
        px = prof(["MK-V", "MALV"], ids=["a", "b"])
        py = prof(["MKV"], ids=["c"])
        S = profile_score_matrix(px, py, cfg)
        M = cfg.matrix.residue_part
        for i in range(px.n_columns):
            for j in range(py.n_columns):
                manual = px.frequencies[i] @ M @ py.frequencies[j]
                assert np.isclose(S[i, j], manual)

    def test_gappy_columns_weigh_less(self):
        cfg = ProfileAlignConfig()
        full = prof(["MM", "MM"])
        gappy = prof(["MM", "-M"])
        sf = profile_score_matrix(full, prof(["M"], ids=["z"]), cfg)
        sg = profile_score_matrix(gappy, prof(["M"], ids=["z"]), cfg)
        assert sg[0, 0] < sf[0, 0]


class TestGapVectors:
    def test_occupancy_scaling(self):
        cfg = ProfileAlignConfig()
        p = prof(["M-", "MM"])
        go, ge = cfg.gap_vectors(p)
        assert go[0] == cfg.gaps.open  # fully occupied column
        assert go[1] == pytest.approx(cfg.gaps.open * 0.5)

    def test_floor(self):
        cfg = ProfileAlignConfig(min_gap_scale=0.25)
        p = prof(["M-", "M-", "M-", "M-"])
        go, _ge = cfg.gap_vectors(p)
        assert go[1] == pytest.approx(cfg.gaps.open * 0.25)

    def test_disabled(self):
        cfg = ProfileAlignConfig(occupancy_scaled_gaps=False)
        go, ge = cfg.gap_vectors(prof(["M-", "MM"]))
        assert np.isscalar(go) and go == cfg.gaps.open


class TestAlignProfiles:
    def test_identical_profiles_no_gaps(self):
        px = prof(["MKTAYIAK"], ids=["a"])
        py = prof(["MKTAYIAK"], ids=["b"])
        merged, res = align_profiles(px, py)
        assert merged.n_columns == 8
        assert (res.x_map >= 0).all() and (res.y_map >= 0).all()

    def test_rows_preserved(self, tiny_seqs):
        from repro.engine.registry import get_sequential_aligner

        aln = get_sequential_aligner("muscle-draft").align(tiny_seqs)
        px = Profile(aln.select_rows(aln.ids[:2]).drop_all_gap_columns())
        py = Profile(aln.select_rows(aln.ids[2:]).drop_all_gap_columns())
        merged, _res = align_profiles(px, py)
        un = merged.alignment.ungapped()
        for s in tiny_seqs:
            assert un[s.id].residues == s.residues

    def test_score_matches_align(self):
        px = prof(["MKTAYIAK", "MKTA-IAK"], ids=["a", "b"])
        py = prof(["MKAYIAK"], ids=["c"])
        cfg = ProfileAlignConfig()
        _merged, res = align_profiles(px, py, cfg)
        assert np.isclose(res.score, score_profiles(px, py, cfg))

    def test_alphabet_mismatch(self):
        from repro.seq.matrices import DNA_SIMPLE
        from repro.seq.alphabet import DNA

        cfg = ProfileAlignConfig(matrix=DNA_SIMPLE, gaps=GapPenalties(5, 1))
        px = prof(["MK"], ids=["a"])
        py = Profile(
            Alignment.from_rows(["b"], ["AC"], DNA)
        )
        with pytest.raises(ValueError, match="alphabet"):
            align_profiles(px, py, cfg)
