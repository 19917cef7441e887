"""Tests for the post-glue refinement extension (paper section-5)."""

import numpy as np
import pytest

from repro import sample_align_d
from repro.align.profile_align import ProfileAlignConfig
from repro.align.scoring import sp_score
from repro.core.config import SampleAlignDConfig
from repro.core.postrefine import bucket_level_refine, refine_bucket_alignment
from repro.datagen.rose import generate_family
from repro.engine.registry import get_sequential_aligner
from repro.metrics import qscore
from repro.seq.alignment import Alignment


class TestRefineBucketAlignment:
    def test_noop_for_zero_rounds(self, small_family):
        aln = get_sequential_aligner("muscle-draft").align(
            small_family.sequences
        )
        assert refine_bucket_alignment(aln, ProfileAlignConfig(), 0) is aln

    def test_noop_for_tiny_alignment(self):
        aln = Alignment.from_rows(["a", "b"], ["MKV", "MKV"])
        assert refine_bucket_alignment(aln, ProfileAlignConfig(), 2) is aln

    def test_sp_never_decreases(self, small_family):
        aln = get_sequential_aligner("muscle-draft").align(
            small_family.sequences
        )
        out = refine_bucket_alignment(aln, ProfileAlignConfig(), 2)
        assert sp_score(out) >= sp_score(aln) - 1e-9

    def test_roundtrip(self, small_family):
        aln = get_sequential_aligner("muscle-draft").align(
            small_family.sequences
        )
        out = refine_bucket_alignment(aln, ProfileAlignConfig(), 1)
        un = out.ungapped()
        for s in small_family.sequences:
            assert un[s.id].residues == s.residues


class TestBucketLevelRefine:
    @pytest.fixture(scope="class")
    def glued(self):
        fam = generate_family(24, 80, relatedness=500, seed=8)
        res = sample_align_d(fam.sequences, n_procs=3)
        buckets = [
            list(d.globalized_ranks.keys()) for d in res.diagnostics
        ]
        return fam, res.alignment, buckets

    def test_sp_never_decreases(self, glued):
        _fam, aln, buckets = glued
        out = bucket_level_refine(aln, buckets, ProfileAlignConfig(), rounds=1)
        assert sp_score(out) >= sp_score(aln) - 1e-9

    def test_roundtrip(self, glued):
        fam, aln, buckets = glued
        out = bucket_level_refine(aln, buckets, ProfileAlignConfig(), rounds=1)
        un = out.ungapped()
        for s in fam.sequences:
            assert un[s.id].residues == s.residues

    def test_zero_rounds_noop(self, glued):
        _fam, aln, buckets = glued
        assert bucket_level_refine(aln, buckets, ProfileAlignConfig(), 0) is aln

    def test_row_order_preserved(self, glued):
        _fam, aln, buckets = glued
        out = bucket_level_refine(aln, buckets, ProfileAlignConfig(), rounds=1)
        assert out.ids == aln.ids


class TestPipelineIntegration:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SampleAlignDConfig(refine_local_rounds=-1)
        with pytest.raises(ValueError):
            SampleAlignDConfig(post_refine_rounds=-2)

    def test_post_refine_never_hurts_sp(self):
        """post_refine starts from the identical glued alignment and only
        accepts improvements, so global SP is monotone."""
        fam = generate_family(32, 80, relatedness=600, seed=5)
        base = sample_align_d(fam.sequences, n_procs=4)
        refined = sample_align_d(
            fam.sequences,
            n_procs=4,
            config=SampleAlignDConfig(post_refine_rounds=2),
        )
        un = refined.alignment.ungapped()
        for s in fam.sequences:
            assert un[s.id].residues == s.residues
        assert refined.sp >= base.sp - 1e-9

    def test_local_refine_run_is_sane(self):
        """refine_local is a heuristic (bucket-local SP up, global effect
        not guaranteed): assert round-trip and a quality floor only."""
        fam = generate_family(32, 80, relatedness=600, seed=5)
        refined = sample_align_d(
            fam.sequences,
            n_procs=4,
            config=SampleAlignDConfig(
                refine_local_rounds=1, post_refine_rounds=1
            ),
        )
        un = refined.alignment.ungapped()
        for s in fam.sequences:
            assert un[s.id].residues == s.residues
        assert qscore(refined.alignment, fam.reference) > 0.4
