"""End-to-end tests of the Sample-Align-D pipeline."""

import numpy as np
import pytest

from repro import sample_align_d
from repro.core.config import SampleAlignDConfig
from repro.datagen.rose import generate_family
from repro.engine.registry import get_sequential_aligner
from repro.kmer.rank import RankConfig
from repro.metrics import qscore
from repro.samplesort import max_bucket_bound
from repro.seq.sequence import Sequence, SequenceSet


class TestConfig:
    def test_defaults(self):
        cfg = SampleAlignDConfig()
        assert cfg.local_aligner == "muscle-p"
        assert cfg.tweak

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleAlignDConfig(samples_per_proc=0)
        with pytest.raises(ValueError):
            SampleAlignDConfig(ancestor_min_occupancy=1.5)

    def test_factories(self):
        cfg = SampleAlignDConfig(
            local_aligner="center-star", root_aligner="muscle-draft"
        )
        assert cfg.make_local_aligner().name == "center-star"
        assert cfg.make_root_aligner().name == "muscle"


@pytest.mark.parametrize("n_procs", [1, 2, 4, 7])
class TestEndToEnd:
    def test_roundtrip_and_order(self, n_procs, diverse_family):
        res = sample_align_d(diverse_family.sequences, n_procs=n_procs)
        aln = res.alignment
        assert aln.ids == diverse_family.sequences.ids
        un = aln.ungapped()
        for s in diverse_family.sequences:
            assert un[s.id].residues == s.residues

    def test_equal_row_lengths(self, n_procs, diverse_family):
        res = sample_align_d(diverse_family.sequences, n_procs=n_procs)
        assert res.alignment.matrix.shape[0] == len(diverse_family.sequences)

    def test_bucket_bound(self, n_procs, diverse_family):
        res = sample_align_d(diverse_family.sequences, n_procs=n_procs)
        n = len(diverse_family.sequences)
        bound = max_bucket_bound(n, n_procs) + n_procs  # tie slack
        assert res.bucket_sizes.max() <= bound
        assert res.bucket_sizes.sum() == n


class TestBehaviour:
    def test_deterministic(self, diverse_family):
        a = sample_align_d(diverse_family.sequences, n_procs=4)
        b = sample_align_d(diverse_family.sequences, n_procs=4)
        assert a.alignment == b.alignment
        assert np.allclose(a.sp, b.sp)

    def test_seeded_placement_still_roundtrips(self, diverse_family):
        res = sample_align_d(diverse_family.sequences, n_procs=4, seed=123)
        assert res.alignment.ids == diverse_family.sequences.ids
        un = res.alignment.ungapped()
        for s in diverse_family.sequences:
            assert un[s.id].residues == s.residues

    def test_quality_close_to_sequential(self, diverse_family):
        res = sample_align_d(diverse_family.sequences, n_procs=4)
        q_par = qscore(res.alignment, diverse_family.reference)
        seq_aln = get_sequential_aligner("muscle-p").align(
            diverse_family.sequences
        )
        q_seq = qscore(seq_aln, diverse_family.reference)
        # Paper's Table 2 band: parallel quality comparable to (but a bit
        # below) the sequential aligner; 0.544 vs 0.645 there.
        assert q_par >= q_seq - 0.25
        assert q_par > 0.2

    def test_tweak_ablation_lowers_quality(self, diverse_family):
        with_tweak = sample_align_d(diverse_family.sequences, n_procs=4)
        without = sample_align_d(
            diverse_family.sequences,
            n_procs=4,
            config=SampleAlignDConfig(tweak=False),
        )
        q_with = qscore(with_tweak.alignment, diverse_family.reference)
        q_without = qscore(without.alignment, diverse_family.reference)
        assert q_with > q_without

    def test_fewer_sequences_than_ranks(self):
        seqs = SequenceSet(
            [Sequence(f"s{i}", "MKTAYIAKQR" + "LV" * i) for i in range(3)]
        )
        res = sample_align_d(seqs, n_procs=5)
        assert res.alignment.n_rows == 3
        un = res.alignment.ungapped()
        for s in seqs:
            assert un[s.id].residues == s.residues

    def test_identical_sequences(self):
        seqs = SequenceSet(
            [Sequence(f"s{i}", "MKTAYIAKQRQISFVK") for i in range(8)]
        )
        res = sample_align_d(seqs, n_procs=4)
        assert res.alignment.n_columns == 16
        assert res.bucket_sizes.sum() == 8

    def test_alternative_local_aligner(self, small_family):
        cfg = SampleAlignDConfig(local_aligner="center-star")
        res = sample_align_d(small_family.sequences, n_procs=3, config=cfg)
        un = res.alignment.ungapped()
        for s in small_family.sequences:
            assert un[s.id].residues == s.residues

    def test_custom_rank_config(self, small_family):
        cfg = SampleAlignDConfig(rank_config=RankConfig(k=3))
        res = sample_align_d(small_family.sequences, n_procs=2, config=cfg)
        assert res.alignment.n_rows == len(small_family.sequences)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            sample_align_d(SequenceSet(), n_procs=2)

    def test_bad_nprocs(self, small_family):
        with pytest.raises(ValueError):
            sample_align_d(small_family.sequences, n_procs=0)


class TestResultObject:
    @pytest.fixture(scope="class")
    def result(self):
        fam = generate_family(32, 80, relatedness=600, seed=2,
                              track_alignment=False)
        return sample_align_d(fam.sequences, n_procs=4)

    def test_summary_mentions_key_facts(self, result):
        s = result.summary()
        assert "p=4" in s and "buckets" in s

    def test_ledger_populated(self, result):
        assert result.ledger.n_messages() > 0
        assert result.ledger.total_bytes() > 0
        assert result.modeled_time > 0

    def test_ranks_by_id_complete(self, result):
        ranks = result.ranks_by_id()
        assert len(ranks) == result.alignment.n_rows
        assert all(np.isfinite(v) for v in ranks.values())

    def test_pivots_sorted(self, result):
        assert (np.diff(result.pivots) >= 0).all()
        assert result.pivots.size == 3

    def test_global_ancestor_present(self, result):
        assert result.global_ancestor is not None
        assert len(result.global_ancestor) > 10

    def test_diagnostics_per_rank(self, result):
        assert [d.rank for d in result.diagnostics] == [0, 1, 2, 3]
        assert sum(d.n_initial for d in result.diagnostics) == 32
