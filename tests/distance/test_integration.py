"""The distance seam threaded through baselines, engines and serving."""

import numpy as np
import pytest

import repro
from repro.distance import DistanceConfig, KtupleDistance
from repro.engine import AlignRequest, get_engine
from repro.engine.registry import engine_distance_options
from repro.msa import (
    CenterStar,
    ClustalWLike,
    MafftLike,
    MuscleLike,
    ParallelClustalW,
)
from repro.serve.gateway import AlignmentGateway

BASELINES = [
    lambda **kw: ClustalWLike(**kw),
    lambda **kw: MuscleLike(refine=False, **kw),
    lambda **kw: MafftLike(iterations=0, **kw),
    lambda **kw: CenterStar(**kw),
]


class TestBaselineSeam:
    @pytest.mark.parametrize("make", BASELINES)
    def test_distance_backend_identical_alignment(self, make, tiny_seqs):
        """threads/processes distance stages reproduce the serial result
        byte-for-byte (the acceptance criterion)."""
        serial = make().align(tiny_seqs)
        threads = make(distance_backend="threads",
                       distance_workers=2).align(tiny_seqs)
        assert serial == threads
        assert serial.to_fasta() == threads.to_fasta()

    def test_processes_distance_backend_identical(self, tiny_seqs):
        serial = ClustalWLike().align(tiny_seqs)
        procs = ClustalWLike(
            distance_backend="processes", distance_workers=2
        ).align(tiny_seqs)
        assert serial.to_fasta() == procs.to_fasta()

    def test_parallel_baseline_distance_backend_identical(self, tiny_seqs):
        serial = ParallelClustalW().align(tiny_seqs, n_procs=1)
        par = ParallelClustalW().align(tiny_seqs, n_procs=4)
        assert serial.alignment.to_fasta() == par.alignment.to_fasta()

    def test_clustalw_full_preset_equals_distance_name(self, tiny_seqs):
        request = AlignRequest(tuple(tiny_seqs), engine="clustalw-full")
        preset = get_engine("clustalw-full").run(request).alignment
        by_name = ClustalWLike(distance="full-dp").align(tiny_seqs)
        assert preset == by_name
        assert preset.to_fasta() == by_name.to_fasta()

    def test_distance_config_value(self, tiny_seqs):
        cfg = DistanceConfig(estimator="ktuple", k=3, backend="threads",
                             workers=2)
        aln = CenterStar(distance=cfg).align(tiny_seqs)
        assert aln == CenterStar(distance=KtupleDistance(k=3)).align(
            tiny_seqs
        )

    def test_distance_dict_value(self, tiny_seqs):
        aln = MuscleLike(
            refine=False, distance={"estimator": "ktuple", "k": 5}
        ).align(tiny_seqs)
        assert aln == MuscleLike(refine=False, kmer_k=5).align(tiny_seqs)

    @pytest.mark.parametrize("make", BASELINES)
    def test_bad_distance_options_fail_fast(self, make):
        with pytest.raises((ValueError, KeyError)):
            make(distance="nope")
        with pytest.raises(ValueError):
            make(distance_backend="gpu")
        with pytest.raises(ValueError):
            make(distance_workers=0)

    def test_parallel_baseline_estimator_choice(self, tiny_seqs):
        """The stage-parallel baseline can now parallelise full-DP."""
        res = ParallelClustalW(distance="full-dp").align(
            tiny_seqs, n_procs=3
        )
        assert res.alignment.n_rows == len(tiny_seqs)
        assert res.ledger.n_messages() > 0

    def test_parallel_baseline_rejects_nested_backend(self):
        with pytest.raises(ValueError, match="nested"):
            ParallelClustalW(
                distance={"estimator": "ktuple", "backend": "threads"}
            )


class TestEngineSeam:
    def test_engine_kwargs_reach_the_aligner(self, tiny_seqs):
        base = repro.align(tiny_seqs, engine="center-star")
        via = repro.align(
            tiny_seqs,
            engine="center-star",
            distance="ktuple",
            distance_backend="threads",
        )
        assert base.alignment == via.alignment

    def test_distance_options_change_the_content_hash(self, tiny_seqs):
        plain = AlignRequest(tuple(tiny_seqs), engine="clustalw")
        opinionated = AlignRequest(
            tuple(tiny_seqs),
            engine="clustalw",
            engine_kwargs={"distance": "full-dp"},
        )
        assert plain.content_hash() != opinionated.content_hash()

    def test_registry_advertises_the_seam(self):
        for name in ("clustalw", "muscle", "mafft-nwnsi", "center-star"):
            assert engine_distance_options(name) == {
                "distance", "distance_backend", "distance_workers",
                "distance_out", "distance_store_dir",
            }
        assert engine_distance_options("parallel-baseline") == {
            "distance", "distance_out", "distance_store_dir"
        }
        assert engine_distance_options("tcoffee") == frozenset()
        assert engine_distance_options("sample-align-d") == frozenset()
        assert engine_distance_options("not-an-engine") == frozenset()

    def test_sample_align_d_local_aligner_distance(self, tiny_seqs):
        """The distance choice reaches the per-bucket local aligners."""
        cfg = repro.SampleAlignDConfig(
            local_aligner="muscle-draft",
            local_aligner_kwargs={"distance": "kmer-fraction"},
        )
        result = repro.align(
            tiny_seqs, engine="sample-align-d", n_procs=2, config=cfg
        )
        assert result.alignment.n_rows == len(tiny_seqs)


class TestGatewaySeam:
    def test_defaults_rewrite_pre_hash(self, tiny_seqs):
        request = AlignRequest(tuple(tiny_seqs), engine="center-star")
        expected = AlignRequest(
            tuple(tiny_seqs),
            engine="center-star",
            engine_kwargs={
                "distance": "ktuple", "distance_backend": "threads"
            },
        )
        with AlignmentGateway(
            n_workers=1,
            defaults={"distance": "ktuple", "distance_backend": "threads"},
        ) as gw:
            ticket = gw.submit(request)
            assert ticket.request_hash == expected.content_hash()
            assert ticket.wait(30).alignment.n_rows == len(tiny_seqs)

    def test_opinionated_request_untouched(self, tiny_seqs):
        request = AlignRequest(
            tuple(tiny_seqs),
            engine="center-star",
            engine_kwargs={"distance": "kmer-fraction"},
        )
        with AlignmentGateway(
            n_workers=1, defaults={"distance": "ktuple"}
        ) as gw:
            ticket = gw.submit(request)
            assert ticket.request_hash == request.content_hash()

    def test_non_capable_engine_untouched(self, tiny_seqs):
        request = AlignRequest(tuple(tiny_seqs), engine="tcoffee")
        with AlignmentGateway(
            n_workers=1,
            defaults={"distance": "full-dp", "distance_backend": "threads"},
        ) as gw:
            ticket = gw.submit(request)
            assert ticket.request_hash == request.content_hash()

    def test_coalescing_sees_effective_request(self, tiny_seqs):
        """A plain request and a pre-opinionated identical request
        coalesce once the gateway default is folded in."""
        plain = AlignRequest(tuple(tiny_seqs), engine="center-star")
        explicit = AlignRequest(
            tuple(tiny_seqs),
            engine="center-star",
            engine_kwargs={"distance_backend": "threads"},
        )
        with AlignmentGateway(
            n_workers=1, defaults={"distance_backend": "threads"}
        ) as gw:
            t1 = gw.submit(plain)
            t2 = gw.submit(explicit)
            assert t1.request_hash == t2.request_hash
            t1.wait(30)

    def test_bad_defaults_rejected(self):
        with pytest.raises(ValueError):
            AlignmentGateway(n_workers=1, defaults={"distance": "nope"})
        with pytest.raises(ValueError):
            AlignmentGateway(n_workers=1, defaults={"distance_backend": "gpu"})

    def test_metrics_expose_distance_defaults(self):
        with AlignmentGateway(
            n_workers=1,
            defaults={"distance": "ktuple", "distance_backend": "threads"},
        ) as gw:
            m = gw.metrics()
            assert m["default_distance"] == "ktuple"
            assert m["default_distance_backend"] == "threads"

    def test_metrics_expose_placement_defaults(self, tmp_path):
        store = str(tmp_path / "Tiles")
        with AlignmentGateway(
            n_workers=1,
            defaults={"distance_out": "MemMap", "distance_store_dir": store},
        ) as gw:
            m = gw.metrics()
            assert m["default_distance_out"] == "memmap"
            # A path, not a name: its case is kept.
            assert m["default_distance_store_dir"] == store

    def test_store_dir_folds_only_with_out(self, tiny_seqs, tmp_path):
        defaults = {
            "distance_out": "memmap",
            "distance_store_dir": str(tmp_path / "tiles"),
        }
        plain = AlignRequest(tuple(tiny_seqs), engine="center-star")
        own_out = AlignRequest(
            tuple(tiny_seqs),
            engine="center-star",
            engine_kwargs={"distance_out": "condensed"},
        )
        folded = AlignRequest(
            tuple(tiny_seqs), engine="center-star", engine_kwargs=defaults
        )
        with AlignmentGateway(n_workers=1, defaults=defaults) as gw:
            ticket = gw.submit(plain)
            assert ticket.request_hash == folded.content_hash()
            assert gw.submit(own_out).request_hash == own_out.content_hash()
            ticket.wait(30)

    def test_defaults_case_normalised(self, tiny_seqs):
        """'KTuple' and 'ktuple' defaults must not split cache keys."""
        request = AlignRequest(tuple(tiny_seqs), engine="center-star")
        with AlignmentGateway(
            n_workers=1,
            defaults={"distance": "KTuple", "distance_backend": "Threads"},
        ) as upper, AlignmentGateway(
            n_workers=1,
            defaults={"distance": "ktuple", "distance_backend": "threads"},
        ) as lower:
            assert (
                upper.submit(request).request_hash
                == lower.submit(request).request_hash
            )
