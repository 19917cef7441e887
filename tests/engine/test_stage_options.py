"""The guide-tree stage options: one table of names, a pinned wire format.

The flat option names (``distance``, ``distance_backend``, ...) are the
wire format: ``AlignRequest.content_hash()`` hashes ``engine_kwargs`` by
them, and the gateway folds its ``defaults`` into requests under them.
The pinned hashes below were computed before the options were declared
in one place, so a refactor that changes any of them breaks every
cache and coalescing key.
"""

import dataclasses
import pickle

import pytest

from repro.cli import build_parser
from repro.distance import FullDpDistance
from repro.engine import AlignRequest, get_engine
from repro.engine.registry import DISTANCE_OPTION_NAMES, TREE_OPTION_NAMES
from repro.msa import (
    CenterStar,
    ClustalWLike,
    GuideTreeAligner,
    MafftLike,
    MuscleLike,
)
from repro.seq.sequence import Sequence
from repro.serve.gateway import DEFAULT_KEYS, AlignmentGateway

SEQS = (
    Sequence("a", "MKVLAAGIVGL"),
    Sequence("b", "MKVLSAGIVAL"),
    Sequence("c", "MRVLAGGIVGLW"),
)


class TestWireFormat:
    def test_clustalw_full_flat_distance_kwargs(self):
        request = AlignRequest(
            sequences=SEQS,
            engine="clustalw-full",
            engine_kwargs={
                "distance_backend": "processes",
                "distance_workers": 2,
                "distance_out": "memmap",
                "distance_store_dir": "tiles",
            },
        )
        assert request.content_hash() == (
            "922ee525ca62a5a4233cdf5455f6ade7dde789d66ce26749dd4ecaf5371ba0a3"
        )

    def test_center_star_after_gateway_fold(self):
        defaults = {
            "distance": "ktuple", "distance_backend": "threads",
            "tree": "upgma",
        }
        request = AlignRequest(sequences=SEQS, engine="center-star")
        with AlignmentGateway(n_workers=1, defaults=defaults) as gw:
            ticket = gw.submit(request)
            assert ticket.request_hash == (
                "3282c94a55053773a9c18a148bb8902705125c8a8b446d3baffd1836a4057106"
            )
            assert ticket.wait(60).alignment.n_rows == len(SEQS)

    def test_sample_align_d_after_backend_fold(self):
        request = AlignRequest(
            sequences=SEQS, engine="sample-align-d", n_procs=2, seed=3
        )
        with AlignmentGateway(
            n_workers=1, defaults={"backend": "processes"}
        ) as gw:
            ticket = gw.submit(request)
            assert ticket.request_hash == (
                "0200589ff459c263dce9a2e9134d0fa8dc0a30d3cd1e70a1d96f488ba04614a6"
            )
            assert ticket.wait(120).alignment.n_rows == len(SEQS)


class TestPerfbenchConstruction:
    def test_clustalw_full_flat_kwargs_resolve(self, tiny_seqs, tmp_path):
        """Built exactly as the benchmark's clustalw-fulldp workload
        builds its engine per job."""
        store = tmp_path / "store-1"
        engine = get_engine(
            "clustalw-full",
            distance_store_dir=str(store),
            **{
                "distance_backend": "processes",
                "distance_workers": 2,
                "distance_out": "memmap",
            },
        )
        aligner = engine.aligner
        est, backend, workers, out, store_dir = aligner._distance_stage()
        expected = FullDpDistance(
            matrix=aligner.scoring.matrix, gaps=aligner.scoring.gaps
        )
        assert isinstance(est, FullDpDistance)
        assert est == expected
        # The tile-store header signs the pickled estimator.
        assert pickle.dumps(est) == pickle.dumps(expected)
        assert (backend, workers, out, store_dir) == (
            "processes", 2, "memmap", str(store)
        )
        request = AlignRequest(tuple(tiny_seqs), engine="clustalw-full")
        stored = engine.run(request).alignment
        assert (store / "complete.json").exists()
        serial = ClustalWLike(distance="full-dp").align(tiny_seqs)
        assert stored.to_fasta() == serial.to_fasta()


class TestOneTable:
    def test_base_fields_are_the_registry_table(self):
        names = [f.name for f in dataclasses.fields(GuideTreeAligner)]
        assert names == list(DISTANCE_OPTION_NAMES + TREE_OPTION_NAMES)

    @pytest.mark.parametrize(
        "cls", [ClustalWLike, MuscleLike, MafftLike, CenterStar]
    )
    def test_baselines_accept_every_stage_kwarg(self, cls):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(DISTANCE_OPTION_NAMES + TREE_OPTION_NAMES) <= fields
        aligner = cls(
            distance="ktuple", distance_backend="threads",
            distance_workers=2, distance_out="memmap",
            distance_store_dir="tiles", tree="upgma",
            tree_backend="threads", tree_workers=2,
        )
        assert aligner.distance_store_dir == "tiles"

    def test_clustalw_rejects_distance_mode(self):
        with pytest.raises(TypeError):
            ClustalWLike(distance_mode="full")

    def test_gateway_keys(self):
        assert DEFAULT_KEYS == (
            "backend", "distance", "distance_backend", "distance_out",
            "distance_store_dir", "tree", "tree_backend",
        )
        with pytest.raises(ValueError, match="unknown gateway defaults"):
            AlignmentGateway(n_workers=1, defaults={"distance_workers": 2})

    def test_cli_flags_follow_the_table(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a.choices, dict) and "align" in a.choices
        )
        expected = {
            "align": DEFAULT_KEYS,
            "serve": DEFAULT_KEYS,
            "loadtest": (
                "backend", "distance", "distance_backend", "tree",
                "tree_backend",
            ),
            "trace": ("distance_backend", "tree_backend"),
        }
        for command, names in expected.items():
            dests = {a.dest for a in sub.choices[command]._actions}
            known = {"backend"} | set(
                DISTANCE_OPTION_NAMES + TREE_OPTION_NAMES
            )
            assert dests & known == set(names), command
