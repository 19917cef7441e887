"""The external-memory tile store: index math, views, crash tolerance."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distance import all_pairs
from repro.distance.estimators import DistanceEstimator, get_estimator
from repro.distance.tilestore import (
    CondensedMatrix,
    TileStore,
    condensed_index,
    condensed_row_indices,
    condensed_size,
    condensed_tile_indices,
)
from repro.obs.metrics import registry
from repro.seq.sequence import Sequence


def seqs_from(texts):
    return [Sequence(f"s{i}", t) for i, t in enumerate(texts)]


def random_condensed(n, seed=0):
    rng = np.random.default_rng(seed)
    vec = rng.uniform(0.01, 1.0, size=condensed_size(n))
    dense = np.zeros((n, n))
    ii, jj = np.triu_indices(n, k=1)
    dense[ii, jj] = vec
    dense[jj, ii] = vec
    return vec, dense


class CountingEstimator(DistanceEstimator):
    """ktuple distances that count how many pairs were computed."""

    name = "counting-test"

    def __init__(self):
        self.inner = get_estimator("ktuple")
        self.pairs_computed = 0

    def prepare(self, seqs):
        return self.inner.prepare(seqs)

    def pair_distances(self, seqs, ii, jj, state):
        self.pairs_computed += len(ii)
        return self.inner.pair_distances(seqs, ii, jj, state)

    # The counter is test-local scaffolding; keep it out of the pickle
    # bytes so the store's estimator signature is stable across runs.
    def __getstate__(self):
        return {}

    def __setstate__(self, state):
        self.inner = get_estimator("ktuple")
        self.pairs_computed = 0


class TestIndexMath:
    @given(n=st.integers(2, 60))
    @settings(max_examples=30, deadline=None)
    def test_condensed_index_matches_triu_order(self, n):
        ii, jj = np.triu_indices(n, k=1)
        idx = condensed_index(n, ii, jj)
        assert np.array_equal(idx, np.arange(condensed_size(n)))
        # Symmetric in (i, j).
        assert np.array_equal(condensed_index(n, jj, ii), idx)

    @given(
        n=st.integers(2, 50),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_tile_indices_match_sliced_triu(self, n, data):
        m = condensed_size(n)
        start = data.draw(st.integers(0, m))
        stop = data.draw(st.integers(start, m))
        ii, jj = np.triu_indices(n, k=1)
        ti, tj = condensed_tile_indices(n, start, stop)
        assert np.array_equal(ti, ii[start:stop])
        assert np.array_equal(tj, jj[start:stop])

    def test_tile_indices_out_of_range(self):
        with pytest.raises(ValueError):
            condensed_tile_indices(4, 0, condensed_size(4) + 1)
        with pytest.raises(ValueError):
            condensed_tile_indices(4, -1, 2)

    @given(n=st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_row_indices_cover_every_offdiagonal(self, n):
        vec = np.arange(condensed_size(n), dtype=np.float64)
        dense = np.zeros((n, n))
        ii, jj = np.triu_indices(n, k=1)
        dense[ii, jj] = vec
        dense[jj, ii] = vec
        for r in range(n):
            idx, cols = condensed_row_indices(n, r)
            assert len(idx) == n - 1 and len(cols) == n - 1
            assert r not in cols
            row = np.zeros(n)
            row[cols] = vec[idx]
            assert np.array_equal(row, dense[r])


class TestCondensedMatrix:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="1-D"):
            CondensedMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="does not match"):
            CondensedMatrix(np.zeros(4))  # no n with n*(n-1)/2 == 4
        with pytest.raises(ValueError, match="does not match"):
            CondensedMatrix(np.zeros(3), n=4)

    def test_shape_protocol(self):
        m = CondensedMatrix(np.zeros(condensed_size(5)))
        assert m.shape == (5, 5) and len(m) == 5
        assert m.dtype == np.float64

    def test_pair_lookup_matches_dense(self):
        vec, dense = random_condensed(7)
        m = CondensedMatrix(vec)
        for i in range(7):
            for j in range(7):
                assert m[i, j] == dense[i, j]
        # Array indexing broadcasts.
        ii = np.array([0, 3, 6, 2])
        jj = np.array([5, 3, 0, 2])
        assert np.array_equal(m[ii, jj], dense[ii, jj])

    def test_single_index_rejected(self):
        m = CondensedMatrix(np.zeros(condensed_size(4)))
        with pytest.raises(TypeError, match="pair indexing"):
            m[1]
        with pytest.raises(IndexError):
            m[0, 4]

    def test_row_rows_submatrix_to_dense(self):
        vec, dense = random_condensed(9, seed=3)
        m = CondensedMatrix(vec)
        for r in range(9):
            assert np.array_equal(m.row(r), dense[r])
        sel = [7, 0, 4]
        assert np.array_equal(m.rows(sel), dense[sel])
        assert np.array_equal(m.submatrix(sel), dense[np.ix_(sel, sel)])
        assert np.array_equal(m.to_dense(), dense)

    def test_offdiag_stats_streams(self):
        vec, dense = random_condensed(12, seed=1)
        m = CondensedMatrix(vec)
        stats = m.offdiag_stats(chunk=7)  # force multiple chunks
        assert stats["min"] == vec.min()
        assert stats["max"] == vec.max()
        assert stats["mean"] == pytest.approx(vec.mean())


class TestTileStore:
    def test_write_read_roundtrip(self, tmp_path):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4, "v": 1})
        vals = np.array([0.5, 0.25, 1.0])
        store.write_tile(0, vals)
        assert np.array_equal(store.read_tile(0, 3), vals)

    def test_missing_tile_is_none(self, tmp_path):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4})
        assert store.read_tile(0, 3) is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda b: b[: len(b) // 2],  # truncated
            lambda b: b[:-8] + b"\x00" * 8,  # garbled payload, same length
            lambda b: b"XXXXXXXX" + b[8:],  # wrong magic
            lambda b: b"",  # empty file
        ],
    )
    def test_corrupt_tile_reads_as_miss_and_is_dropped(
        self, tmp_path, corrupt
    ):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4})
        store.write_tile(0, np.array([0.5, 0.25, 1.0]))
        path = store._tile_path(0)
        path.write_bytes(corrupt(path.read_bytes()))
        before = registry().counter("tilestore.corrupt_dropped").value
        assert store.read_tile(0, 3) is None
        assert not path.exists()  # dropped, so the rerun recomputes it
        after = registry().counter("tilestore.corrupt_dropped").value
        assert after == before + 1

    def test_wrong_offset_or_count_is_a_miss(self, tmp_path):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4})
        store.write_tile(8, np.array([0.5]))
        # Right bytes, wrong expected count.
        assert store.read_tile(8, 2) is None

    def test_prepare_resumes_on_matching_header(self, tmp_path):
        store = TileStore(tmp_path / "s")
        header = {"n": 4, "signature": "abc"}
        assert store.prepare(header) is False
        store.write_tile(0, np.array([0.5, 0.25, 1.0]))
        assert store.prepare(header) is True
        assert store.read_tile(0, 3) is not None  # tiles survived

    def test_prepare_wipes_on_header_mismatch(self, tmp_path):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4, "signature": "abc"})
        store.write_tile(0, np.array([0.5, 0.25, 1.0]))
        assert store.prepare({"n": 4, "signature": "DIFFERENT"}) is False
        assert store.read_tile(0, 3) is None  # stale tiles gone

    def test_missing_tiles_counts_resumed(self, tmp_path):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4})
        bounds = [(0, 2), (2, 4), (4, 6)]
        store.write_tile(2, np.array([0.1, 0.2]))
        before = registry().counter("tilestore.resumed_tiles").value
        assert store.missing_tiles(bounds) == [(0, 2), (4, 6)]
        after = registry().counter("tilestore.resumed_tiles").value
        assert after == before + 1

    def test_consolidate_and_matrix(self, tmp_path):
        n = 5
        vec, dense = random_condensed(n)
        store = TileStore(tmp_path / "s")
        store.prepare({"n": n, "n_pairs": vec.size})
        bounds = [(0, 4), (4, 7), (7, 10)]
        for a, b in bounds:
            store.write_tile(a, vec[a:b])
        store.consolidate(bounds, vec.size)
        assert store.is_complete()
        m = store.matrix(n)
        assert isinstance(m.condensed, np.memmap)
        assert m.condensed.tobytes() == vec.tobytes()
        assert np.array_equal(m.to_dense(), dense)
        # Tiles deleted by default after consolidation.
        assert store.stats()["tiles"] == 0

    def test_consolidate_keep_tiles(self, tmp_path):
        vec, _ = random_condensed(4)
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4, "n_pairs": vec.size})
        store.write_tile(0, vec)
        store.consolidate([(0, vec.size)], vec.size, keep_tiles=True)
        assert store.stats()["tiles"] == 1

    def test_consolidate_gap_raises(self, tmp_path):
        vec, _ = random_condensed(5)
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 5, "n_pairs": vec.size})
        store.write_tile(0, vec[:4])
        with pytest.raises(RuntimeError, match="vanished|gap"):
            store.consolidate([(0, 4), (4, 10)], vec.size)

    def test_incomplete_without_marker(self, tmp_path):
        store = TileStore(tmp_path / "s")
        store.prepare({"n": 4, "n_pairs": 6})
        assert not store.is_complete()


class TestAllPairsMemmap:
    @pytest.fixture(scope="class")
    def family(self):
        from repro.datagen.rose import generate_family

        fam = generate_family(
            n_sequences=9, mean_length=50, relatedness=300, seed=13,
            track_alignment=False,
        )
        return list(fam.sequences)

    def test_memmap_bytes_identical_to_memory(self, family, tmp_path):
        dense = all_pairs(family, "ktuple")
        m = all_pairs(
            family, "ktuple", out="memmap", store_dir=tmp_path / "s"
        )
        n = len(family)
        ii, jj = np.triu_indices(n, k=1)
        assert m.condensed.tobytes() == dense[ii, jj].tobytes()
        assert np.array_equal(m.to_dense(), dense)

    def test_consolidated_store_short_circuits(self, family, tmp_path):
        est = CountingEstimator()
        first = all_pairs(
            family, est, out="memmap", store_dir=tmp_path / "s"
        )
        assert est.pairs_computed == condensed_size(len(family))
        again = all_pairs(
            family, est, out="memmap", store_dir=tmp_path / "s"
        )
        assert est.pairs_computed == condensed_size(len(family))  # no work
        assert again.condensed.tobytes() == first.condensed.tobytes()

    def test_resume_recomputes_only_damaged_tiles(self, family, tmp_path):
        root = tmp_path / "s"
        est = CountingEstimator()
        expected = all_pairs(
            family, est, out="memmap", store_dir=root,
            tile_pairs=5, keep_store_tiles=True,
        )
        expected_bytes = expected.condensed.tobytes()
        full_work = est.pairs_computed
        # Simulate a crash after a partial run: consolidation undone,
        # one tile truncated, one deleted.
        store = TileStore(root)
        store.complete_path.unlink()
        store.condensed_path.unlink()
        t0 = store._tile_path(0)
        t0.write_bytes(t0.read_bytes()[:10])  # truncated
        store._tile_path(5).unlink()  # missing
        before = registry().counter("tilestore.resumed_tiles").value
        resumed = all_pairs(
            family, est, out="memmap", store_dir=root, tile_pairs=5
        )
        assert resumed.condensed.tobytes() == expected_bytes
        # Exactly the two damaged tiles (5 pairs each) were recomputed.
        assert est.pairs_computed == full_work + 10
        n_tiles = -(-condensed_size(len(family)) // 5)
        resumed_tiles = (
            registry().counter("tilestore.resumed_tiles").value - before
        )
        assert resumed_tiles == n_tiles - 2  # all but the two damaged

    def test_store_dir_requires_memmap(self, family, tmp_path):
        with pytest.raises(ValueError, match="memmap"):
            all_pairs(family, "ktuple", store_dir=tmp_path / "s")

    def test_unknown_out_mode(self, family):
        with pytest.raises(ValueError, match="out mode"):
            all_pairs(family, "ktuple", out="ram")

    def test_header_binds_configuration(self, family, tmp_path):
        root = tmp_path / "s"
        all_pairs(family, "ktuple", out="memmap", store_dir=root, k=3)
        header = json.loads((root / "header.json").read_text())
        assert header["n"] == len(family)
        assert header["estimator"] == "ktuple"
        # A different estimator configuration must not resume this store.
        sig = header["signature"]
        all_pairs(family, "ktuple", out="memmap", store_dir=root, k=4)
        header2 = json.loads((root / "header.json").read_text())
        assert header2["signature"] != sig

    @pytest.mark.parametrize("backend", [None, "processes"])
    def test_store_binds_its_input(self, backend, tmp_path):
        """Two different families of the same n share one store_dir:
        the second run must not be served the first one's matrix."""
        from repro.datagen.rose import generate_family

        a, b = (
            list(generate_family(
                n_sequences=20, mean_length=60, relatedness=300, seed=seed,
                track_alignment=False,
            ).sequences)
            for seed in (21, 22)
        )
        root = tmp_path / "s"
        ii, jj = np.triu_indices(20, k=1)
        workers = 2 if backend else None
        # b, then a in reverse order: same residues, different pairs.
        for seqs in (a, b, a[::-1], a):
            got = all_pairs(
                seqs, "ktuple", out="memmap", store_dir=root,
                backend=backend, workers=workers,
            )
            want = all_pairs(seqs, "ktuple")[ii, jj]
            assert got.condensed.tobytes() == want.tobytes()
        header = json.loads((root / "header.json").read_text())
        assert header["version"] == 2
        assert len(header["input"]) == 64
