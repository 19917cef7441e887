"""Property and unit tests for the repro.distance estimators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distance import (
    DistanceConfig,
    FullDpDistance,
    KtupleDistance,
    all_pairs,
    available_estimators,
    estimator_info,
    get_estimator,
    identity_to_distance,
    kimura_distance,
    register_estimator,
    resolve_distance_stage,
    unregister_estimator,
)
from repro.seq.sequence import Sequence

AMINO = "ACDEFGHIKLMNPQRSTVWY"


def seqs_from(texts):
    return [Sequence(f"s{i}", t) for i, t in enumerate(texts)]


seq_lists = st.lists(
    st.text(alphabet=AMINO, min_size=1, max_size=18),
    min_size=2,
    max_size=5,
)


class TestEveryEstimatorProperties:
    """The registry-wide contract: symmetric, zero-diagonal, finite."""

    @pytest.mark.parametrize("name", sorted(available_estimators()))
    @given(texts=seq_lists)
    @settings(max_examples=15, deadline=None)
    def test_symmetric_zero_diagonal_finite(self, name, texts):
        d = all_pairs(seqs_from(texts), name)
        n = len(texts)
        assert d.shape == (n, n)
        assert np.isfinite(d).all()
        assert (np.diag(d) == 0.0).all()
        # Exactly symmetric (not just allclose): the scheduler writes the
        # same float to both triangles.
        assert (d == d.T).all()
        assert (d >= 0.0).all()

    @pytest.mark.parametrize("name", sorted(available_estimators()))
    @given(texts=seq_lists)
    @settings(max_examples=10, deadline=None)
    def test_tiling_never_changes_values(self, name, texts):
        seqs = seqs_from(texts)
        base = all_pairs(seqs, name)
        tiled = all_pairs(seqs, name, tile_pairs=1)
        assert base.tobytes() == tiled.tobytes()


class TestKtuple:
    def test_matches_legacy_helper(self, tiny_seqs):
        seqs = list(tiny_seqs)
        legacy = all_pairs(seqs, KtupleDistance(k=3))
        new = all_pairs(seqs, "ktuple", k=3)
        assert legacy.tobytes() == new.tobytes()

    def test_identical_sequences_distance_zero(self):
        seqs = seqs_from(["MKVAWDEN", "MKVAWDEN"])
        d = all_pairs(seqs, "ktuple", k=3)
        assert d[0, 1] == 0.0

    def test_too_short_pairs_distance_one(self):
        seqs = seqs_from(["MKV", "MKVAWDENQ"])
        d = all_pairs(seqs, KtupleDistance(k=6))
        assert d[0, 1] == 1.0

    def test_sparse_kmer_space_path(self):
        # k=8 over Dayhoff-6: 6**8 > dense limit, exercises intersect1d.
        seqs = seqs_from(["MKVAWDENAAQ", "MKVAWDQQFFF", "WWWWYYYYGGG"])
        d = all_pairs(seqs, "ktuple", k=8)
        assert (np.diag(d) == 0).all() and np.isfinite(d).all()

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            KtupleDistance(k=0)


class TestFullDpAndKband:
    def test_full_dp_matches_legacy_helper(self, tiny_seqs):
        seqs = list(tiny_seqs)[:4]
        legacy = all_pairs(seqs, FullDpDistance())
        new = all_pairs(seqs, "full-dp")
        assert legacy.tobytes() == new.tobytes()

    def test_kband_agrees_with_full_dp(self, tiny_seqs):
        seqs = list(tiny_seqs)[:4]
        full = all_pairs(seqs, "full-dp")
        band = all_pairs(seqs, "kband")
        assert np.allclose(full, band)

    def test_kimura_transform_monotone(self, tiny_seqs):
        seqs = list(tiny_seqs)[:4]
        linear = all_pairs(seqs, "full-dp")
        kim = all_pairs(seqs, "full-dp", transform="kimura")
        off = ~np.eye(len(seqs), dtype=bool)
        # Kimura stretches distances (d >= D for D in [0, saturation)).
        assert (kim[off] >= linear[off] - 1e-12).all()

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError):
            FullDpDistance(transform="sqrt")


class TestTransforms:
    def test_linear_is_one_minus_identity(self):
        ident = np.array([0.0, 0.25, 1.0])
        assert np.array_equal(identity_to_distance(ident), 1.0 - ident)

    def test_kimura_flat_and_matrix_forms(self):
        ident = np.array([[1.0, 0.9], [0.9, 1.0]])
        m = kimura_distance(ident)
        flat = kimura_distance(np.array([0.9]))
        assert m[0, 1] == pytest.approx(flat[0])
        assert m[0, 0] == 0.0

    def test_unknown_transform(self):
        with pytest.raises(ValueError):
            identity_to_distance(np.array([0.5]), "log")


class TestRegistry:
    def test_builtins_present_with_descriptions(self):
        info = estimator_info()
        assert set(info) >= {"ktuple", "kmer-fraction", "full-dp", "kband"}
        assert all(info.values())

    def test_get_estimator_instance_passthrough(self):
        est = KtupleDistance(k=5)
        assert get_estimator(est) is est
        with pytest.raises(ValueError):
            get_estimator(est, k=3)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_estimator("euclidean")

    def test_bad_factory_kwargs_clean_error(self):
        with pytest.raises(ValueError, match="full-dp"):
            get_estimator("full-dp", k=9)

    def test_register_unregister_roundtrip(self):
        register_estimator("unit-test-est", KtupleDistance, "test only")
        try:
            assert "unit-test-est" in available_estimators()
            with pytest.raises(ValueError):
                register_estimator("unit-test-est", KtupleDistance)
        finally:
            unregister_estimator("unit-test-est")
        assert "unit-test-est" not in available_estimators()
        with pytest.raises(KeyError):
            unregister_estimator("unit-test-est")


class TestDistanceConfig:
    def test_dict_round_trip(self):
        cfg = DistanceConfig(
            estimator="full-dp", transform="kimura",
            backend="threads", workers=2,
        )
        again = DistanceConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceConfig(estimator="nope")
        with pytest.raises(ValueError):
            DistanceConfig(transform="nope")
        with pytest.raises(ValueError):
            DistanceConfig(backend="gpu")
        with pytest.raises(ValueError):
            DistanceConfig(workers=0)
        with pytest.raises(ValueError):
            DistanceConfig(k=0)
        with pytest.raises(ValueError):
            DistanceConfig.from_dict({"estimator": "ktuple", "tile": 9})

    def test_resolve_from_dict_carries_backend(self):
        est, backend, workers, out, store_dir = resolve_distance_stage(
            {"estimator": "ktuple", "k": 6, "backend": "threads",
             "workers": 3}
        )
        assert est.k == 6 and backend == "threads" and workers == 3
        assert out is None and store_dir is None

    def test_explicit_args_win_over_config(self):
        est, backend, workers, out, store_dir = resolve_distance_stage(
            DistanceConfig(estimator="ktuple", backend="threads", workers=4),
            backend="processes",
            workers=2,
        )
        assert backend == "processes" and workers == 2

    def test_resolve_carries_out_and_store_dir(self):
        est, backend, workers, out, store_dir = resolve_distance_stage(
            DistanceConfig(
                estimator="ktuple", out="memmap", store_dir="/tmp/ts"
            )
        )
        assert out == "memmap" and store_dir == "/tmp/ts"
        _, _, _, out, _ = resolve_distance_stage("ktuple", out="condensed")
        assert out == "condensed"
        with pytest.raises(ValueError):
            resolve_distance_stage("ktuple", out="ram")
        with pytest.raises(ValueError):
            resolve_distance_stage("ktuple", store_dir="/tmp/ts")
        with pytest.raises(ValueError):
            DistanceConfig(out="nope")
        with pytest.raises(ValueError):
            DistanceConfig(store_dir="/tmp/ts")  # needs out="memmap"

    def test_bad_distance_value(self):
        with pytest.raises(ValueError):
            resolve_distance_stage(3.14)
