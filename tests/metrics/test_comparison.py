"""Tests for the method-comparison harness."""

import pytest

from repro.datagen.prefab import make_prefab_like
from repro.engine.registry import get_sequential_aligner
from repro.metrics import compare_methods


@pytest.fixture(scope="module")
def cases():
    return make_prefab_like(
        n_cases=3, seqs_per_case=(6, 8), mean_length=60, seed=4
    )


@pytest.fixture(scope="module")
def report(cases):
    methods = {
        "muscle-draft": get_sequential_aligner("muscle-draft").align,
        "center-star": get_sequential_aligner("center-star").align,
    }
    return compare_methods(cases, methods)


class TestCompareMethods:
    def test_all_methods_scored(self, report):
        assert set(report.results) == {"muscle-draft", "center-star"}
        for r in report.results.values():
            assert len(r.q_scores) == report.n_cases == 3
            assert len(r.tc_scores) == 3
            assert all(0.0 <= q <= 1.0 for q in r.q_scores)

    def test_ranking_sorted_by_q(self, report):
        ranked = report.ranking()
        qs = [report.results[m].mean_q for m in ranked]
        assert qs == sorted(qs, reverse=True)

    def test_table_renders(self, report):
        table = report.table()
        assert "mean Q" in table and "muscle-draft" in table

    def test_pair_only_protocol(self, cases):
        methods = {"center-star": get_sequential_aligner("center-star").align}
        rep = compare_methods(cases, methods, pair_only=True)
        assert len(rep.results["center-star"].q_scores) == 3

    def test_timing_collected(self, report):
        for r in report.results.values():
            assert r.total_seconds > 0

    def test_validation(self, cases):
        with pytest.raises(ValueError):
            compare_methods([], {"x": lambda s: None})
        with pytest.raises(ValueError):
            compare_methods(cases, {})

    def test_sample_align_d_as_method(self, cases):
        from repro import sample_align_d

        methods = {
            "sad-p2": lambda seqs: sample_align_d(seqs, n_procs=2).alignment
        }
        rep = compare_methods(cases, methods, pair_only=True)
        assert rep.results["sad-p2"].mean_q >= 0.0
