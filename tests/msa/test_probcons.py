"""Tests for the ProbCons-like aligner and the pair HMM beneath it."""

import numpy as np
import pytest

from repro.align.pairhmm import PairHmmParams, match_posteriors, mea_align
from repro.engine.registry import get_sequential_aligner
from repro.metrics import qscore
from repro.msa.probcons import ProbConsLike
from repro.seq.sequence import Sequence


class TestPairHmm:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            PairHmmParams(delta=0.6)
        with pytest.raises(ValueError):
            PairHmmParams(epsilon=0.0)
        with pytest.raises(ValueError):
            PairHmmParams(temperature=0.0)

    def test_emissions_normalised(self):
        log_joint, log_bg = PairHmmParams().log_emissions()
        assert np.isclose(np.exp(log_joint).sum(), 1.0)
        assert np.isclose(np.exp(log_bg).sum(), 1.0, atol=1e-6)

    def test_identical_sequences_diagonal(self):
        x = Sequence("x", "MKTAYIAKQRQISFVKSH")
        P = match_posteriors(x, x.with_id("y"))
        assert np.diag(P).mean() > 0.9

    def test_posteriors_in_unit_interval(self):
        x = Sequence("x", "MKTAYIAK")
        y = Sequence("y", "WWHHCCPP")
        P = match_posteriors(x, y)
        assert (P >= 0).all() and (P <= 1).all()

    def test_row_mass_at_most_one(self):
        # A residue aligns to at most one partner: row posterior mass <= 1.
        x = Sequence("x", "MKTAYIAKQR")
        y = Sequence("y", "MKTAYIQR")
        P = match_posteriors(x, y)
        assert (P.sum(axis=1) <= 1.0 + 1e-9).all()
        assert (P.sum(axis=0) <= 1.0 + 1e-9).all()

    def test_empty_sequences(self):
        x = Sequence("x", "MKV")
        y = Sequence("y", "")
        assert match_posteriors(x, y).shape == (3, 0)

    def test_matches_bruteforce_enumeration(self):
        """Exactness check against full path enumeration on tiny inputs."""
        import math

        params = PairHmmParams()
        lj, lb = params.log_emissions()
        t = params.log_transitions()
        trans = {
            ("M", "D"): t["MM"], ("X", "D"): t["XM"], ("Y", "D"): t["YM"],
            ("M", "X"): t["MX"], ("X", "X"): t["XX"],
            ("M", "Y"): t["MY"], ("Y", "Y"): t["YY"],
        }

        def brute(xc, yc):
            m, n = len(xc), len(yc)
            paths = []

            def rec(i, j, moves):
                if i == m and j == n:
                    paths.append(list(moves))
                    return
                if i < m and j < n:
                    rec(i + 1, j + 1, moves + ["D"])
                if i < m:
                    rec(i + 1, j, moves + ["X"])
                if j < n:
                    rec(i, j + 1, moves + ["Y"])

            rec(0, 0, [])
            post = np.zeros((m, n))
            tot = 0.0
            for path in paths:
                lp, i, j, prev, ok = 0.0, 0, 0, "M", True
                for mv in path:
                    if (prev, mv) not in trans:
                        ok = False
                        break
                    lp += trans[(prev, mv)]
                    if mv == "D":
                        lp += lj[xc[i], yc[j]]
                        i, j, prev = i + 1, j + 1, "M"
                    elif mv == "X":
                        lp += lb[xc[i]]
                        i, prev = i + 1, "X"
                    else:
                        lp += lb[yc[j]]
                        j, prev = j + 1, "Y"
                if not ok:
                    continue
                p = math.exp(lp)
                tot += p
                i = j = 0
                for mv in path:
                    if mv == "D":
                        post[i, j] += p
                        i += 1
                        j += 1
                    elif mv == "X":
                        i += 1
                    else:
                        j += 1
            return post / tot

        rng = np.random.default_rng(3)
        for _ in range(4):
            m, n = rng.integers(1, 5, 2)
            xs = Sequence("x", "".join(rng.choice(list("ARNDCQ"), m)))
            ys = Sequence("y", "".join(rng.choice(list("ARNDCQ"), n)))
            assert np.allclose(
                match_posteriors(xs, ys, params),
                brute(xs.codes, ys.codes),
                atol=1e-10,
            )

    def test_mea_consumes_everything(self):
        P = np.array([[0.9, 0.0], [0.0, 0.9], [0.1, 0.1]])
        res = mea_align(P)
        xm = res.x_map[res.x_map >= 0]
        ym = res.y_map[res.y_map >= 0]
        assert xm.tolist() == [0, 1, 2]
        assert ym.tolist() == [0, 1]


class TestProbConsLike:
    def test_registry(self):
        assert get_sequential_aligner("probcons").name == "probcons"

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbConsLike(consistency_rounds=-1)
        with pytest.raises(ValueError):
            ProbConsLike(posterior_floor=1.0)

    def test_roundtrip(self, small_family):
        aln = ProbConsLike().align(small_family.sequences)
        un = aln.ungapped()
        for s in small_family.sequences:
            assert un[s.id].residues == s.residues

    def test_deterministic(self, tiny_seqs):
        a = ProbConsLike().align(tiny_seqs)
        b = ProbConsLike().align(tiny_seqs)
        assert a == b

    def test_quality_leads_the_pack(self, small_family):
        """ProbCons was the accuracy leader of its era; at minimum it
        must not fall behind the draft progressive here."""
        q_pc = qscore(
            ProbConsLike().align(small_family.sequences),
            small_family.reference,
        )
        q_draft = qscore(
            get_sequential_aligner("muscle-draft").align(
                small_family.sequences
            ),
            small_family.reference,
        )
        assert q_pc >= q_draft

    def test_consistency_rounds_help_or_tie(self, small_family):
        q0 = qscore(
            ProbConsLike(consistency_rounds=0).align(small_family.sequences),
            small_family.reference,
        )
        q2 = qscore(
            ProbConsLike(consistency_rounds=2).align(small_family.sequences),
            small_family.reference,
        )
        assert q2 >= q0 - 0.05

    def test_single_and_pair(self):
        one = ProbConsLike().align([Sequence("a", "MKV")])
        assert one.n_rows == 1
        two = ProbConsLike().align(
            [Sequence("a", "MKTAYIAK"), Sequence("b", "MKTAYI")]
        )
        assert two.n_rows == 2
