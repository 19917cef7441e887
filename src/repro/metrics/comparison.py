"""Method comparison harness: run aligners over benchmark cases.

Packages the Table-2 / BAliBASE protocol as a public API: run a set of
named methods (sequential registry aligners and/or Sample-Align-D
configurations) over benchmark cases that carry reference alignments,
collect Q/TC/time per case, and aggregate into a rendered table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence as TSequence

import numpy as np

from repro.metrics.qscore import qscore, qscore_pair, total_column_score
from repro.seq.alignment import Alignment
from repro.seq.sequence import SequenceSet

__all__ = ["MethodResult", "ComparisonReport", "compare_methods"]

#: A method maps a SequenceSet to an Alignment.
MethodFn = Callable[[SequenceSet], Alignment]


@dataclass
class MethodResult:
    """Per-method aggregates over all cases."""

    name: str
    q_scores: List[float] = field(default_factory=list)
    tc_scores: List[float] = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)

    @property
    def mean_q(self) -> float:
        return float(np.mean(self.q_scores)) if self.q_scores else float("nan")

    @property
    def mean_tc(self) -> float:
        return float(np.mean(self.tc_scores)) if self.tc_scores else float("nan")

    @property
    def total_seconds(self) -> float:
        return float(np.sum(self.seconds))


@dataclass
class ComparisonReport:
    """All methods' aggregates plus rendering."""

    results: Dict[str, MethodResult]
    n_cases: int

    def ranking(self) -> List[str]:
        """Method names sorted by mean Q, best first."""
        return sorted(self.results, key=lambda m: -self.results[m].mean_q)

    def table(self) -> str:
        name_w = max(len(m) for m in self.results) + 2
        lines = [
            f"{'method':<{name_w}} {'mean Q':>8} {'mean TC':>8} {'time s':>8}"
        ]
        for m in self.ranking():
            r = self.results[m]
            lines.append(
                f"{m:<{name_w}} {r.mean_q:>8.3f} {r.mean_tc:>8.3f} "
                f"{r.total_seconds:>8.2f}"
            )
        return "\n".join(lines)


def compare_methods(
    cases: TSequence,
    methods: Dict[str, MethodFn],
    pair_only: bool = False,
) -> ComparisonReport:
    """Run every method over every case and aggregate quality scores.

    Parameters
    ----------
    cases:
        Objects with ``.sequences`` (a :class:`SequenceSet`) and
        ``.reference`` (an :class:`Alignment`); optionally ``.ref_pair``
        (ids) when ``pair_only`` -- exactly the shape of
        :class:`~repro.datagen.prefab.PrefabCase` and
        :class:`~repro.datagen.balibase.BalibaseCase`.
    methods:
        Name -> callable producing an alignment of the case's sequences.
        Use :func:`repro.engine.registry.get_sequential_aligner`
        instances or lambdas wrapping
        :func:`repro.sample_align_d`.
    pair_only:
        Score Q on the case's ``ref_pair`` only (the PREFAB protocol)
        instead of over all rows.
    """
    if not cases:
        raise ValueError("no cases to compare on")
    if not methods:
        raise ValueError("no methods to compare")
    results = {name: MethodResult(name) for name in methods}
    for case in cases:
        for name, fn in methods.items():
            t0 = time.perf_counter()
            aln = fn(case.sequences)
            dt = time.perf_counter() - t0
            r = results[name]
            if pair_only:
                a, b = case.ref_pair
                r.q_scores.append(qscore_pair(aln, case.reference, a, b))
            else:
                r.q_scores.append(qscore(aln, case.reference))
            r.tc_scores.append(total_column_score(aln, case.reference))
            r.seconds.append(dt)
    return ComparisonReport(results, n_cases=len(cases))
