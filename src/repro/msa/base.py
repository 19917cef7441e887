"""Common interface of the sequential MSA systems."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Sequence as TSequence

from repro.distance import (
    KtupleDistance,
    all_pairs,
    resolve_distance_stage,
    scoring_estimator_defaults,
)
from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence, SequenceSet
from repro.tree import get_builder, resolve_tree_stage

__all__ = ["GuideTreeAligner", "SequentialMsaAligner", "distance_stage"]


class SequentialMsaAligner(abc.ABC):
    """A sequential multiple-sequence aligner.

    Implementations must be deterministic for a fixed configuration and
    must return an alignment whose rows, once ungapped, reproduce the
    input sequences exactly and in input order.
    """

    #: Short registry name, overridden by subclasses.
    name: str = "abstract"

    @abc.abstractmethod
    def align(self, seqs: TSequence[Sequence]) -> Alignment:
        """Align ``seqs`` into a single MSA (rows in input order)."""

    def __call__(self, seqs: TSequence[Sequence]) -> Alignment:
        return self.align(seqs)

    def _validate_input(self, seqs: TSequence[Sequence]) -> SequenceSet:
        sset = seqs if isinstance(seqs, SequenceSet) else SequenceSet(seqs)
        if len(sset) == 0:
            raise ValueError(f"{self.name}: no sequences to align")
        alphabets = {s.alphabet for s in sset}
        if len(alphabets) != 1:
            raise ValueError(f"{self.name}: sequences mix alphabets")
        return sset

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def distance_stage(
    owner: Any, backend: Optional[str] = None, workers: Optional[int] = None
):
    """Resolve a guide-tree system's distance options.

    ``owner`` carries ``scoring``, ``kmer_k``, ``distance``,
    ``distance_out`` and ``distance_store_dir``.  ``distance=None`` means
    the classic ``ktuple`` draft distance with ``kmer_k``; estimators
    chosen by name pick up the owner's scoring matrix/gaps and
    ``kmer_k``.  Returns :func:`repro.distance.resolve_distance_stage`'s
    ``(estimator, backend, workers, out, store_dir)``.
    """
    return resolve_distance_stage(
        owner.distance,
        backend,
        workers,
        out=owner.distance_out,
        store_dir=owner.distance_store_dir,
        default=lambda: KtupleDistance(k=owner.kmer_k),
        estimator_defaults=scoring_estimator_defaults(
            owner.scoring.matrix, owner.scoring.gaps, owner.kmer_k
        ),
    )


@dataclass(kw_only=True)
class GuideTreeAligner(SequentialMsaAligner):
    """A sequential aligner built as distances → guide tree → merges.

    CLUSTALW, MUSCLE, MAFFT and center-star share their first two stages
    and the placement of the third; this base declares their options
    once.  Subclasses declare ``scoring`` (a
    :class:`~repro.align.profile_align.ProfileAlignConfig`) and
    ``kmer_k``, and call :meth:`_guide_tree` from ``align``.

    Parameters
    ----------
    distance:
        Distance estimator routed through :mod:`repro.distance`: any
        registered name (``"ktuple"``, ``"kmer-fraction"``,
        ``"full-dp"``, ``"kband"``), a
        :class:`~repro.distance.DistanceConfig` (or its dict form), or an
        estimator instance.  Default: ``ktuple`` with ``kmer_k``.  Names
        pick up the aligner's scoring matrix/gaps and ``kmer_k``.
    distance_backend / distance_workers:
        Run the all-pairs stage on an execution backend
        (:func:`repro.distance.all_pairs`; ``"processes"`` uses real
        cores).  Output is byte-identical to the serial stage.
    distance_out / distance_store_dir:
        Result placement of the all-pairs stage (``"memory"``/
        ``"condensed"``/``"memmap"``; default ``"condensed"`` -- the tree
        builders read it natively).  ``distance_store_dir`` points
        ``"memmap"`` at a resumable on-disk tile store.
    tree:
        Guide-tree builder routed through :mod:`repro.tree`: any
        registered name (``"nj"``, ``"upgma"``, ``"wpgma"``,
        ``"single-linkage"``, ``"anchor"``), a
        :class:`~repro.tree.TreeConfig` (or its dict form), or a builder
        instance.  Default: :attr:`default_builder`.
    tree_backend / tree_workers:
        Run the DAG-scheduled progressive merge on an execution backend
        (:func:`repro.tree.progressive_merge`; ``"processes"`` runs
        independent subtree merges on real cores).  Output is
        byte-identical to the serial walk.
    """

    distance: object = None
    distance_backend: Optional[str] = None
    distance_workers: Optional[int] = None
    distance_out: Optional[str] = None
    distance_store_dir: Optional[str] = None
    tree: object = None
    tree_backend: Optional[str] = None
    tree_workers: Optional[int] = None

    #: Registry name of the builder used when ``tree`` is None.  ``None``
    #: hands a None builder to :meth:`_build_tree`, which the subclass
    #: then overrides with its own tree (center-star's caterpillar).
    default_builder: ClassVar[Optional[str]] = "upgma"

    def __post_init__(self) -> None:
        self._distance_stage()  # fail fast on bad distance options
        self._tree_stage()  # fail fast on bad tree options

    def _distance_stage(self):
        return distance_stage(
            self, self.distance_backend, self.distance_workers
        )

    def _tree_stage(self):
        return resolve_tree_stage(
            self.tree,
            self.tree_backend,
            self.tree_workers,
            default=lambda: (
                None
                if self.default_builder is None
                else get_builder(self.default_builder)
            ),
        )

    def _build_tree(self, builder, d, ids: List[str]):
        return builder.build(d, ids)

    def _guide_tree(self, seqs: List[Sequence], ids: List[str]):
        """Run the distance stage and build the guide tree over it.

        Returns ``(tree, builder, merge)``: ``builder`` rebuilds trees
        from later matrices (MUSCLE's stage 2), and ``merge`` holds the
        ``backend``/``workers`` kwargs of
        :func:`~repro.align.progressive.progressive_align`.
        """
        est, backend, workers, out, store_dir = self._distance_stage()
        d = all_pairs(seqs, est, backend=backend, workers=workers,
                      out=out or "condensed", store_dir=store_dir)
        builder, tbackend, tworkers = self._tree_stage()
        merge: Dict[str, Any] = {"backend": tbackend, "workers": tworkers}
        return self._build_tree(builder, d, ids), builder, merge
