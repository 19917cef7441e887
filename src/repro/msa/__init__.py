"""Sequential multiple-sequence-alignment systems.

These are complete, from-scratch reimplementations of the characteristic
algorithmic cores of the systems the paper uses and compares against
(Table 2), all built on :mod:`repro.align`:

- :class:`MuscleLike` -- MUSCLE's three stages: k-mer draft tree +
  progressive, Kimura-distance re-estimated tree + re-progressive, and
  tree-dependent iterative refinement.  ``refine=False`` gives the paper's
  "MUSCLE-p" (progressive-only) comparator.
- :class:`ClustalWLike` -- full-DP (or k-tuple) distances, neighbour
  joining, branch-length sequence weights, weighted progressive alignment.
- :class:`TCoffeeLike` -- pairwise consistency library with triplet
  extension, library-scored progressive alignment.
- :class:`MafftLike` -- 6-mer distances + NJ + progressive + iterative
  refinement; ``mode="fftnsi"`` adds FFT correlation anchoring of the DP
  (MAFFT's signature trick), ``mode="nwnsi"`` runs the full DP.
- :class:`CenterStar` -- the classic center-star approximation (cheap
  baseline and default unit-test workhorse).

Every aligner implements :class:`SequentialMsaAligner` and can be plugged
into Sample-Align-D as the per-processor local aligner (paper: "align
sequences in each processor using any sequential multiple alignment
system").

The guide-tree systems (CLUSTALW, MUSCLE, MAFFT, center-star) share
:class:`GuideTreeAligner`, which declares their distance and tree stage
options once: ``distance=`` (any :mod:`repro.distance` estimator --
``ktuple``, ``kmer-fraction``, ``full-dp``, ``kband``) plus
``distance_backend``/``distance_workers``/``distance_out``/
``distance_store_dir``, and ``tree=`` (any :mod:`repro.tree` builder)
plus ``tree_backend``/``tree_workers``.  Every stage runs serially or on
the execution backends with byte-identical output.  Names resolve
through :mod:`repro.engine.registry` (``get_sequential_aligner``,
``register_sequential_aligner``).
"""

from repro.msa.base import GuideTreeAligner, SequentialMsaAligner
from repro.msa.muscle import MuscleLike
from repro.msa.clustalw import ClustalWLike
from repro.msa.tcoffee import TCoffeeLike
from repro.msa.mafft import MafftLike
from repro.msa.centerstar import CenterStar
from repro.msa.parallel_baseline import ParallelBaselineResult, ParallelClustalW

__all__ = [
    "CenterStar",
    "ClustalWLike",
    "GuideTreeAligner",
    "MafftLike",
    "MuscleLike",
    "ParallelBaselineResult",
    "ParallelClustalW",
    "SequentialMsaAligner",
    "TCoffeeLike",
]
