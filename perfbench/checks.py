"""Output checks applied to every job, and the alignment digest."""

from __future__ import annotations

import hashlib
from typing import Sequence as TSequence

import numpy as np

from repro.seq.alignment import Alignment
from repro.seq.sequence import Sequence


class OutputError(AssertionError):
    """A job returned an alignment that is not a valid MSA of its input."""


def check_alignment(aln: Alignment, inputs: TSequence[Sequence]) -> None:
    """Rectangular, ids in input order, every row degaps to its input."""
    matrix = np.asarray(aln.matrix)
    if matrix.ndim != 2 or matrix.shape != (len(aln.ids), aln.n_columns):
        raise OutputError(f"alignment is not rectangular: {matrix.shape}")
    want_ids = [s.id for s in inputs]
    if list(aln.ids) != want_ids:
        raise OutputError("row ids are not the input ids in input order")
    for row, seq in zip(aln.ungapped(), inputs):
        if row.residues != seq.residues:
            raise OutputError(f"row {seq.id} does not degap to its input")


def digest(aln: Alignment) -> str:
    """SHA-256 over the ids, the shape and the code matrix."""
    matrix = np.ascontiguousarray(aln.matrix)
    h = hashlib.sha256()
    h.update("\0".join(aln.ids).encode("utf-8"))
    h.update(repr(matrix.shape).encode())
    h.update(matrix.tobytes())
    return h.hexdigest()
