"""Batched affine-gap (Gotoh) DP kernels: K pair problems, one row loop.

The scalar kernel in :mod:`repro.align.dp` is already exactly
row-vectorised, so its remaining cost is numpy *dispatch*: ~10 array ops
per DP row on short (length ~100-200) vectors, issued once per row per
pair.  The all-pairs distance stage runs N*(N-1)/2 such pairs, which
makes dispatch -- not arithmetic -- the dominant term of every full-DP
bench report.

This module runs the *same exact prefix-scan recurrence* over a
length-padded stack of K problems at once: every elementwise op works on
a ``(n_max + 1, K)`` row block, so the per-row dispatch cost is paid
once per batch instead of once per pair.  MUSCLE-style pipelines use the
same trick to keep their pairwise stage dense.

The stack is **pair-minor** (K is the fastest axis): that turns the
horizontal-gap prefix scan into a log-step shifted-maximum over
*contiguous row blocks* -- ``np.maximum`` is an exact selection, so any
scan order yields bit-identical running maxima, and the log-step form
runs ~2x faster than ``np.maximum.accumulate``'s scalar inner loop.

Exactness and padding
---------------------
Each pair ``k`` occupies the leading ``(m_k + 1, n_k + 1)`` region of the
padded tables.  Correctness of the padding relies on two facts:

- columns are independent in the vertical-gap recurrence, and the
  horizontal-gap prefix scan only flows *left to right* -- so garbage in
  padded columns ``j > n_k`` can never reach a valid column;
- rows only read the previous row, and each pair's final row is captured
  at ``i == m_k`` -- so garbage rows ``i > m_k`` are never read.

Every elementwise op matches the scalar kernel's op-for-op (same IEEE
operations on the same values), which makes batched scores and
alignments **byte-identical** to per-pair :func:`~repro.align.dp
.affine_align` / :func:`~repro.align.dp.affine_score` -- the property
suite asserts exact equality, not closeness.  For alignments the
forward pass additionally evaluates the scalar traceback's comparisons
row-vectorised into four bool decision planes (four bytes per cell
instead of three float64 tables); the per-pair traceback then walks
those bits with the same state machine and the same tie-break order
(diagonal > vertical > horizontal), so paths are identical by
construction.

Two entries fill the padded score stack and share one chunk driver
(degenerate-pair split, chunking, counters, forward fill, terminal
pass, traceback).  The dense entry (:func:`affine_align_batch`,
:func:`affine_score_batch`) copies K caller-built matrices -- PSP
profile pairs, k-band's masked matrices.  The codes entry
(:func:`affine_codes_batch`) serves sequence pairs, where every score
is one substitution-table entry: it gathers each stack row straight
from the residue codes, so no per-pair matrix is built and only one
stack is held in memory (the dense entry also needs a pair-major copy
to transpose from).  The forward loop reads the same float64 values
either way.

Memory is bounded: both modes keep O(K * n_max) float rows; alignment
mode adds four bytes per padded cell, and the batch is chunked so the
padded cell count stays under ``max_batch_cells`` (env
``REPRO_DP_MAX_BATCH_CELLS``).  The estimator-facing batch size is a
separate knob, ``REPRO_DP_BATCH_PAIRS`` (0 or 1 disables batching and
falls back to the scalar kernel).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, List, Optional, Sequence as TSequence, Tuple

import numpy as np

from repro.align.dp import (
    NEG,
    AffineDPResult,
    _as_vec,
)
from repro.obs.metrics import registry as _obs_registry
from repro.obs.tracing import span

__all__ = [
    "DEFAULT_BATCH_PAIRS",
    "DEFAULT_MAX_BATCH_CELLS",
    "affine_align_batch",
    "affine_codes_batch",
    "affine_score_batch",
    "dp_batch_pairs",
    "max_batch_cells_setting",
]

#: Default pairs per estimator-level batch (``REPRO_DP_BATCH_PAIRS``).
DEFAULT_BATCH_PAIRS = 128

#: Default cap on padded DP cells per fused forward chunk
#: (``REPRO_DP_MAX_BATCH_CELLS``); ~100 MB of stacked tables in
#: alignment mode.
DEFAULT_MAX_BATCH_CELLS = 4_194_304

# Batched-kernel counters, resolved once (same idiom as the scalar
# kernel's): calls = fused forward launches, pairs/cells = work moved
# through them.  /metrics shows the kernel switch via these.
_BATCH_CALLS = _obs_registry().counter("dp.batch_calls")
_BATCH_CELLS = _obs_registry().counter("dp.batch_cells")
_BATCH_PAIRS = _obs_registry().counter("dp.batch_pairs")


def dp_batch_pairs(default: int = DEFAULT_BATCH_PAIRS) -> int:
    """The estimator-level batch size from ``REPRO_DP_BATCH_PAIRS``.

    ``0`` or ``1`` disables batching (per-pair scalar kernel); malformed
    values fall back to ``default``.
    """
    raw = os.environ.get("REPRO_DP_BATCH_PAIRS")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(0, value)


def max_batch_cells_setting(default: int = DEFAULT_MAX_BATCH_CELLS) -> int:
    """Padded-cell budget per fused chunk from ``REPRO_DP_MAX_BATCH_CELLS``."""
    raw = os.environ.get("REPRO_DP_MAX_BATCH_CELLS")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(1, value)


class _ScratchPool(threading.local):
    """Thread-local grow-only buffer pool.

    The stacked DP tables are tens of MB per chunk; allocating them
    fresh on every call pays the kernel's page-fault cost again and
    again (and is the dominant cost at large K).  Buffers here are
    faulted once per thread and reused across chunks and calls.  Reuse
    never changes results: stale bytes only ever land in *padded* cells,
    which the padding argument above guarantees are never read.

    Retained memory is bounded by the largest chunk served, i.e. by the
    ``REPRO_DP_MAX_BATCH_CELLS`` budget (~100 MB of tables at the
    default, and ~10 MB for typical distance-stage tiles).
    """

    def __init__(self) -> None:
        self.bufs: dict = {}

    def take(
        self, key: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        size = 1
        for dim in shape:
            size *= int(dim)
        buf = self.bufs.get(key)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=dtype)
            self.bufs[key] = buf
        return buf[:size].reshape(shape)


_scratch = _ScratchPool()


def _is_scalar(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) or (
        isinstance(value, np.ndarray) and value.ndim == 0
    )


def _normalise_penalties(
    value: Any, lengths: TSequence[int], name: str
) -> List[np.ndarray]:
    """Per-pair per-position penalty vectors.

    ``value`` is either one scalar shared by every pair, or a sequence of
    K per-pair specs, each a scalar or a length-``m_k`` vector (exactly
    what the scalar kernel accepts per call).
    """
    if _is_scalar(value):
        return [np.full(length, float(value)) for length in lengths]
    specs = list(value)
    if len(specs) != len(lengths):
        raise ValueError(
            f"{name} must be a scalar or a sequence of one spec per pair "
            f"(got {len(specs)} specs for {len(lengths)} pairs)"
        )
    return [
        _as_vec(spec, length, name) for spec, length in zip(specs, lengths)
    ]


class _Penalties:
    """The four gap-penalty specs of a K-pair batch.

    ``uniform`` is the ``(open_x, ext_x, open_y, ext_y)`` scalar tuple
    when all four specs are plain scalars (the :class:`~repro.seq
    .matrices.GapPenalties` hot path); no per-pair vectors are built
    then, since the forward loop reads plain Python floats -- the same
    values, so results are unchanged.  Otherwise ``vecs`` holds the
    validated per-pair per-position vectors.
    """

    def __init__(
        self,
        gap_open: Any,
        gap_extend: Any,
        gap_open_y: Any,
        gap_extend_y: Any,
        ms: TSequence[int],
        ns: TSequence[int],
    ) -> None:
        oy_raw = gap_open if gap_open_y is None else gap_open_y
        ey_raw = gap_extend if gap_extend_y is None else gap_extend_y
        self.ms, self.ns = ms, ns
        self.uniform: Optional[Tuple[float, float, float, float]] = None
        self.vecs: Optional[Tuple[List[np.ndarray], ...]] = None
        if all(_is_scalar(v) for v in (gap_open, gap_extend, oy_raw, ey_raw)):
            self.uniform = (
                float(gap_open),
                float(gap_extend),
                float(oy_raw),
                float(ey_raw),
            )
        else:
            self.vecs = (
                _normalise_penalties(gap_open, ms, "gap_open"),
                _normalise_penalties(gap_extend, ms, "gap_extend"),
                _normalise_penalties(oy_raw, ns, "gap_open_y"),
                _normalise_penalties(ey_raw, ns, "gap_extend_y"),
            )

    def pair(self, k: int) -> Tuple[np.ndarray, ...]:
        """Pair ``k``'s ``(open_x, ext_x, open_y, ext_y)`` vectors."""
        if self.vecs is not None:
            return tuple(v[k] for v in self.vecs)
        ox, ex, oy, ey = self.uniform
        m, n = self.ms[k], self.ns[k]
        return np.full(m, ox), np.full(m, ex), np.full(n, oy), np.full(n, ey)


def _chunk_bounds(
    shapes: TSequence[Tuple[int, int]], max_cells: int
) -> List[Tuple[int, int]]:
    """``[start, stop)`` chunk bounds keeping padded cells under budget.

    The padded cost of a chunk is ``len * (max_m + 1) * (max_n + 1)``
    (what the stacked tables actually allocate); a single oversized pair
    still gets its own chunk.  When the batch needs several chunks they
    are cut to near-equal pair counts rather than greedily -- a greedy
    cut leaves a tiny (inefficient) tail chunk, e.g. 103 + 25 instead
    of 64 + 64.  Chunking never changes values -- each pair's DP is
    independent.
    """
    K = len(shapes)
    padded = max((m + 1) * (n + 1) for m, n in shapes)
    if K * padded <= max_cells:
        return [(0, K)]
    # Upper-bound pair count per chunk using the worst-case padded pair,
    # then balance: every chunk's true cost only shrinks below this.
    per = max(1, max_cells // padded)
    n_chunks = -(-K // per)
    base, extra = divmod(K, n_chunks)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for c in range(n_chunks):
        stop = start + base + (1 if c < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _empty_score(
    m: int,
    n: int,
    open_x: np.ndarray,
    ext_x: np.ndarray,
    open_y: np.ndarray,
    ext_y: np.ndarray,
    tf: float,
) -> float:
    """Score of a degenerate pair (mirrors the scalar kernel's edge path)."""
    if m:
        return float(-tf * (open_x[0] + ext_x.sum()))
    if n:
        return float(-tf * (open_y[0] + ext_y.sum()))
    return 0.0


def _empty_align(m: int, n: int, score: float) -> AffineDPResult:
    """Alignment of a degenerate pair (mirrors the scalar edge path)."""
    x_map = np.concatenate([np.arange(m), np.full(n, -1, dtype=np.int64)])
    y_map = np.concatenate([np.full(m, -1, dtype=np.int64), np.arange(n)])
    return AffineDPResult(score, x_map, y_map)


class _PaddedBatch:
    """Length-padded pair-minor stack of K non-degenerate pair problems.

    Holds the padded score stack ``S`` of shape ``(m_max, n_max, K)``,
    so the row loop reads contiguous ``(n_max, K)`` slices, plus
    per-pair exact cumulative extension costs (computed in 1-D so they
    match the scalar kernel bit for bit) and, for non-uniform
    penalties, transposed padded penalty matrices.  The constructor
    sets up everything but ``S``; one of the two ``fill_*`` methods
    then writes it.

    ``uniform`` is the :attr:`_Penalties.uniform` tuple; in that mode
    the penalty matrices are skipped entirely and the forward loop uses
    plain Python floats -- the same values, so results are unchanged,
    with none of the padded-matrix fill cost.
    """

    def __init__(self, pens: _Penalties, ks: TSequence[int]) -> None:
        K = len(ks)
        self.K = K
        self.ms = np.array([pens.ms[k] for k in ks], dtype=np.int64)
        self.ns = np.array([pens.ns[k] for k in ks], dtype=np.int64)
        mmax = int(self.ms.max())
        nmax = int(self.ns.max())
        self.mmax, self.nmax = mmax, nmax
        self.uniform = uniform = pens.uniform

        # Pooled buffers: padded cells keep whatever bytes the pool held
        # before -- safe, because padded cells are never read (see the
        # module docstring), and zero-filling them is pure overhead.
        self.S = _scratch.take("S", (mmax, nmax, K))
        self.cum_x = _scratch.take("cum_x", (mmax + 1, K))
        self.cum_y = _scratch.take("cum_y", (nmax + 1, K))
        if uniform is not None:
            # One shared cumsum per axis: ``np.cumsum`` accumulates
            # sequentially, so a prefix of the length-max cumsum is
            # bit-identical to each pair's own shorter cumsum.
            _ox, ex_s, _oy, ey_s = uniform
            self.cum_x[0] = 0.0
            self.cum_y[0] = 0.0
            self.cum_x[1:] = np.cumsum(np.full(mmax, ex_s))[:, None]
            self.cum_y[1:] = np.cumsum(np.full(nmax, ey_s))[:, None]
            self.OX = self.EX = self.OY = None
        else:
            open_x, ext_x, open_y, ext_y = (
                [v[k] for k in ks] for v in pens.vecs
            )
            cum_x_pm = _scratch.take("cum_x_pm", (K, mmax + 1))
            cum_y_pm = _scratch.take("cum_y_pm", (K, nmax + 1))
            cum_x_pm[:, 0] = 0.0
            cum_y_pm[:, 0] = 0.0
            OX_pm = _scratch.take("OX_pm", (K, mmax))
            EX_pm = _scratch.take("EX_pm", (K, mmax))
            OY_pm = _scratch.take("OY_pm", (K, nmax))
            for k in range(K):
                m, n = int(self.ms[k]), int(self.ns[k])
                OX_pm[k, :m] = open_x[k]
                EX_pm[k, :m] = ext_x[k]
                OY_pm[k, :n] = open_y[k]
                # Per-pair 1-D cumsum: bit-identical to the scalar
                # kernel's.
                cx = np.cumsum(ext_x[k])
                cy = np.cumsum(ext_y[k])
                cum_x_pm[k, 1 : m + 1] = cx
                cum_x_pm[k, m + 1 :] = cx[-1]
                cum_y_pm[k, 1 : n + 1] = cy
                cum_y_pm[k, n + 1 :] = cy[-1]
            # Transposed penalty matrices for pair-minor row blocks.
            self.OX = _scratch.take("OX", (mmax, K))
            self.EX = _scratch.take("EX", (mmax, K))
            self.OY = _scratch.take("OY", (nmax, K))
            np.copyto(self.OX, OX_pm.T)
            np.copyto(self.EX, EX_pm.T)
            np.copyto(self.OY, OY_pm.T)
            np.copyto(self.cum_x, cum_x_pm.T)
            np.copyto(self.cum_y, cum_y_pm.T)
        # Pairs grouped by row count: the forward loop captures each
        # pair's final row the moment row m_k is computed.
        self.by_m: dict = {}
        for k, m in enumerate(self.ms.tolist()):
            self.by_m.setdefault(int(m), []).append(k)
        self.by_m = {m: np.array(ks) for m, ks in self.by_m.items()}

    def fill_dense(self, S_list: TSequence[np.ndarray]) -> None:
        """Write ``S`` from K dense score matrices.

        Filled pair-major with contiguous per-pair copies, then
        transposed to pair-minor in one bulk pass -- same values.
        """
        S_pm = _scratch.take("S_pm", (self.K, self.mmax, self.nmax))
        for t, S in enumerate(S_list):
            S_pm[t, : S.shape[0], : S.shape[1]] = S
        np.copyto(self.S, S_pm.transpose(1, 2, 0))

    def fill_codes(
        self,
        x_codes: TSequence[np.ndarray],
        y_codes: TSequence[np.ndarray],
        table: np.ndarray,
    ) -> None:
        """Write ``S`` straight from residue codes: ``S[i, j, t] =
        table[x_t[i], y_t[j]]`` for a C-contiguous float64 ``table``.

        One add and one gather per DP row, directly into the
        pair-minor stack -- no per-pair matrices, no pair-major copy.
        Padded positions use the table's last code (a
        :class:`~repro.seq.matrices.SubstitutionMatrix`'s all-zero gap
        row), so every index is valid; those cells are never read.
        """
        K = self.K
        rows, width = table.shape
        x_off = _scratch.take("x_off", (self.mmax, K), dtype=np.intp)
        y_idx = _scratch.take("y_idx", (self.nmax, K), dtype=np.intp)
        x_off.fill(rows - 1)
        y_idx.fill(width - 1)
        for t in range(K):
            x_off[: len(x_codes[t]), t] = x_codes[t]
            y_idx[: len(y_codes[t]), t] = y_codes[t]
        for codes, bound in ((x_off, rows), (y_idx, width)):
            if codes.min() < 0 or codes.max() >= bound:
                raise IndexError("residue code outside the substitution table")
        np.multiply(x_off, width, out=x_off)
        flat = table.ravel()
        idx = _scratch.take("S_idx", (self.nmax, K), dtype=np.intp)
        for i in range(self.mmax):
            np.add(y_idx, x_off[i], out=idx)
            # ``clip`` skips the bounds-check buffering of ``raise``;
            # every index was range-checked above.
            np.take(flat, idx, out=self.S[i], mode="clip")


def _forward_batch(batch: _PaddedBatch, tf: float, align: bool):
    """Batched forward fill over the padded pair-minor stack.

    One Python-level loop of ``m_max`` iterations; every op inside works
    on an ``(n_max + 1, K)`` block.  Returns ``(last_rows, last_cols,
    decisions)`` -- each pair's final DP row / final DP column (captured
    on the fly; ``last_cols`` is None in score mode with
    ``terminal_factor == 1``), and in align mode the decision planes
    ``(PA, PD, SE, SF)`` for the bit traceback (None in score mode).
    Each plane is an ``(m_max + 1, n_max + 1, K)`` bool table written
    by one or two vectorised comparisons per row -- PA: take the
    diagonal, i.e. ``(diag >= E) & PD``; PD: ``max(diag, E) >= F``;
    SE: vertical gap extends; SF: horizontal gap extends.  (PA, PD)
    encode the scalar H-state tie-break exactly: diagonal iff PA;
    vertical iff PD and not PA -- because the running max makes
    ``E >= F`` equivalent to PD there; horizontal otherwise.  Floats live in O(K * n_max) swapped row buffers in both
    modes; the four byte planes still take ~6x less memory than stacked
    float64 H/E/F tables would.
    """
    K, mmax, nmax = batch.K, batch.mmax, batch.nmax
    cum_x, cum_y = batch.cum_x, batch.cum_y
    Sp = batch.S
    uni = batch.uniform
    if uni is None:
        OX, EX, OY = batch.OX, batch.EX, batch.OY
        ox0 = OX[0]
        oy0 = OY[0]
        oy_first = OY[:1]
        oy_tail = OY[1:]
        oy_mid = OY[1:nmax]
    else:
        # Uniform scalar penalties: same values as the padded matrices
        # would hold, so every op below produces identical floats with
        # no padded penalty matrices to fill.
        ox_s, ex_s, oy_s, _ey_s = uni
        ox0 = oy0 = oy_first = oy_tail = oy_mid = None

    track_cols = align or tf != 1.0
    rng = np.arange(K)
    h_prev = _scratch.take("h_prev", (nmax + 1, K))
    e_prev = _scratch.take("e_prev", (nmax + 1, K))
    h_row = _scratch.take("h_row", (nmax + 1, K))
    e_row = _scratch.take("e_row", (nmax + 1, K))
    last_rows = _scratch.take("last_rows", (nmax + 1, K))
    last_cols = (
        _scratch.take("last_cols", (mmax + 1, K)) if track_cols else None
    )
    if align:
        shape = (mmax + 1, nmax + 1, K)
        PA = _scratch.take("PA", shape, dtype=bool)
        PD = _scratch.take("PD", shape, dtype=bool)
        SE = _scratch.take("SE", shape, dtype=bool)
        SF = _scratch.take("SF", shape, dtype=bool)
        planes = (PA, PD, SE, SF)
    else:
        planes = None

    # Row 0: leading horizontal gap, scaled by tf.  Same op order as the
    # scalar kernel throughout: add, then scale by -tf.
    h_prev[0] = 0.0
    if uni is None:
        h_prev[1:] = -tf * (oy_first + cum_y[1:])
    else:
        h_prev[1:] = -tf * (oy_s + cum_y[1:])
    e_prev[:, :] = NEG

    # Loop-invariant row-0 boundary values, hoisted: row i holds the
    # per-row DP boundary H[i, 0] (same elementwise ops the scalar
    # kernel applies row by row).
    if uni is None:
        bounds = -tf * (ox0 + cum_x)
        term0s = (bounds + cum_y[0]) - oy0
        sf0s = NEG >= bounds - oy0
    else:
        bounds = -tf * (ox_s + cum_x)
        term0s = (bounds + cum_y[0]) - oy_s
        sf0s = NEG >= bounds - oy_s

    # Per-pair column capture degenerates to one row copy when every
    # pair shares n_max (no per-row fancy gather needed).
    simple_cols = track_cols and int(batch.ns.min()) == nmax
    if track_cols:
        if simple_cols:
            last_cols[0] = h_prev[nmax]
        else:
            last_cols[0] = h_prev[batch.ns, rng]

    # Pooled scratch rows; every loop op writes via ``out=`` so the row
    # loop allocates nothing.
    t1 = _scratch.take("t1", (nmax, K))
    dg = _scratch.take("dg", (nmax, K))
    h0 = _scratch.take("h0", (nmax, K))
    f_tail = _scratch.take("f_tail", (nmax, K))
    cy1 = cum_y[1:]
    cy_mid = cum_y[1:-1]
    # The log-step max-scan ping-pongs between two buffers: writing the
    # shifted maximum in place would overlap input and output, which
    # makes numpy copy the shifted input every step.  Each buffer
    # carries a NEG-filled left margin of ``nmax`` rows so a shifted
    # read below row 0 lands on NEG instead of needing a per-step
    # prefix copy: ``term[0]`` is a finite boundary-derived value, so
    # every running prefix maximum exceeds NEG and the margin is the
    # identity under ``np.maximum`` -- one op per scan step, same bits.
    # The margins are read-only during the scan (writes land at
    # ``[nmax:]`` only), so one fill per call suffices.
    termX = _scratch.take("termX", (2 * nmax, K))
    termX_b = _scratch.take("termX_b", (2 * nmax, K))
    termX[:nmax] = NEG
    termX_b[:nmax] = NEG
    term = termX[nmax:]
    # The buffer alternation is deterministic, so all views are hoisted.
    scan_plan = []
    step = 1
    src, dst = termX, termX_b
    while step < nmax:
        scan_plan.append(
            (src[nmax:], src[nmax - step : 2 * nmax - step], dst[nmax:])
        )
        src, dst = dst, src
        step *= 2
    term_out = src[nmax:]
    # Row roles alternate between the two buffer pairs each iteration;
    # hoist both parities' slice views out of the loop.
    parities = (
        (h_prev[1:], h_prev[:-1], e_prev[1:],
         h_row, h_row[1:], h_row[1:-1], e_row[1:]),
        (h_row[1:], h_row[:-1], e_row[1:],
         h_prev, h_prev[1:], h_prev[1:-1], e_prev[1:]),
    )
    for i in range(1, mmax + 1):
        ph1, ph0, pe1, ch, ch1, chm, ev = parities[(i - 1) & 1]
        if uni is None:
            ox = OX[i - 1]
            ex = EX[i - 1]
        else:
            ox, ex = ox_s, ex_s
        ch[0] = bounds[i]
        # Vertical gap: reads only the previous row.
        np.subtract(ph1, ox, out=t1)
        if align:
            # E-extension bit: E[i-1, j] >= H[i-1, j] - open_x[i-1].
            np.greater_equal(pe1, t1, out=SE[i][1:])
        np.maximum(pe1, t1, out=t1)
        np.subtract(t1, ex, out=ev)
        # Diagonal: previous row shifted.
        np.add(ph0, Sp[i - 1], out=dg)
        np.maximum(dg, ev, out=h0)
        # Horizontal gap via the exact prefix scan (see align.dp) in
        # log-step shifted-maximum form over contiguous row blocks:
        # ``np.maximum`` is an exact selection, so any scan order gives
        # the bit-identical running maximum.
        term[0] = term0s[i]
        tv = term[1:]
        np.add(h0[:-1], cy_mid, out=tv)
        np.subtract(tv, oy_s if uni is not None else oy_tail, out=tv)
        for s_hi, s_lo, s_out in scan_plan:
            np.maximum(s_hi, s_lo, out=s_out)
        np.subtract(term_out, cy1, out=f_tail)
        np.maximum(h0, f_tail, out=ch1)
        if align:
            # H-state tie-break planes (diagonal > vertical >
            # horizontal), one comparison each, written in place; PA is
            # folded to ``(diag >= E) & PD`` -- "take the diagonal" --
            # so the traceback tests a single bit per matched cell.
            np.greater_equal(dg, ev, out=PA[i][1:])
            np.greater_equal(h0, f_tail, out=PD[i][1:])
            np.logical_and(PA[i][1:], PD[i][1:], out=PA[i][1:])
            # F-extension bit: F[i, j-1] >= H[i, j-1] - open_y[j-1];
            # at j == 1 the predecessor is F[i, 0] == NEG.
            tfv = t1[: nmax - 1]
            np.subtract(
                chm,
                oy_s if uni is not None else oy_mid,
                out=tfv,
            )
            np.greater_equal(f_tail[:-1], tfv, out=SF[i][2:])
            SF[i][1] = sf0s[i]
        done = batch.by_m.get(i)
        if done is not None:
            last_rows[:, done] = ch[:, done]
        if simple_cols:
            last_cols[i] = ch[nmax]
        elif track_cols:
            last_cols[i] = ch[batch.ns, rng]

    return last_rows, last_cols, planes


def _terminal_best_batch(
    batch: _PaddedBatch,
    last_rows: np.ndarray,
    last_cols: np.ndarray,
    tf: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`repro.align.dp._terminal_best` over the batch.

    Same candidate values from the same elementwise ops, same
    first-of-max argmax, same strict-inequality update order (final
    cell, then trailing vertical, then trailing horizontal) -- so the
    ``(score, i_end, j_end)`` triple matches the scalar helper exactly
    for every pair.
    """
    K, mmax, nmax = batch.K, batch.mmax, batch.nmax
    ms, ns = batch.ms, batch.ns
    rng = np.arange(K)
    cum_x, cum_y = batch.cum_x, batch.cum_y
    if batch.uniform is not None:
        ox_s, _ex, oy_s, _ey = batch.uniform
        open_x: Any = ox_s
        open_y: Any = oy_s
    else:
        open_x = batch.OX
        open_y = batch.OY

    best = last_rows[ns, rng]
    # Trailing vertical gap: end at (i, n), consume x_{i+1..m}.
    trail = last_cols[:mmax] - tf * (
        (open_x + cum_x[ms, rng]) - cum_x[:mmax]
    )
    np.copyto(trail, -np.inf, where=np.arange(mmax)[:, None] >= ms)
    ic = np.argmax(trail, axis=0)
    vc = trail[ic, rng]
    col_wins = vc > best
    best = np.where(col_wins, vc, best)
    bi = np.where(col_wins, ic, ms)
    # Trailing horizontal gap: end at (m, j), consume y_{j+1..n}.
    trail = last_rows[:nmax] - tf * (
        (open_y + cum_y[ns, rng]) - cum_y[:nmax]
    )
    np.copyto(trail, -np.inf, where=np.arange(nmax)[:, None] >= ns)
    jr = np.argmax(trail, axis=0)
    vr = trail[jr, rng]
    row_wins = vr > best
    best = np.where(row_wins, vr, best)
    bi = np.where(row_wins, ms, bi)
    bj = np.where(row_wins, jr, ns)
    return best.astype(np.float64, copy=False), bi, bj


def _traceback_bits(
    pa: np.ndarray,
    pd: np.ndarray,
    se: np.ndarray,
    sf: np.ndarray,
    i: int,
    j: int,
    m: int,
    n: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Recover one optimal path from the decision planes.

    Structurally identical to the scalar kernel's ``_traceback`` state
    machine -- every branch tests a bit that was computed from exactly
    the comparison the scalar traceback would evaluate, so the emitted
    path (and its tie-breaks) is byte-identical.  Diagonal stretches
    are emitted run-at-a-time: the cells of one stretch share a
    diagonal of the PA ("take the diagonal") plane, so the run length
    is one vectorised scan along that diagonal instead of a per-cell
    loop (similar sequences spend most of the path there).
    """
    xs: List[int] = []
    ys: List[int] = []
    # Trailing gap emitted first (we build the path reversed).
    for t in range(n, j, -1):
        xs.append(-1)
        ys.append(t - 1)
    for t in range(m, i, -1):
        xs.append(t - 1)
        ys.append(-1)

    state = 0  # 0 = H, 1 = E, 2 = F
    while i > 0 and j > 0:
        if state == 0:
            if not pa[i, j]:
                # Not a diagonal cell: PD picks vertical over
                # horizontal (the scalar ``e >= f`` tie-break -- the
                # running maximum makes them equivalent here).
                state = 1 if pd[i, j] else 2
            else:
                # Diagonal run: the current cell chose diagonal; keep
                # stepping while the next cells up the off-diagonal
                # ``j - i`` also choose diagonal.  Those cells share one
                # diagonal of the decision planes, so the run length is
                # a single vectorised scan instead of a per-cell loop.
                # The scan covers cells (i-1, j-1) .. (i-t+1, j-t+1)
                # where t = min(i, j): the scalar loop border-checks
                # *before* reading bits, so the cell where a coordinate
                # reaches 0 is never tested.
                t_hi = i if i < j else j
                if t_hi > 1:
                    diag = pa.diagonal(j - i)[1:t_hi][::-1]
                    stop = int(np.argmin(diag))
                    run = t_hi if diag[stop] else stop + 1
                else:
                    run = 1
                xs.extend(range(i - 1, i - 1 - run, -1))
                ys.extend(range(j - 1, j - 1 - run, -1))
                i -= run
                j -= run
                continue
        if state == 1:
            xs.append(i - 1)
            ys.append(-1)
            stay = se[i, j]
            i -= 1
            if not stay or i == 0:
                state = 0
        else:
            xs.append(-1)
            ys.append(j - 1)
            stay = sf[i, j]
            j -= 1
            if not stay or j == 0:
                state = 0
    # Leading gap along whichever axis remains.
    while i > 0:
        xs.append(i - 1)
        ys.append(-1)
        i -= 1
    while j > 0:
        xs.append(-1)
        ys.append(j - 1)
        j -= 1

    return (
        np.array(xs[::-1], dtype=np.int64),
        np.array(ys[::-1], dtype=np.int64),
    )


def _run_batch(
    pens: _Penalties,
    fill: Callable[[_PaddedBatch, List[int]], None],
    tf: float,
    align: bool,
    max_batch_cells: Optional[int],
):
    """The chunk driver every batched entry point shares.

    Degenerate (empty) pairs take the scalar edge path; live pairs are
    cut into padded-cell-bounded chunks, each stacked into a
    :class:`_PaddedBatch` whose ``S`` the entry's ``fill(batch, ks)``
    writes, then run through one fused forward fill and -- in align
    mode -- the per-pair bit traceback.  Returns ``(K,)`` float64
    scores, or a list of K :class:`~repro.align.dp.AffineDPResult`.
    """
    ms, ns = pens.ms, pens.ns
    K = len(ms)
    results: List[Optional[AffineDPResult]] = [None] * K
    out = np.empty(K, dtype=np.float64)
    live: List[int] = []
    for k in range(K):
        m, n = ms[k], ns[k]
        if m == 0 or n == 0:
            out[k] = _empty_score(m, n, *pens.pair(k), tf)
            if align:
                results[k] = _empty_align(m, n, float(out[k]))
        else:
            live.append(k)
    if not live:
        return results if align else out

    budget = (
        max_batch_cells_setting()
        if max_batch_cells is None
        else max(1, int(max_batch_cells))
    )
    shapes = [(ms[k], ns[k]) for k in live]
    mode = "align" if align else "score"
    for a, b in _chunk_bounds(shapes, budget):
        ks = live[a:b]
        batch = _PaddedBatch(pens, ks)
        fill(batch, ks)
        cells = int((batch.ms * batch.ns).sum())
        _BATCH_CALLS.inc()
        _BATCH_PAIRS.inc(len(ks))
        _BATCH_CELLS.inc(cells)
        with span("dp.batch", pairs=len(ks), cells=cells, mode=mode):
            last_rows, last_cols, planes = _forward_batch(batch, tf, align)
            if not align and tf == 1.0:
                out[ks] = last_rows[batch.ns, np.arange(len(ks))]
                continue
            scores, bis, bjs = _terminal_best_batch(
                batch, last_rows, last_cols, tf
            )
            if not align:
                out[ks] = scores
                continue
            PA, PD, SE, SF = planes
            for t, k in enumerate(ks):
                x_map, y_map = _traceback_bits(
                    PA[:, :, t],
                    PD[:, :, t],
                    SE[:, :, t],
                    SF[:, :, t],
                    int(bis[t]),
                    int(bjs[t]),
                    ms[k],
                    ns[k],
                )
                results[k] = AffineDPResult(
                    float(scores[t]), x_map, y_map
                )
    return results if align else out


def _dense_batch(
    S_list: TSequence[np.ndarray],
    gap_open: Any,
    gap_extend: Any,
    gap_open_y: Any,
    gap_extend_y: Any,
    tf: float,
    align: bool,
    max_batch_cells: Optional[int],
):
    """Dense entry: validate K score matrices and run the driver."""
    S_list = [np.ascontiguousarray(S, dtype=np.float64) for S in S_list]
    for S in S_list:
        if S.ndim != 2:
            raise ValueError("each pair-score matrix must be 2-D")
    pens = _Penalties(
        gap_open,
        gap_extend,
        gap_open_y,
        gap_extend_y,
        [S.shape[0] for S in S_list],
        [S.shape[1] for S in S_list],
    )
    return _run_batch(
        pens,
        lambda batch, ks: batch.fill_dense([S_list[k] for k in ks]),
        tf,
        align,
        max_batch_cells,
    )


def affine_score_batch(
    S_list: TSequence[np.ndarray],
    gap_open: Any,
    gap_extend: Any,
    gap_open_y: Any = None,
    gap_extend_y: Any = None,
    terminal_factor: float = 1.0,
    max_batch_cells: Optional[int] = None,
) -> np.ndarray:
    """Optimal global affine scores of K pair problems, one fused pass.

    Parameters mirror :func:`repro.align.dp.affine_score` with one
    batch-level twist: each penalty is either a scalar shared by every
    pair, or a sequence of K per-pair specs (scalar or per-position
    vector).  Returns a ``(K,)`` float64 array byte-identical to calling
    the scalar kernel per pair.  O(K * n_max) working memory.
    """
    return _dense_batch(
        S_list, gap_open, gap_extend, gap_open_y, gap_extend_y,
        terminal_factor, False, max_batch_cells,
    )


def affine_align_batch(
    S_list: TSequence[np.ndarray],
    gap_open: Any,
    gap_extend: Any,
    gap_open_y: Any = None,
    gap_extend_y: Any = None,
    terminal_factor: float = 1.0,
    max_batch_cells: Optional[int] = None,
) -> List[AffineDPResult]:
    """Optimal global affine alignments of K pair problems.

    Batched forward fill in memory-bounded chunks, then a cheap per-pair
    O(m + n) traceback over the stacked decision planes -- the same
    state machine and tie-break order as the scalar kernel's traceback,
    so every result is byte-identical to per-pair
    :func:`~repro.align.dp.affine_align`.
    """
    return _dense_batch(
        S_list, gap_open, gap_extend, gap_open_y, gap_extend_y,
        terminal_factor, True, max_batch_cells,
    )


def affine_codes_batch(
    x_codes: TSequence[np.ndarray],
    y_codes: TSequence[np.ndarray],
    table: np.ndarray,
    gap_open: Any,
    gap_extend: Any,
    *,
    align: bool,
    terminal_factor: float = 1.0,
    max_batch_cells: Optional[int] = None,
):
    """Batched DP over K sequence pairs given as residue codes.

    Pair ``k`` scores ``table[x_codes[k][i], y_codes[k][j]]`` at cell
    ``(i, j)`` -- exactly the matrix
    :meth:`~repro.seq.matrices.SubstitutionMatrix.pair_scores` builds
    from ``table = matrix.matrix`` -- but the padded stack is read
    straight from the codes, so no per-pair matrix is ever built.
    Returns what :func:`affine_align_batch` (``align=True``) or
    :func:`affine_score_batch` returns on those matrices, byte for
    byte.
    """
    if len(x_codes) != len(y_codes):
        raise ValueError("x_codes and y_codes must hold one array per pair")
    table = np.ascontiguousarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError("the substitution table must be 2-D")
    pens = _Penalties(
        gap_open,
        gap_extend,
        None,
        None,
        [len(x) for x in x_codes],
        [len(y) for y in y_codes],
    )
    return _run_batch(
        pens,
        lambda batch, ks: batch.fill_codes(
            [x_codes[k] for k in ks], [y_codes[k] for k in ks], table
        ),
        terminal_factor,
        align,
        max_batch_cells,
    )
