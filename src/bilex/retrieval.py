"""Alignment, exact cosine/CSLS retrieval, mining, hubness diagnostics, and
candidate files.

All similarity work is exact brute force over blocked matrix products. Blocks
have a fixed size, results are reduced in block order, and every tie is
broken by ascending id, so output is bitwise independent of the worker count.

Each worker writes its blocks' products into one float32 block buffer, held
for the length of a pass and freed when it returns; CSLS screen values
2*S - r are formed in place there, so no pass allocates or copies a whole
block. The float32 values only screen: every top-k selection, of candidates
and of neighborhood means, takes one path, SELECT_ROWS rows at a time to keep
each worker's temporaries small. A row is screened by the maxima of
fixed-width column chunks (a row narrower than 16k is one chunk, kept whole),
the chunks whose maximum comes within the screen margin of the k-th largest
chunk maximum are kept, the columns whose float32 value comes within the
margin of the row's k-th are rescored in float64 by one per-pair routine,
_pair_dots, and the exact selection, value descending and ties by ascending
id, runs on the rescored values; means are summed in that order. The result
is that of the same selection over whole rows of rescored values.
_pair_dots gives a pair's value from its two vectors alone, whatever the
block shape, row offset or alignment, so a retrieval scoped to some rows
equals those rows of a full run bit for bit.

The margin (_screen_margin) is certified. With u = 2**-24, u' = 2**-53,
gamma_n = n*u / (1 - n*u) (gamma'_n with u'), and A the product of the two
spaces' largest row norms, every term of a dot product of length d picks up
at most d roundings in any summation order, with or without fused
multiply-adds, and two more when the inputs are cast to float32; by
Cauchy-Schwarz the float32 screen dot lies within gamma_{d+2} * A of the
exact one and the float64 rescore within gamma'_d * A (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 3). A CSLS screen value
fl32(2 * S - fl32(r)) doubles those and adds the rounding of r to float32
and of the subtraction in each precision, at most
(u + u') * (4 * A + 3 * R) with R = max |r|. Gradual underflow adds a tiny
absolute term. The sum e
bounds |screen - rescored| per pair; at least k columns have screen values
at or above the row's float32 k-th value T, so the float64 k-th is at least
T - e, and every column whose rescored value reaches the float64 k-th has a
screen value of at least T - 2e. The margin is 2e. The slack in the
constants covers the float64 rounding of the norms.

retrieve_topk is the only code that forms candidate scores; a cosine score
is the dot product itself, so its blocks skip the CSLS steps.
knn_mean_similarity runs its own float32 block products for the means r_T.
CSLS neighborhood means always cover the whole source and target spaces; a
run over every source returns them, and a retrieval scoped to some source
rows scores them against those means, as a full run does. Mutual nearest
neighbors are a top-1 retrieval in each direction over the same means, and
hubness counts the first columns of a retrieval's candidate lists.

One rule sets the OpenBLAS thread count, through numpy's OpenBLAS thread
controls (_one_blas_thread) when they can be reached and
OPENBLAS_NUM_THREADS is unset; the previous count is back when the work
ends. A pass that runs more than one worker (_map_row_blocks with n_threads
above 1 and more than one block) runs its pool under one OpenBLAS thread.
On a 2-CPU machine, two workers each on OpenBLAS's default two threads put
four threads on two cores; stage.retrieve of a 5k x 20k x 300 retrieval
with two workers took 1.46-1.90 s (CPU 2.9-3.7 s) that way against
1.39-1.46 s (CPU 2.3-2.6 s) under one OpenBLAS thread, three runs each.
A single-worker pass leaves the count alone, so its products use every
CPU. align_procrustes computes its map under one thread too: with two
threads the 300 x 300 SVD sometimes took about a second instead of a few
hundredths, and the map's last bits depended on the thread count. The
float32 screen's margin holds in any summation order, so no result
depends on the thread count.

Candidate files are read back in chunks of text: fields are split, words
looked up and scores parsed a chunk at a time, and a chunk that fails a check
is re-read row by row to name its first faulty line. A candidate listed twice
for one source is an error.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .corpus import (
    DataFormatError,
    EmbeddingSpace,
    TranslationDictionary,
    Vocabulary,
    _nfc,
    _parse_values,
    atomic_writer,
)

log = logging.getLogger(__name__)

# similarity blocks are sized so one block holds ~8M matrix cells; the size
# depends only on the problem shape, never on the worker count
BLOCK_CELLS = 8_000_000


def _block_rows(n_cols: int) -> int:
    return max(32, min(4096, BLOCK_CELLS // max(1, n_cols)))


# rows per top-k selection call. Rows are selected independently, so slicing
# changes no result; selecting whole blocks (400 x 20k, 1,600 x 5k) peaked
# 26-45 MB higher on a 5k x 20k retrieval, from temporaries left in the
# worker threads' heaps.
SELECT_ROWS = 128

# vector cells per float64 rescoring call: bounds each of its two (pairs x d)
# gathers to 512 KB, also for a row whose whole width lies inside the margin.
# 4 MB gathers made the top-50 selection of a 400 x 20k block 2-3x slower
# and the peak RSS of a 5k x 20k retrieval 15 MB higher.
RESCORE_CELLS = 1 << 16


@dataclass
class SimilarityParams:
    """Neighborhood size for the CSLS correction and candidates per source."""

    k_csls: int = 10
    top_k: int = 50

    def validate(self, n_tgt: int) -> None:
        if self.k_csls < 1 or self.k_csls > n_tgt:
            raise ValueError(f"k_csls must be in [1, {n_tgt}], got {self.k_csls}")
        if self.top_k < 1 or self.top_k > n_tgt:
            raise ValueError(f"top_k must be in [1, {n_tgt}], got {self.top_k}")


@dataclass
class NeighborhoodMeans:
    """Mean cosine of each vector to its k nearest cross-lingual neighbors."""

    r_src: np.ndarray
    r_tgt: np.ndarray


@dataclass
class CandidateSet:
    """Per-source ranked candidate lists: ids and scores, descending."""

    src_ids: np.ndarray      # (m,)
    cand_ids: np.ndarray     # (m, k)
    scores: np.ndarray       # (m, k)
    row_of: dict[int, int]

    @classmethod
    def from_arrays(cls, src_ids: np.ndarray, cand_ids: np.ndarray, scores: np.ndarray) -> "CandidateSet":
        row_of = {int(s): i for i, s in enumerate(src_ids)}
        return cls(src_ids=src_ids, cand_ids=cand_ids, scores=scores, row_of=row_of)

    def __contains__(self, src_id: int) -> bool:
        return src_id in self.row_of

    def for_source(self, src_id: int) -> tuple[np.ndarray, np.ndarray]:
        row = self.row_of[src_id]
        return self.cand_ids[row], self.scores[row]


class ScanStats:
    """Shortlist widths, rescored pairs and block-buffer sizes of the similarity passes, for run.log.

    Workers add to it concurrently, under a lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.rows = 0
        self.columns = 0
        self.widest = 0
        self.rescored = 0
        self.buffer_bytes = 0

    def note_shortlist(self, kept: np.ndarray, rescored: int) -> None:
        """Record the columns kept per row by one top-k selection's screen, and the pairs it rescored."""
        with self._lock:
            self.rows += kept.size
            self.columns += int(kept.sum())
            self.widest = max(self.widest, int(kept.max(initial=0)))
            self.rescored += rescored

    def note_buffers(self, nbytes: int) -> None:
        """Record the block buffers one pass held."""
        with self._lock:
            self.buffer_bytes = max(self.buffer_bytes, nbytes)

    def fields(self) -> dict[str, str]:
        """Mean and widest shortlist in columns per row, mean float64 pairs rescored per row, and the
        largest buffer total of one pass in MB."""
        rows = max(self.rows, 1)
        return {
            "shortlist_mean": f"{self.columns / rows:.1f}",
            "shortlist_max": str(self.widest),
            "rescored_mean": f"{self.rescored / rows:.1f}",
            "buffer_mb": f"{self.buffer_bytes / 2**20:.1f}",
        }


def _check_aligned_pair(src: EmbeddingSpace, tgt: EmbeddingSpace) -> None:
    if src.dim != tgt.dim:
        raise ValueError(f"dimension mismatch: source d={src.dim}, target d={tgt.dim}")
    if not (src.normalized and tgt.normalized):
        raise ValueError("both spaces must be row-normalized")


def _map_row_blocks(fn, n_rows: int, n_cols: int, n_threads: int, stats: ScanStats | None = None) -> list:
    """Apply fn(lo, hi, out) to fixed-size row blocks, preserving block order.

    out is an (hi - lo, n_cols) float32 block buffer that fn may overwrite.
    A buffer is taken from a pool when a block starts and returned when it
    ends, so there are at most as many buffers as workers; they are freed
    when this call returns. Block boundaries depend only on the problem
    shape, not on n_threads, so the concatenated result is identical for any
    worker count. A pool of more than one worker runs under one OpenBLAS
    thread (_one_blas_thread); one worker leaves the count alone.
    """
    block = _block_rows(n_cols)
    spans = [(lo, min(lo + block, n_rows)) for lo in range(0, n_rows, block)]
    free: list[np.ndarray] = []  # list.pop and list.append are atomic
    made: list[int] = []

    def run(span: tuple[int, int]):
        lo, hi = span
        try:
            buf = free.pop()
        except IndexError:
            buf = np.empty((min(block, n_rows), n_cols), dtype=np.float32)
            made.append(buf.nbytes)
        try:
            return fn(lo, hi, buf[: hi - lo])
        finally:
            free.append(buf)

    if n_threads <= 1 or len(spans) <= 1:
        parts = [run(span) for span in spans]
    else:
        with _one_blas_thread(), ThreadPoolExecutor(max_workers=n_threads) as pool:
            parts = list(pool.map(run, spans))
    if stats is not None:
        stats.note_buffers(sum(made))
    return parts


def _chunk_width(n: int, k: int) -> int:
    """Column-chunk width of the top-k screen over rows of n values.

    A row narrower than 16k columns is one chunk of n columns, kept whole.
    Wider rows get at least 8k chunks of at most 65 columns, so the kept
    chunks are a small share of the row. A width above 16 is rounded down
    to the form 16j + 1: np.maximum.reduceat runs the maximum loop over the
    width - 1 values after each chunk's first, and numpy's SIMD loop takes
    16 float32 values a step and the rest one at a time. Best of 20 per
    128 x 20k float32 slice on a 2-CPU Xeon VM: widths 33, 49 and 65 took
    1.3-1.8 ms, widths 32, 48 and 64 took 4.2-6.0 ms.
    """
    if n < 16 * k:
        return n
    width = min(65, n // (8 * k))
    return width if width <= 16 else width - (width - 1) % 16


def _shortlist(rows: np.ndarray, k: int, slack: float) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Screen: the columns of each row that can hold a value within slack of its k-th largest.

    Each row is cut into chunks of _chunk_width columns (the last may be
    shorter) and the k-th largest chunk maximum is taken as the bound, or the
    smallest when there are fewer than k chunks. k distinct columns reach
    that bound, so it is at most the row's k-th largest value: every chunk
    holding a value at or above the k-th minus slack, boundary ties
    included, has a maximum at or above bound - slack and is kept.

    Returns (values, chunks, width, kept): values (m, c * width) holds the
    kept chunks of each row side by side in ascending chunk order, the short
    last chunk padded with -inf; a row that keeps fewer than c chunks fills
    its last slots with chunks it did not keep, whose values are all below
    bound - slack. chunks (m, c) is the chunk index of each slot. Position p
    of a row is column chunks[row, p // width] * width + p % width, ascending
    over the kept values, so a lowest-position tie rule on values is the
    lowest-id rule. kept (m,) counts the columns each row kept.
    """
    m, n = rows.shape
    width = _chunk_width(n, k)
    # reduceat is faster here than a max over the last axis of a 3-d view; _chunk_width picks widths
    # whose maximum loop has no scalar tail
    maxima = np.maximum.reduceat(rows, np.arange(0, n, width), axis=1)
    n_chunks = maxima.shape[1]
    n_whole, tail = divmod(n, width)
    whole = rows[:, : n_whole * width].reshape(m, n_whole, width)
    kth = max(0, n_chunks - k)
    # in float64: float32 arithmetic would round the slack away
    floor = np.partition(maxima, kth, axis=1)[:, kth].astype(np.float64) - slack
    keep = maxima >= floor[:, None]
    counts = keep.sum(axis=1)
    c = int(counts.max())
    chunks = np.argsort(~keep, axis=1, kind="stable")[:, :c]  # kept chunks first, each part ascending
    values = whole[np.arange(m)[:, None], np.minimum(chunks, n_whole - 1)]  # (m, c, width)
    kept = counts * width
    if tail:  # the short last chunk: its columns, then -inf
        at_tail = chunks == n_whole
        values[at_tail] = -np.inf
        values[at_tail, :tail] = rows[np.nonzero(at_tail)[0], n_whole * width :]
        kept -= (width - tail) * keep[:, -1]
    return values.reshape(m, c * width), chunks, width, kept


def _topk_desc_full(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k by descending score over whole rows, ties broken by
    ascending column id; the selection rule that _topk_desc_rows applies.

    A row with more than k values at or above its k-th (a tie across the
    boundary) takes those above it, then the lowest ids of those equal to
    it; the k of each row are then ordered by value, then by id.
    """
    if k > scores.shape[1]:
        raise ValueError(f"k={k} exceeds row length {scores.shape[1]}")
    chosen = np.argpartition(scores, -k, axis=1)[:, -k:]
    boundary = np.take_along_axis(scores, chosen, axis=1).min(axis=1)
    over = np.flatnonzero((scores >= boundary[:, None]).sum(axis=1) > k)
    tied, bound = scores[over], boundary[over, None]
    # rank 0 above the boundary, 1 on it, 2 below; a stable sort keeps ids ascending within each
    chosen[over] = np.argsort(np.add(tied <= bound, tied < bound, dtype=np.int8), axis=1, kind="stable")[:, :k]
    vals = np.take_along_axis(scores, chosen, axis=1)
    order = np.lexsort((chosen, -vals), axis=1)
    return np.take_along_axis(chosen, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _pair_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot product of each row of A with the same row of B: the one per-pair routine of the rescoring.

    A pair's bits depend only on its two vectors, not on how many rows the
    arrays hold, where the pair sits in them or how they are aligned.
    """
    return np.einsum("md,md->m", A, B)


def _rescorer(Q: np.ndarray, I: np.ndarray, r: np.ndarray | None = None):
    """rescore(rows, cols): each pair's float64 cosine Q[row] . I[col], or its CSLS screen value
    2 * cosine - r[col] given r; pairs go through _pair_dots RESCORE_CELLS vector cells at a time."""
    step = max(1, RESCORE_CELLS // Q.shape[1])

    def rescore(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        out = np.empty(rows.size)
        for lo in range(0, rows.size, step):
            out[lo : lo + step] = _pair_dots(Q[rows[lo : lo + step]], I[cols[lo : lo + step]])
        if r is not None:
            out *= 2.0
            out -= r[cols]
        return out

    return rescore


def _max_norm(M: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("ij,ij->i", M, M).max(initial=0.0)))


def _screen_margin(Q: np.ndarray, I: np.ndarray, r: np.ndarray | None = None) -> float:
    """Certified margin of the float32 screen of Q's rows against I's: cosine, or CSLS 2 * cosine - r given r.

    Twice the bound e on |screen value - rescored value| of one pair that
    the module docstring derives.
    """
    d = Q.shape[1]
    u, u64 = 2.0**-24, 2.0**-53
    q, i = _max_norm(Q), _max_norm(I)
    dots = ((d + 2) * u / (1 - (d + 2) * u) + d * u64 / (1 - d * u64)) * q * i
    underflow = d * (1 + q + i) * 2.0**-140
    if r is None:
        return 2 * (dots + underflow)
    steps = (u + u64) * (4 * q * i + 3 * float(np.abs(r).max(initial=0.0)))
    return 2 * (2 * dots + steps + underflow)


def _topk_desc_rows(
    screen: np.ndarray, k: int, margin: float, rescore, stats: ScanStats | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exact top-k of rescored values, by descending value, ties broken by ascending column id.

    screen (m, n) holds every pair's value to within margin / 2, in any
    float precision; rescore(rows, cols) gives the float64 values of pairs,
    rows counted from the first of screen. SELECT_ROWS rows at a time,
    _shortlist keeps the chunks that can hold a screen value within margin
    of the row's k-th, the kept columns whose screen values come within
    margin of that k-th are rescored in ascending column order, and
    _topk_desc_full selects on the rescored values. The result is that of
    _topk_desc_full over whole rows of rescored values. Returns (ids,
    values), each (m, k); stats gets the kept columns and rescored pairs.
    """
    id_parts, value_parts = [], []
    for lo in range(0, len(screen), SELECT_ROWS):
        values, chunks, width, kept = _shortlist(screen[lo : lo + SELECT_ROWS], k, margin)
        kth = np.partition(values, -k, axis=1)[:, -k].astype(np.float64)
        rows, pos = np.nonzero(values >= (kth - margin)[:, None])  # row by row, positions ascending
        cols = chunks[rows, pos // width] * width + pos % width
        counts = np.bincount(rows, minlength=len(values))
        slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rescored = np.full((len(values), counts.max()), -np.inf)  # -inf pads rows with fewer pairs
        rescored[rows, slot] = rescore(rows + lo, cols)
        ids = np.zeros(rescored.shape, dtype=np.int64)
        ids[rows, slot] = cols
        at, top = _topk_desc_full(rescored, k)
        id_parts.append(np.take_along_axis(ids, at, axis=1))
        value_parts.append(top)
        if stats is not None:
            stats.note_shortlist(kept, rows.size)
    return np.concatenate(id_parts), np.concatenate(value_parts)


def _topk_mean_rows(screen: np.ndarray, k: int, margin: float, rescore, stats: ScanStats | None = None) -> np.ndarray:
    """Mean of the k largest rescored values per row, summed in _topk_desc_rows' order:
    value descending, ties by ascending id, so the mean is the same to the bit whatever the route."""
    _, top = _topk_desc_rows(screen, k, margin, rescore, stats)
    # cumsum adds strictly left to right, largest value first
    return np.cumsum(top, axis=1)[:, -1] / k


def csls_score(x: np.ndarray, y: np.ndarray, r_x: float, r_y: float) -> float:
    """Hub-corrected similarity of two unit vectors: 2*cos(x, y) - r_x - r_y."""
    return 2.0 * float(x.dot(y)) - r_x - r_y


def knn_mean_similarity(
    queries: EmbeddingSpace,
    index: EmbeddingSpace,
    k: int,
    n_threads: int = 1,
    stats: ScanStats | None = None,
) -> np.ndarray:
    """Per query row, the mean cosine of its k nearest index rows.

    A query vector also present in the index is not excluded from its own
    neighborhood; the two spaces are different languages in normal use.
    """
    _check_aligned_pair(queries, index)
    if k < 1 or k > len(index):
        raise ValueError(f"k must be in [1, {len(index)}], got {k}")
    Q, I = queries.matrix, index.matrix
    Q32, I32 = Q.astype(np.float32), I.astype(np.float32)
    margin = _screen_margin(Q, I)

    def block(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        np.matmul(Q32[lo:hi], I32.T, out=out)
        return _topk_mean_rows(out, k, margin, _rescorer(Q[lo:hi], I), stats)

    parts = _map_row_blocks(block, len(queries), len(index), n_threads, stats)
    return np.concatenate(parts) if parts else np.zeros(0)


def retrieve_topk(
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    params: SimilarityParams,
    metric: str = "csls",
    n_threads: int = 1,
    rows: np.ndarray | None = None,
    means: NeighborhoodMeans | None = None,
    stats: ScanStats | None = None,
) -> tuple[CandidateSet, NeighborhoodMeans]:
    """Exact top-k retrieval of target candidates for the source ids in rows
    (default: every source word), in that order.

    metric "csls" scores 2*cos(x,y) - r_src(x) - r_tgt(y) with neighborhood
    means at k_csls over the whole spaces, whatever rows holds, so a scoped
    row scores as in a full run. means, if given, must be the means that a
    run over every source of these spaces at this k_csls returned; else r_tgt
    is computed here and r_src inside each block. metric "cosine" scores the
    cosine itself: means is ignored and the returned means are zero. Each
    cosine is the _pair_dots value of its two vectors. The returned r_src
    covers the retrieved rows only.
    """
    _check_aligned_pair(src, tgt)
    params.validate(len(tgt))
    if metric not in ("csls", "cosine"):
        raise ValueError(f"unknown metric {metric!r}")
    csls = metric == "csls"
    if not csls:
        means = NeighborhoodMeans(r_src=np.zeros(len(src)), r_tgt=np.zeros(len(tgt)))
    src_ids = np.arange(len(src), dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    X = src.matrix if rows is None else src.matrix[src_ids]
    Y = tgt.matrix
    if means is not None:
        r_tgt = means.r_tgt
    else:
        r_tgt = knn_mean_similarity(tgt, src, min(params.k_csls, len(src)), n_threads, stats)
    X32, Y32, r_tgt32 = X.astype(np.float32), Y.astype(np.float32), r_tgt.astype(np.float32)
    cosine_margin = _screen_margin(X, Y)
    margin = _screen_margin(X, Y, r_tgt) if csls else cosine_margin

    def block(lo: int, hi: int, sims: np.ndarray):
        np.matmul(X32[lo:hi], Y32.T, out=sims)
        if means is not None:
            r_src_block = means.r_src[src_ids[lo:hi]]
        else:
            r_src_block = _topk_mean_rows(sims, params.k_csls, cosine_margin, _rescorer(X[lo:hi], Y), stats)
        if csls:
            sims *= 2.0
            sims -= r_tgt32
        rescore = _rescorer(X[lo:hi], Y, r_tgt if csls else None)
        ids, vals = _topk_desc_rows(sims, params.top_k, margin, rescore, stats)
        if csls:
            vals -= r_src_block[:, None]
        return ids, vals, r_src_block

    parts = _map_row_blocks(block, len(src_ids), len(tgt), n_threads, stats)
    cand_ids = np.concatenate([p[0] for p in parts]) if parts else np.zeros((0, params.top_k), dtype=np.int64)
    scores = np.concatenate([p[1] for p in parts]) if parts else np.zeros((0, params.top_k))
    r_src = np.concatenate([p[2] for p in parts]) if parts else np.zeros(0)

    cands = CandidateSet.from_arrays(src_ids, cand_ids.astype(np.int64), scores)
    return cands, NeighborhoodMeans(r_src=r_src, r_tgt=r_tgt)


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, through ctypes; None if not found."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy loaded: dlopen returns the loaded object
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block under one OpenBLAS thread and restore the previous count after it, also on error.

    BLAS is left alone when OPENBLAS_NUM_THREADS is set or the controls are not found.
    """
    controls = None if "OPENBLAS_NUM_THREADS" in os.environ else _openblas_threads()
    if controls is None:
        yield
        return
    get, set_ = controls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def blas_threads(one_thread: bool) -> str:
    """The OpenBLAS thread count of work run under _one_blas_thread (one_thread) or outside it, for run.log.

    "1" under it, unless OPENBLAS_NUM_THREADS is set; else the library's
    count; "unknown" without the controls.
    """
    controls = _openblas_threads()
    if controls is None:
        return "unknown"
    return "1" if one_thread and "OPENBLAS_NUM_THREADS" not in os.environ else str(controls[0]())


def align_procrustes(src: EmbeddingSpace, tgt: EmbeddingSpace, seed: TranslationDictionary) -> np.ndarray:
    """Orthogonal map W minimizing ||XW - Y||_F over seed pairs, via SVD of X^T Y.

    Pairs with multiple targets contribute one row per target. W is computed
    under one OpenBLAS thread (_one_blas_thread): the last bits of the SVD and
    of the products around it depend on the thread count.
    """
    _check_aligned_pair(src, tgt)
    if not seed.entries:
        raise ValueError("empty seed dictionary")
    src_rows = []
    tgt_rows = []
    for s in sorted(seed.entries):
        for t in seed.entries[s]:
            src_rows.append(s)
            tgt_rows.append(t)
    X = src.matrix[src_rows]
    Y = tgt.matrix[tgt_rows]
    with _one_blas_thread():
        U, _, Vt = np.linalg.svd(X.T @ Y)
        W = U @ Vt
    err = np.abs(W.T @ W - np.eye(src.dim)).max()
    if err >= 1e-5:
        raise ArithmeticError(f"alignment matrix not orthogonal: max |W'W - I| = {err:.2e}")
    return W


def apply_alignment(space: EmbeddingSpace, W: np.ndarray) -> EmbeddingSpace:
    """Rotate a normalized space into the target space; norms are preserved."""
    return EmbeddingSpace(
        vocab=space.vocab,
        matrix=space.matrix @ W,
        dim=space.dim,
        normalized=space.normalized,
        duplicate_count=space.duplicate_count,
        zero_row_count=space.zero_row_count,
    )


def mutual_nn_pairs(
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    best: CandidateSet,
    means: NeighborhoodMeans,
    n_threads: int = 1,
    stats: ScanStats | None = None,
) -> list[tuple[int, int, float]]:
    """High-confidence pairs: mutual CSLS nearest neighbors, best first.

    best and means are what retrieve_topk returned for every source of these
    spaces (top_k=1 is enough): column 0 of best is each source's CSLS argmax
    over targets. (s, t) is kept when t is s's argmax and s is t's CSLS argmax
    over sources, which a top-1 retrieval from the target side finds with the
    two means swapped. Argmax ties go to the lowest id. Pairs are sorted by
    descending score, then ascending source id.
    """
    src_ids = np.arange(len(src))
    if not np.array_equal(best.src_ids, src_ids):
        raise ValueError("mutual_nn_pairs needs the candidates of every source, in id order")
    swapped = NeighborhoodMeans(r_src=means.r_tgt, r_tgt=means.r_src)
    # k_csls only passes validation here: the given means replace the neighborhood passes
    back, _ = retrieve_topk(
        tgt, src, SimilarityParams(k_csls=1, top_k=1), n_threads=n_threads, means=swapped, stats=stats
    )
    best_t, best_s, scores = best.cand_ids[:, 0], back.cand_ids[:, 0], best.scores[:, 0]
    mutual = src_ids[best_s[best_t] == src_ids]
    order = np.lexsort((mutual, -scores[mutual]))
    return [(int(s), int(best_t[s]), float(scores[s])) for s in mutual[order]]


def augment_dictionary(
    seed: TranslationDictionary,
    mined: list[tuple[int, int, float]],
    n_aug: int,
) -> TranslationDictionary:
    """Extend the seed with the n_aug best mined pairs over new sources.

    mined must already be sorted by descending score. Pairs whose source is
    already in the seed are skipped; a shortfall is logged if fewer than
    n_aug pairs are available.
    """
    entries = dict(seed.entries)
    added = 0
    for s, t, _ in mined:
        if added >= n_aug:
            break
        if s in entries:
            continue
        entries[s] = (t,)
        added += 1
    if added < n_aug:
        log.warning("augment_dictionary: requested %d pairs, only %d available", n_aug, added)
    return TranslationDictionary(entries=entries, oov_src=seed.oov_src, oov_tgt=seed.oov_tgt)


def mine_hard_negatives(
    dic: TranslationDictionary,
    cands: CandidateSet,
    n_neg: int = 20,
) -> list[tuple[int, int, int]]:
    """Label training pairs: each (source, gold) positive plus its n_neg
    highest-scoring non-gold candidates as negatives."""
    out: list[tuple[int, int, int]] = []
    for s in sorted(dic.entries):
        if s not in cands:
            raise DataFormatError(f"source id {s} in dictionary has no candidate list")
        gold = set(dic.entries[s])
        ids, _ = cands.for_source(s)
        negatives = [int(c) for c in ids if int(c) not in gold][:n_neg]
        if not negatives:
            log.warning("mine_hard_negatives: source id %d has no non-gold candidates", s)
        for g in dic.entries[s]:
            out.append((s, int(g), 1))
            out.extend((s, c, 0) for c in negatives)
    return out


def k_occurrence(cands: CandidateSet, k: int, n_tgt: int) -> np.ndarray:
    """N_k(y) over n_tgt targets: how many of cands' sources list target y among their first k candidates."""
    if not 1 <= k <= cands.cand_ids.shape[1]:
        raise ValueError(f"k must be in [1, {cands.cand_ids.shape[1]}], got {k}")
    return np.bincount(cands.cand_ids[:, :k].ravel(), minlength=n_tgt)


def skewness(values: np.ndarray) -> float:
    """Standardized third moment; 0.0 for a constant sample."""
    x = np.asarray(values, dtype=np.float64)
    mean = x.mean()
    d = x - mean
    m2 = (d * d).mean()
    if m2 == 0.0:
        return 0.0
    m3 = (d * d * d).mean()
    return float(m3 / m2 ** 1.5)


def hubness_skew(cands: CandidateSet, k: int, n_tgt: int) -> float:
    """Skewness of the k-occurrence distribution over targets; higher = hubbier."""
    return skewness(k_occurrence(cands, k, n_tgt).astype(np.float64))


def write_candidates(cands: CandidateSet, src_vocab: Vocabulary, tgt_vocab: Vocabulary, path: str | Path) -> None:
    """Export "src<TAB>cand<TAB>score" rows, grouped by source in retrieval order; all or nothing."""
    with atomic_writer(path) as fh:
        for s, cand_row, score_row in zip(cands.src_ids.tolist(), cands.cand_ids, cands.scores):
            sw = src_vocab.word(s)
            # tolist() gives Python ints and floats; a float formats as the float64 it came from
            rows = zip(cand_row.tolist(), score_row.tolist())
            fh.write("".join(f"{sw}\t{tgt_vocab.word(c)}\t{v:.6f}\n" for c, v in rows))


# Characters per read in load_candidates, extended to the end of a line: enough
# to amortize the per-chunk calls, few enough that a chunk's field strings stay
# near a megabyte (larger chunks raised the peak RSS of a later stage).
CANDIDATE_CHUNK_CHARS = 1 << 16


def _data_chunks(fh) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
    """Yield (text, UTF-8 bytes of text, line numbers) per chunk of whole data lines.

    Each line of text ends in \n; blank lines and # comments are dropped and
    the line numbers (1-based, in the file) are those of the lines kept.
    Universal newlines have already turned \r and \r\n into \n, the only
    line break here (str.splitlines would also break at \x85 and others),
    and in UTF-8 no other character holds a \n, \t or # byte.
    """
    line_base = 0
    while text := fh.read(CANDIDATE_CHUNK_CHARS):
        if not text.endswith("\n"):
            text += fh.readline()
        if not text.endswith("\n"):  # the last line of a file without a final newline
            text += "\n"
        raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        ends = np.flatnonzero(raw == 10)
        numbers = np.arange(line_base + 1, line_base + 1 + ends.size)
        line_base += ends.size
        heads = raw[np.concatenate(([0], ends[:-1] + 1))]
        skipped = (heads == 10) | (heads == 35)
        if skipped.any():
            lines = text.split("\n")
            kept = np.flatnonzero(~skipped)
            text = "".join([lines[i] + "\n" for i in kept.tolist()])
            raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
            numbers = numbers[kept]
        if numbers.size:
            yield text, raw, numbers


def _word_ids(words: list[str], vocab: Vocabulary, cache: dict[str, int]) -> np.ndarray:
    """Vocabulary id of each raw word, -1 if unknown; each distinct word is normalized and looked up once."""
    try:
        return np.fromiter(map(cache.__getitem__, words), dtype=np.int64, count=len(words))
    except KeyError:  # words not seen in earlier chunks: add every new word of this one
        for w in set(words).difference(cache):
            cache[w] = vocab.index.get(_nfc(w), -1)
    return np.fromiter(map(cache.__getitem__, words), dtype=np.int64, count=len(words))


def _raise_first_fault(
    path: Path,
    numbered: list[tuple[int, str]],
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    seen: np.ndarray,
    current: int,
) -> None:
    """Check rows one at a time, in the order load_candidates lists, and raise the first fault.

    seen marks the source ids whose rows came before, current is the source
    of the row just before.
    """
    for line_no, line in numbered:
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataFormatError(f"{path}: line {line_no}: expected 'src<TAB>cand<TAB>score'")
        sw, cw = _nfc(fields[0]), _nfc(fields[1])
        if sw not in src_vocab:
            raise DataFormatError(f"{path}: line {line_no}: unknown source word {sw!r}")
        if cw not in tgt_vocab:
            raise DataFormatError(f"{path}: line {line_no}: unknown candidate word {cw!r}")
        try:
            score = float(fields[2])
        except ValueError:
            raise DataFormatError(f"{path}: line {line_no}: non-numeric score {fields[2]!r}") from None
        if not math.isfinite(score):
            raise DataFormatError(f"{path}: line {line_no}: non-finite score {fields[2]!r}")
        s = src_vocab.id(sw)
        if s != current:
            if seen[s]:
                raise DataFormatError(f"{path}: line {line_no}: rows for {sw!r} are not contiguous")
            seen[s] = True
            current = s
    raise AssertionError(f"{path}: a chunk flagged as faulty has no fault")


def load_candidates(path: str | Path, src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> CandidateSet:
    """Read a candidate export back; rows must stay grouped by source.

    Each row is "src<TAB>cand<TAB>score"; blank lines and # comments are
    skipped. A row's checks run in this order: three fields, a known source
    word, a known candidate word, a numeric score, a finite score, and rows of
    one source contiguous. The first faulty row in file order is an error
    naming its line. After the whole file, lists of mixed lengths are an
    error, then a candidate repeated within one source's list (naming the
    second occurrence).

    The file is parsed CANDIDATE_CHUNK_CHARS characters at a time, extended
    to a line end: a chunk's fields are split at once, each distinct word is
    normalized and looked up once, and its scores are parsed by one
    corpus._parse_values call. A chunk that fails one of these whole-chunk
    checks is checked again row by row, to name its first fault.
    """
    path = Path(path)
    src_cache: dict[str, int] = {}
    tgt_cache: dict[str, int] = {}
    seen = np.zeros(len(src_vocab), dtype=bool)
    current = -1
    src_parts, cand_parts, score_parts, line_parts = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for text, raw, numbers in _data_chunks(fh):
            n = numbers.size
            # each row holds exactly two tabs: tabs 2i and 2i + 1 lie between the ends of rows i - 1 and i
            tabs, ends = np.flatnonzero(raw == 9), np.flatnonzero(raw == 10)
            ok = tabs.size == 2 * n and (tabs[1::2] < ends).all() and (tabs[2::2] > ends[:-1]).all()
            if ok:
                fields = text.replace("\n", "\t").split("\t")
                src = _word_ids(fields[0:-1:3], src_vocab, src_cache)
                cand = _word_ids(fields[1::3], tgt_vocab, tgt_cache)
                starts = src[src != np.concatenate(([current], src[:-1]))]
                ok = (src >= 0).all() and (cand >= 0).all()
                ok = ok and not seen[starts].any() and np.unique(starts).size == starts.size
            if not ok:
                numbered = list(zip(numbers.tolist(), text.split("\n")))
                _raise_first_fault(path, numbered, src_vocab, tgt_vocab, seen, current)
            texts = fields[2::3]
            scores = _parse_values(
                texts, 1, "\t", lambda i, kind: f"{path}: line {numbers[i]}: {kind} score {texts[i]!r}"
            )
            seen[starts] = True
            current = int(src[-1])
            src_parts.append(src)
            cand_parts.append(cand)
            score_parts.append(scores[:, 0])
            line_parts.append(numbers)
    if not src_parts:
        return CandidateSet.from_arrays(np.zeros(0, dtype=np.int64), np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0)))

    src = np.concatenate(src_parts)
    starts = np.flatnonzero(np.concatenate(([True], src[1:] != src[:-1])))
    widths = np.diff(np.append(starts, src.size))
    if (widths != widths[0]).any():
        raise DataFormatError(f"{path}: candidate lists have mixed lengths {sorted(set(widths.tolist()))}")
    k = int(widths[0])
    cand_ids = np.concatenate(cand_parts).reshape(-1, k)
    ordered = np.sort(cand_ids, axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeated.any():
        r = int(np.argmax(repeated))
        row = cand_ids[r].tolist()
        j = next(j for j, c in enumerate(row) if c in row[:j])
        line_no = np.concatenate(line_parts)[r * k + j]
        sw, cw = src_vocab.word(int(src[starts[r]])), tgt_vocab.word(row[j])
        raise DataFormatError(f"{path}: line {line_no}: candidate {cw!r} repeated for {sw!r}")
    return CandidateSet.from_arrays(src[starts], cand_ids, np.concatenate(score_parts).reshape(-1, k))


def write_labeled_pairs(
    pairs: list[tuple[int, int, int]],
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    path: str | Path,
) -> None:
    """Export "src<TAB>cand<TAB>label" rows for cross-encoder fine-tuning; all or nothing."""
    with atomic_writer(path) as fh:
        for s, t, label in pairs:
            fh.write(f"{src_vocab.word(s)}\t{tgt_vocab.word(t)}\t{label}\n")
