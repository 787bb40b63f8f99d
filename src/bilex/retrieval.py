"""Alignment, exact cosine/CSLS retrieval, mining, hubness diagnostics, and
candidate files.

All similarity work is exact brute force over blocked matrix products. Blocks
have a fixed size, results are reduced in block order, and every tie is
broken by ascending id, so output is bitwise independent of the worker count.

Each worker writes its blocks' products into one float32 block buffer and
rescores into one float64 buffer, both made in the calling thread before
the pass starts and freed when it returns, so no pass allocates or copies
a whole block. Only a pass's index side is cast to float32 whole: each
block casts its own query rows, so no pass holds a float32 copy of its
queries. The float32 values only screen. Every top-k selection, of
candidates and of neighborhood means, takes one path over a whole block,
and no step of it runs over a whole row but one elementwise chunk maximum
per row:
- the index rows are laid out as product columns so that chunk j of a row
  is every count-th column from column j (_Chunks); its maxima are then
  elementwise maxima of contiguous runs, which numpy vectorizes and which
  scale with the workers (np.maximum.reduceat holds the GIL). Chunk j holds
  the j-th run of ids in ascending order of the r that a CSLS screen
  subtracts, so the screen values fl32(2 * S - fl32(r)) of a chunk lie
  between two values computed from its cosine maximum and the chunk's
  largest and smallest r. Both selections of a retrieval block, r_src and
  the candidates, share the block's maxima, and no CSLS screen is formed
  over a whole row;
- the k-th largest low chunk value bounds the row's k-th screen value from
  below, and only the chunks whose high value comes within the screen
  margin of it are read; every column in them whose screen value comes
  within the margin of the bound is rescored in float64 by one per-pair
  routine, _pair_dots, a grid of rows by id slots per call, each row's
  query vector repeated across its slots by a zero stride (_rescorer);
- the exact selection, value descending and ties by ascending id, runs on
  the rescored values (_topk_desc_full); means are summed in that order.
The result is that of the same selection over whole rows of rescored
values. _pair_dots gives a pair's value from its two vectors alone,
whatever the grid shape, slot, row offset or alignment, so a retrieval
scoped to some rows equals those rows of a full run bit for bit.

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
neighbors come from one full top-1 retrieval: its blocks also screen their
products column by column for each target's CSLS argmax over sources
(_BackArgmax), with one running best per target, so no pass runs from the
target side. Hubness counts the first columns of a retrieval's candidate
lists.

Every similarity pass runs its blocks on n_threads workers (_map_row_blocks)
under one OpenBLAS thread, through numpy's OpenBLAS thread controls
(_one_blas_thread) when they can be reached and OPENBLAS_NUM_THREADS is
unset; the previous count is back when the pass ends. A worker is a CPU. On
a 2-CPU machine a 5k x 20k x 300 retrieval took 1.39-1.46 s at two workers
that way, against 1.46-1.90 s with each worker on OpenBLAS's default two
threads; one worker on those two threads read 1.06-1.82 s, and burnt about
twice its wall time in CPU as the idle BLAS thread spun between products.
align_procrustes computes its map under one thread too: with two threads
the 300 x 300 SVD sometimes took about a second instead of a few
hundredths, and the map's last bits depended on the thread count. The
float32 screen's margin holds in any summation order, so no result
depends on the thread count.

Candidate files are read back a block of lines at a time (corpus._data_blocks):
fields are split, words looked up and scores parsed a block at a time, and a
block that fails a check is re-read row by row to name its first faulty line.
A candidate listed twice for one source is an error.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (
    DataFormatError,
    EmbeddingSpace,
    TranslationDictionary,
    Vocabulary,
    _data_blocks,
    _nfc,
    _parse_values,
    atomic_writer,
)

log = logging.getLogger(__name__)

# product cells per similarity block, 128 rows of 20k targets: a float32 buffer
# of up to 10 MB per worker, and the rows of every top-k selection, which takes
# a block whole. The size depends only on the problem shape, never on the
# worker count. No bit depends on it either, since every selected pair is
# rescored by _pair_dots. Against 4M-cell blocks selected in slices of 2.56M
# cells, peak RSS fell from 180.8 to 168.8 MB on a two-worker 5k x 20k x 300
# retrieve and from 117.8 to 112.8 MB on a 6k x 6k semi train, at wall times of
# 1.73 -> 1.72 s and 2.23 -> 2.14 s (2-CPU VM, medians of ten alternated pairs).
BLOCK_CELLS = 2_560_000


def _block_rows(n_cols: int) -> int:
    return max(32, min(4096, BLOCK_CELLS // max(1, n_cols)))


# float64 values in each worker's rescoring buffer (512 KB): the index
# vectors of one _pair_dots call, also for a row whose whole width lies
# inside the margin. 4 MB gathers made the top-50 selection of a 400 x 20k
# block 2-3x slower and the peak RSS of a 5k x 20k retrieval 15 MB higher.
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
    row_at: np.ndarray       # (max source id + 1,): the row of each source id, -1 if it has none

    @classmethod
    def from_arrays(cls, src_ids: np.ndarray, cand_ids: np.ndarray, scores: np.ndarray) -> "CandidateSet":
        row_at = np.full(int(src_ids.max(initial=-1)) + 1, -1, dtype=np.int64)
        row_at[src_ids] = np.arange(len(src_ids))
        return cls(src_ids=src_ids, cand_ids=cand_ids, scores=scores, row_at=row_at)

    def rows_for(self, src_ids: list[int]) -> np.ndarray:
        """The row of each source id, -1 for an id without one."""
        ids = np.asarray(src_ids, dtype=np.int64)
        inside = (ids >= 0) & (ids < len(self.row_at))
        rows = np.full(ids.shape, -1, dtype=np.int64)
        rows[inside] = self.row_at[ids[inside]]
        return rows

    def __contains__(self, src_id: int) -> bool:
        return 0 <= src_id < len(self.row_at) and self.row_at[src_id] >= 0

    def for_source(self, src_id: int) -> tuple[np.ndarray, np.ndarray]:
        if src_id not in self:
            raise KeyError(src_id)
        row = self.row_at[src_id]
        return self.cand_ids[row], self.scores[row]


class ScanStats:
    """Shortlist widths, rescored pairs, block-buffer sizes, product cells and block times of the similarity
    passes, for run.log.

    Workers add to it concurrently, under a lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.rows = 0
        self.columns = 0
        self.widest = 0
        self.rescored = 0
        self.back_rescored = 0
        self.buffer_bytes = 0
        self.product_cells = 0
        self.gemm_s = 0.0
        self.select_s = 0.0

    def note_shortlist(self, kept: np.ndarray, rescored: int) -> None:
        """Record the columns kept per row by one top-k selection's screen, and the pairs it rescored."""
        with self._lock:
            self.rows += kept.size
            self.columns += int(kept.sum())
            self.widest = max(self.widest, int(kept.max(initial=0)))
            self.rescored += rescored

    def note_back(self, rescored: int) -> None:
        """Record the pairs that a column screen (_BackArgmax) rescored."""
        with self._lock:
            self.back_rescored += rescored

    def note_pass(self, buffer_bytes: int, cells: int) -> None:
        """Record the block buffers one pass held and the cells of its float32 product."""
        with self._lock:
            self.buffer_bytes = max(self.buffer_bytes, buffer_bytes)
            self.product_cells += cells

    def note_block(self, gemm_s: float, select_s: float) -> None:
        """Record one block's seconds in its float32 product and in the rest of its work."""
        with self._lock:
            self.gemm_s += gemm_s
            self.select_s += select_s

    def fields(self) -> dict[str, str]:
        """Mean and widest shortlist in columns per row, mean float64 pairs rescored per row, the pairs
        that column screens rescored to find each target's argmax over sources, the largest buffer
        total of one pass in MB, the product cells of all passes in millions, and the blocks' product
        and selection seconds summed over the workers.

        Every product runs on one OpenBLAS thread (_one_blas_thread), so gemm_s, summed over the
        workers, is also their CPU seconds in the products."""
        rows = max(self.rows, 1)
        return {
            "shortlist_mean": f"{self.columns / rows:.1f}",
            "shortlist_max": str(self.widest),
            "rescored_mean": f"{self.rescored / rows:.1f}",
            "back_rescored": str(self.back_rescored),
            "buffer_mb": f"{self.buffer_bytes / 2**20:.1f}",
            "product_mcells": f"{self.product_cells / 1e6:.3f}",
            "gemm_s": f"{self.gemm_s:.3f}",
            "select_s": f"{self.select_s:.3f}",
        }


def _check_aligned_pair(src: EmbeddingSpace, tgt: EmbeddingSpace) -> None:
    if src.dim != tgt.dim:
        raise ValueError(f"dimension mismatch: source d={src.dim}, target d={tgt.dim}")
    if not (src.normalized and tgt.normalized):
        raise ValueError("both spaces must be row-normalized")


def _map_row_blocks(
    fn,
    A: np.ndarray,
    B32: np.ndarray,
    n_threads: int,
    stats: ScanStats | None = None,
    width: int | None = None,
    held: int = 0,
) -> list:
    """Apply fn(lo, hi, sims, pairs) to fixed-size row blocks of the float32 product A @ B32.T, preserving block order.

    sims (hi - lo, c * width) holds the product of rows lo:hi in its first
    len(B32) columns and -inf in the rest: rows padded to whole chunks of
    width columns (default: one chunk, no padding). It is a float32 block
    buffer that fn may overwrite, as long as the padding stays -inf, and the
    unit of every selection: fn takes its rows whole. pairs
    is a float64 buffer of RESCORE_CELLS values for the rescoring
    (_rescorer). A's rows may be of any float type: each block casts its
    own rows to float32, so no float32 copy of A is made. One pair of
    buffers per worker, at most one per block, is made here before any
    block starts, taken from a pool when a block starts and put back when
    it ends; all are freed when this call returns. Block boundaries depend
    only on the problem shape, not on n_threads, so the concatenated result
    is identical for any worker count. The pool runs under one OpenBLAS
    thread (_one_blas_thread). stats gets each block's seconds in the
    product and in fn, the buffers' bytes plus held, the bytes of other
    state that fn keeps over the pass, and the product's cells.
    """
    n_rows, n_cols = len(A), len(B32)
    width = width or max(n_cols, 1)
    padded = -(-n_cols // width) * width
    block = _block_rows(n_cols)
    spans = [(lo, min(lo + block, n_rows)) for lo in range(0, n_rows, block)]
    workers = max(1, min(n_threads, len(spans)))
    # list.pop and list.append are atomic; at most `workers` blocks run at once
    free = []
    for _ in spans[:workers]:
        sims = np.empty((min(block, n_rows), padded), dtype=np.float32)
        sims[:, n_cols:] = -np.inf
        free.append((sims, np.empty(RESCORE_CELLS)))
    if stats is not None:
        stats.note_pass(held + sum(sims.nbytes + pairs.nbytes for sims, pairs in free), n_rows * n_cols)

    def run(span: tuple[int, int]):
        lo, hi = span
        sims, pairs = free.pop()
        try:
            t0 = time.perf_counter()
            np.matmul(A[lo:hi].astype(np.float32), B32.T, out=sims[: hi - lo, :n_cols])
            t1 = time.perf_counter()
            result = fn(lo, hi, sims[: hi - lo], pairs)
            if stats is not None:
                stats.note_block(t1 - t0, time.perf_counter() - t1)
            return result
        finally:
            free.append((sims, pairs))

    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, spans))


def _chunk_width(n: int, k: int) -> int:
    """Width of the chunks a top-k screen cuts rows of n >= k values into: the integer nearest sqrt(n / k).

    A row's n / width chunk maxima and the about k * width values of its
    kept chunks are then of one size, sqrt(n * k), and there are at least
    k chunks. In a 5k x 20k retrieval (top 50, means over 10) on a 2-CPU
    Xeon VM, width 20 took the pass 1.32 s at two workers against 1.43 s
    with chunks of up to 65 columns, medians of 6 alternated runs.
    """
    return max(1, round(math.sqrt(n / k)))


@dataclass
class _Chunks:
    """How one similarity pass lays out its index rows as product columns, and screens rows chunk by chunk.

    A row of the float32 product has count * width columns: the first n
    hold the index rows in the order of ids, the rest -inf. Chunk j is the
    columns j, j + count, j + 2 * count, ..., so the maxima of all chunks
    are elementwise maxima of a row's width contiguous runs of count
    values, which numpy vectorizes across the run (a maximum over each
    chunk of contiguous columns runs a short loop per chunk, and
    np.maximum.reduceat holds the GIL, so two workers run it one at a
    time). Chunk j holds the j-th run of ids in ascending order of r, the
    neighborhood means a CSLS screen subtracts (ascending id for a cosine
    pass): all chunks hold width ids but the last few, which hold width - 1
    and one padding column. So the CSLS screen values
    fl32(2 * S - fl32(r)) of a chunk lie between those of its cosine
    maximum with the chunk's largest and smallest r (rounding is
    monotone), and no pass forms the screen of a whole block.
    """

    width: int
    count: int
    ids: np.ndarray  # (n,) the index id of each product column
    r_slots: np.ndarray | None  # (count, width) float32 r of the id in each chunk slot, 0 on padding
    r_low: np.ndarray | None  # (count,) float32 smallest r of each chunk
    r_high: np.ndarray | None  # (count,) float32 largest r of each chunk

    @classmethod
    def build(cls, n: int, k: int, r: np.ndarray | None = None) -> "_Chunks":
        """The layout of a pass over n index rows whose widest selection is a top-k, chunks sorted by r if given."""
        width = _chunk_width(n, k)
        count = -(-n // width)
        order = np.arange(n) if r is None else np.argsort(r, kind="stable")
        sizes = np.full(count, width)
        sizes[count - (count * width - n) :] -= 1  # the chunks that end in padding
        starts = np.cumsum(sizes) - sizes
        slot, chunk = np.divmod(np.arange(n), count)
        ids = order[starts[chunk] + slot]
        if r is None:
            return cls(width, count, ids, None, None, None)
        r32 = r.astype(np.float32)
        r_slots = np.zeros((count, width), dtype=np.float32)
        r_slots[chunk, slot] = r32[ids]
        return cls(width, count, ids, r_slots, r32[order[starts]], r32[order[starts + sizes - 1]])

    def cast(self, M: np.ndarray) -> np.ndarray:
        """The index rows M[ids] in float32, the operand of the product; 256 rows at a time, so that their
        float64 gather stays small (4,096 at a time raised semi train's peak RSS by 7 MB)."""
        out = np.empty((len(self.ids), M.shape[1]), dtype=np.float32)
        for lo in range(0, len(out), 256):
            out[lo : lo + 256] = M[self.ids[lo : lo + 256]]
        return out

    def maxima(self, sims: np.ndarray) -> np.ndarray:
        """(m, count) float32 maximum of each chunk of each row."""
        return sims.reshape(len(sims), self.width, self.count).max(axis=1)

    def shortlist(
        self, rows: np.ndarray, maxima: np.ndarray, k: int, slack: float, csls: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Screen: the pairs of rows whose screen value can lie within slack of the row's k-th largest.

        rows are product rows, maxima their chunk maxima; the screen value is
        the product itself, or fl32(2 * S - fl32(r)) given csls. Each chunk
        has a low value, which one of its columns reaches, and a high value
        that none exceeds: its maximum twice (cosine: as is), less its
        largest and smallest r. The bound is the k-th largest low value
        (_chunk_width leaves at least k chunks): k distinct columns reach
        it, so it is at most the row's k-th largest screen value. Every
        value at or above that k-th minus slack, boundary ties included, is
        at or above bound - slack, and so is the high value of its chunk:
        only those chunks are read. Returns (row, id, kept): every pair
        whose screen value reaches bound - slack, row by row, and (m,) the
        columns of the chunks each row read, padding included.
        """
        m = len(rows)
        strided = rows.reshape(m, self.width, self.count)
        # one (m, count) temporary in the screen's precision: the low values, partitioned in place, then the high
        chunk_values = maxima * (2.0 if csls else 1.0)
        if csls:
            chunk_values -= self.r_high
        chunk_values.partition(self.count - k, axis=1)
        bound = chunk_values[:, self.count - k].astype(np.float64)
        if csls:
            np.multiply(maxima, 2.0, out=chunk_values)
            chunk_values -= self.r_low
        else:
            chunk_values = maxima
        # the floor bound - slack, in float64 (float32 arithmetic would round the slack away), then rounded down to
        # the screen's precision: a screen value reaches it if it reaches bound - slack, or equals it
        floor_screen = _round_down(bound - slack, rows.dtype)
        kept_rows, kept_chunks = _nonzero(chunk_values >= floor_screen[:, None])
        # the maxima (unless the caller keeps them for a second selection) and each temporary go once read: the
        # peak of a block's selection adds to its worker's buffers
        del chunk_values, maxima
        values = strided[kept_rows, :, kept_chunks]  # (kept chunks, width)
        if csls:
            values *= 2.0
            values -= self.r_slots[kept_chunks]
        hits = values >= floor_screen[kept_rows, None]
        del values
        at, slot = _nonzero(hits)
        kept = np.bincount(kept_rows, minlength=m) * self.width
        return kept_rows[at], self.ids[slot * self.count + kept_chunks[at]], kept


def _nonzero(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.nonzero of a 2-d mask, in the same row-major order, through np.flatnonzero: 7-13 times as fast on the
    sparse masks of a block's chunk screen (426 x 250 cells: 48 against 327 us)."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _round_down(values: np.ndarray, dtype=np.float32) -> np.ndarray:
    """float64 values rounded down to dtype: a value of dtype reaches the result if it reaches the value."""
    out = values.astype(dtype)
    above = out > values
    out[above] = np.nextafter(out[above], -np.inf)
    return out


class _BackArgmax:
    """Each index row's CSLS argmax over the query rows of a full forward pass, merged block by block.

    The value of a pair (s, t) is fl(2 * cosine - r_src(s)): the value on
    which a top-1 retrieval from the index side, with the two means swapped,
    selects (it subtracts r_tgt(t) only after selecting), ties to the lowest
    query id. Its cosine is the _pair_dots value of (t, s). The state is one
    running best per product column, an exact value and a query id, merged
    under a lock by value descending, then id ascending, so the result
    depends on neither the block order nor the worker count; with the
    float32 floor of each column it is 20 bytes per index row, whatever the
    block count.

    Each block is screened on its float32 product. With e the bound on
    |screen value - rescored value| (half the margin), a pair can beat its
    column's running best only if its screen value fl32(2 * S - fl32(r_src))
    reaches that best less e, the column's floor. While a column has no best
    yet, its floor is the block's lowest possible best screen value less 2e:
    its maximum cosine twice, less the block's largest r_src (rounding is
    monotone). A screen value is at most fl32(2 * S - r) for the block's
    smallest r_src r, which rounds below the floor unless 2 * S - r is within
    half a float32 spacing of it: one comparison of the product with a
    threshold per column finds the pairs that can reach the floor. Of those,
    the pairs whose screen value reaches the floor and their column's largest
    screen value in the block less 2e are rescored.
    """

    def __init__(self, chunks: _Chunks, Q: np.ndarray, I: np.ndarray, margin: float):
        n = len(chunks.ids)
        self.ids, self.Q, self.I, self.error = chunks.ids, Q, I, margin / 2
        self.value = np.full(n, -np.inf)
        self.query = np.zeros(n, dtype=np.int64)
        self.floor = np.full(n, -np.inf, dtype=np.float32)  # value - e rounded down to float32
        self.nbytes = self.value.nbytes + self.query.nbytes + self.floor.nbytes
        self._lock = threading.Lock()

    def add(self, q0: int, rows: np.ndarray, r_src: np.ndarray, pairs: np.ndarray, stats: ScanStats | None) -> None:
        """Merge product rows q0, q0 + 1, ... (their r_src given) into each column's running best."""
        n, d = len(self.value), self.Q.shape[1]
        sims, r32 = rows[:, :n], r_src.astype(np.float32)
        with self._lock:
            floor = self.floor.copy()
        if np.isneginf(floor).any():
            low = sims.max(axis=0)
            low *= 2.0
            low -= r32.max()
            np.maximum(floor, _round_down(low.astype(np.float64) - 2 * self.error), out=floor)
        # 2 * S - r reaches floor - spacing / 2, or fl32 rounds it below the floor
        gap = floor - np.nextafter(floor, -np.inf)
        least = _round_down((floor.astype(np.float64) + float(r32.min()) - gap) / 2)
        row, col = _nonzero(sims >= least)
        screen = sims[row, col] * np.float32(2.0)
        screen -= r32[row]
        keep = np.flatnonzero(screen >= floor[col])
        # by column, rows ascending: the pairs within 2e of their column's largest screen value
        keep = keep[np.argsort(col[keep], kind="stable")]
        row, col, screen = row[keep], col[keep], screen[keep]
        starts = np.flatnonzero(np.diff(col, prepend=-1))
        if not starts.size:
            return
        top = np.repeat(np.maximum.reduceat(screen, starts), np.diff(starts, append=col.size))
        keep = screen >= _round_down(top.astype(np.float64) - 2 * self.error)
        row, col = row[keep], col[keep]
        # the exact values, the index vector first, as the index-side retrieval orders them
        value = np.empty(row.size)
        per_call = len(pairs) // (2 * d)
        for p0 in range(0, row.size, per_call):
            size = min(per_call, row.size - p0)
            a, b = pairs[: 2 * size * d].reshape(2, size, d)
            np.take(self.I, self.ids[col[p0 : p0 + size]], axis=0, out=a, mode="clip")
            np.take(self.Q, q0 + row[p0 : p0 + size], axis=0, out=b, mode="clip")
            value[p0 : p0 + size] = _pair_dots(a, b)
        value *= 2.0
        value -= r_src[row]
        query = q0 + row
        # each column's best of these rows: value descending, then query id ascending
        order = np.lexsort((query, -value, col))
        first = order[np.flatnonzero(np.diff(col[order], prepend=-1))]
        col, value, query = col[first], value[first], query[first]
        with self._lock:
            held = self.value[col]
            wins = (value > held) | ((value == held) & (query < self.query[col]))
            col, value = col[wins], value[wins]
            self.value[col] = value
            self.query[col] = query[wins]
            self.floor[col] = _round_down(value - self.error)
        if stats is not None:
            stats.note_back(row.size)

    def argmax(self, out: np.ndarray) -> None:
        """Write each index row's argmax query id into out, by index id."""
        out[self.ids] = self.query


def _topk_desc_full(scores: np.ndarray, k: int, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k by descending score over whole rows, ties broken by
    ascending id; the selection rule that _topk_desc_rows applies. ids
    gives each score's id.

    A row with more than k values at or above its k-th (a tie across the
    boundary) takes those above it, then the lowest ids of those equal to
    it; the k of each row are then ordered by value, then by id. Returns
    the columns of the k and their scores.
    """
    if k > scores.shape[1]:
        raise ValueError(f"k={k} exceeds row length {scores.shape[1]}")
    chosen = np.argpartition(scores, -k, axis=1)[:, -k:]
    boundary = np.take_along_axis(scores, chosen, axis=1).min(axis=1)
    over = np.flatnonzero((scores >= boundary[:, None]).sum(axis=1) > k)
    tied, bound = scores[over], boundary[over, None]
    # rank 0 above the boundary, 1 on it, 2 below; ids ascending within each
    rank = np.add(tied <= bound, tied < bound, dtype=np.int8)
    chosen[over] = np.lexsort((ids[over], rank), axis=1)[:, :k]
    vals = np.take_along_axis(scores, chosen, axis=1)
    order = np.lexsort((np.take_along_axis(ids, chosen, axis=1), -vals), axis=1)
    return np.take_along_axis(chosen, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _pair_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot product of each vector of A with the same vector of B, over the last axis: the one per-pair routine
    of the rescoring.

    A pair's bits depend only on its two vectors, not on how many pairs the
    arrays hold, how they are shaped, where the pair sits in them, how they
    are aligned, or whether A repeats one vector along an axis by a zero
    stride (np.broadcast_to, or a length-1 axis that einsum broadcasts).
    """
    return np.einsum("...d,...d->...", A, B)


def _rescorer(Q: np.ndarray, I: np.ndarray, pairs: np.ndarray, r: np.ndarray | None = None):
    """rescore(ids, counts): the float64 cosine Q[i] . I[ids[i, j]] of the first counts[i] ids of each row i of
    ids, or its CSLS screen value 2 * cosine - r[ids[i, j]] given r; -inf past a row's count.

    Each call of _pair_dots takes a grid of rows by id slots: the index
    vectors are gathered into pairs, a float64 buffer made before the pass
    (np.take with out=), and each row's query vector is broadcast across
    its slots, never copied. Slots go in rounds of the rows'
    mean count, each round over the rows that have ids left, so a row with
    many ids costs its own slots only.
    """
    d = Q.shape[1]

    def rescore(ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
        m, c = ids.shape
        out = np.full((m, c), -np.inf)
        step = min(-(-int(counts.sum()) // max(m, 1)), max(1, len(pairs) // d))
        for c0 in range(0, c, step):
            live = np.flatnonzero(counts > c0)
            c1 = min(c0 + step, c)
            per_call = max(1, len(pairs) // ((c1 - c0) * d))
            for i in range(0, live.size, per_call):
                rows = live[i : i + per_call]
                if rows[-1] - rows[0] == len(rows) - 1:  # consecutive rows, as in a first round: views
                    rows = slice(rows[0], rows[-1] + 1)
                cols = ids[rows, c0:c1]
                index = pairs[: cols.size * d].reshape(*cols.shape, d)
                np.take(I, cols, axis=0, out=index, mode="clip")
                out[rows, c0:c1] = _pair_dots(Q[rows, None], index)
        if r is not None:
            out *= 2.0
            out -= r[ids]
        out[np.arange(c) >= counts[:, None]] = -np.inf
        return out

    return rescore


def _max_norm(M: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("ij,ij->i", M, M).max(initial=0.0)))


def _screen_margin(d: int, q: float, i: float, r: float | None = None) -> float:
    """Certified margin of the float32 screen of d-dimensional query rows against index rows, q and i the largest
    row norms of each (_max_norm): cosine, or CSLS 2 * cosine - r given r, the largest |r|.

    Twice the bound e on |screen value - rescored value| of one pair that
    the module docstring derives.
    """
    u, u64 = 2.0**-24, 2.0**-53
    dots = ((d + 2) * u / (1 - (d + 2) * u) + d * u64 / (1 - d * u64)) * q * i
    underflow = d * (1 + q + i) * 2.0**-140
    if r is None:
        return 2 * (dots + underflow)
    steps = (u + u64) * (4 * q * i + 3 * r)
    return 2 * (2 * dots + steps + underflow)


def _topk_desc_rows(
    screen: np.ndarray,
    chunks: _Chunks,
    k: int,
    margin: float,
    rescore,
    stats: ScanStats | None = None,
    maxima: np.ndarray | None = None,
    csls: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exact top-k of rescored values, by descending value, ties broken by ascending id.

    screen holds a block's product rows laid out by chunks (_Chunks), and
    maxima their chunk maxima (computed here if not given); every pair's
    screen value, the product itself or fl32(2 * S - fl32(r)) given csls,
    lies within margin / 2 of its rescored value. rescore(ids, counts) gives
    the float64 values of the first counts[i] ids of each row i (_rescorer).
    _Chunks.shortlist finds the ids whose screen value can come within
    margin of the row's k-th, they are rescored, and _topk_desc_full
    selects on the rescored values. The result is that of _topk_desc_full
    over whole rows of rescored values in id order. Returns (ids, values),
    each (m, k); stats gets the columns read and the pairs rescored.
    """
    # maxima computed here are held by the shortlist alone, which lets them go once read
    rows, cols, kept = chunks.shortlist(screen, chunks.maxima(screen) if maxima is None else maxima, k, margin, csls)
    counts = np.bincount(rows, minlength=len(kept))
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    ids = np.zeros((len(kept), counts.max()), dtype=np.int64)  # id 0 in the slots past a row's count
    ids[rows, slot] = cols
    at, top = _topk_desc_full(rescore(ids, counts), k, ids)
    if stats is not None:
        stats.note_shortlist(kept, rows.size)
    return np.take_along_axis(ids, at, axis=1), top


def _topk_mean_rows(
    screen: np.ndarray,
    chunks: _Chunks,
    k: int,
    margin: float,
    rescore,
    stats: ScanStats | None = None,
    maxima: np.ndarray | None = None,
) -> np.ndarray:
    """Mean of the k largest rescored values per row, summed in _topk_desc_rows' order:
    value descending, ties by ascending id, so the mean is the same to the bit whatever the route."""
    _, top = _topk_desc_rows(screen, chunks, k, margin, rescore, stats, maxima)
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
    margin = _screen_margin(Q.shape[1], _max_norm(Q), _max_norm(I))
    chunks = _Chunks.build(len(I), k)

    def block(lo: int, hi: int, sims: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        return _topk_mean_rows(sims, chunks, k, margin, _rescorer(Q[lo:hi], I, pairs), stats)

    parts = _map_row_blocks(block, Q, chunks.cast(I), n_threads, stats, chunks.width)
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
    back: np.ndarray | None = None,
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

    back, an int64 array of len(tgt), is filled by a CSLS run over every
    source with each target's CSLS argmax over sources, the lowest id on a
    tie: what a top-1 retrieval from the target side with the two means
    swapped selects (_BackArgmax), without its pass.
    """
    _check_aligned_pair(src, tgt)
    params.validate(len(tgt))
    if metric not in ("csls", "cosine"):
        raise ValueError(f"unknown metric {metric!r}")
    csls = metric == "csls"
    if back is not None and (rows is not None or not csls):
        raise ValueError("a target's argmax over sources needs a CSLS run over every source")
    if not csls:
        means = NeighborhoodMeans(r_src=np.zeros(len(src)), r_tgt=np.zeros(len(tgt)))
    src_ids = np.arange(len(src), dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    X = src.matrix if rows is None else src.matrix[src_ids]
    Y = tgt.matrix
    if means is not None:
        r_tgt = means.r_tgt
    else:
        r_tgt = knn_mean_similarity(tgt, src, min(params.k_csls, len(src)), n_threads, stats)
    # the largest row norms, once per pass: every margin and bound below comes from these two
    d, x_norm, y_norm = X.shape[1], _max_norm(X), _max_norm(Y)
    cosine_margin = _screen_margin(d, x_norm, y_norm)
    margin = _screen_margin(d, x_norm, y_norm, float(np.abs(r_tgt).max(initial=0.0))) if csls else cosine_margin
    # one layout for both selections of a block, chunked for the larger k
    chunks = _Chunks.build(len(Y), max(params.top_k, params.k_csls if means is None else 1), r_tgt if csls else None)
    columns = None
    if back is not None:
        # no mean of cosines exceeds twice the product of the largest norms, so 2A bounds the r_src it subtracts
        columns = _BackArgmax(chunks, X, Y, _screen_margin(d, y_norm, x_norm, 2.0 * x_norm * y_norm))

    def block(lo: int, hi: int, sims: np.ndarray, pairs: np.ndarray):
        maxima = chunks.maxima(sims)  # both selections of a block share its chunk maxima
        if means is not None:
            r_src = means.r_src[src_ids[lo:hi]]
        else:
            cosine = _rescorer(X[lo:hi], Y, pairs)
            r_src = _topk_mean_rows(sims, chunks, params.k_csls, cosine_margin, cosine, stats, maxima)
        if columns is not None:
            columns.add(lo, sims, r_src, pairs, stats)
        rescore = _rescorer(X[lo:hi], Y, pairs, r_tgt if csls else None)
        ids, vals = _topk_desc_rows(sims, chunks, params.top_k, margin, rescore, stats, maxima, csls)
        if csls:
            vals -= r_src[:, None]
        return ids, vals, r_src

    held = 0 if columns is None else columns.nbytes
    parts = _map_row_blocks(block, X, chunks.cast(Y), n_threads, stats, chunks.width, held)
    if columns is not None:
        columns.argmax(back)
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


def blas_threads() -> str:
    """The OpenBLAS thread count every similarity pass runs at, for run.log.

    "1" (_one_blas_thread), unless OPENBLAS_NUM_THREADS is set; else the
    library's count; "unknown" without the controls.
    """
    controls = _openblas_threads()
    if controls is None:
        return "unknown"
    return "1" if "OPENBLAS_NUM_THREADS" not in os.environ else str(controls[0]())


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


def mutual_nn_pairs(best: CandidateSet, back: np.ndarray) -> list[tuple[int, int, float]]:
    """High-confidence pairs: mutual CSLS nearest neighbors, best first.

    best and back are what retrieve_topk returned and filled for every
    source (top_k=1 is enough): column 0 of best is each source's CSLS
    argmax over targets, back each target's CSLS argmax over sources, both
    over the same means. (s, t) is kept when t is s's argmax and s is t's.
    Argmax ties go to the lowest id. Pairs are sorted by descending score,
    then ascending source id.
    """
    src_ids = np.arange(len(best.src_ids))
    if not np.array_equal(best.src_ids, src_ids):
        raise ValueError("mutual_nn_pairs needs the candidates of every source, in id order")
    best_t, scores = best.cand_ids[:, 0], best.scores[:, 0]
    mutual = src_ids[back[best_t] == src_ids]
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
    """Export "src<TAB>cand<TAB>score" rows, grouped by source in retrieval order; all or nothing.

    The rows of 256 sources at a time are formatted by one % call. On 5,000
    sources x 50 candidates that took 0.19 s against 0.28 s for one
    f-string per row (2-CPU VM), with the same bytes.
    """
    k = cands.cand_ids.shape[1]
    src_words, tgt_words = src_vocab.words, tgt_vocab.words
    with atomic_writer(path) as fh:
        for lo in range(0, len(cands.src_ids), 256):
            cand_ids = cands.cand_ids[lo : lo + 256].ravel()
            fields = [None] * (3 * cand_ids.size)
            fields[0::3] = [src_words[s] for s in np.repeat(cands.src_ids[lo : lo + 256], k).tolist()]
            fields[1::3] = [tgt_words[c] for c in cand_ids.tolist()]
            # tolist() gives Python floats, each formatting as the float64 it came from
            fields[2::3] = cands.scores[lo : lo + 256].ravel().tolist()
            fh.write(("%s\t%s\t%.6f\n" * cand_ids.size) % tuple(fields))


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

    The file is parsed a block of lines from corpus._data_blocks at a time: a
    block's fields are split at once, each distinct word is normalized and
    looked up once, and its scores are parsed by one corpus._parse_values
    call. A block that fails one of these whole-block checks is checked again
    row by row, to name its first fault.
    """
    path = Path(path)
    src_cache: dict[str, int] = {}
    tgt_cache: dict[str, int] = {}
    seen = np.zeros(len(src_vocab), dtype=bool)
    current = -1
    src_parts, cand_parts, score_parts, line_parts = [], [], [], []
    for lines, raw, numbers in _data_blocks(path):
        n = numbers.size
        # each row holds exactly two tabs: tabs 2i and 2i + 1 lie between the ends of rows i - 1 and i
        tabs, ends = np.flatnonzero(raw == 9), np.flatnonzero(raw == 10)
        ok = tabs.size == 2 * n and (tabs[1::2] < ends).all() and (tabs[2::2] > ends[:-1]).all()
        if ok:
            fields = "\t".join(lines).split("\t")
            src = _word_ids(fields[0::3], src_vocab, src_cache)
            cand = _word_ids(fields[1::3], tgt_vocab, tgt_cache)
            starts = src[src != np.concatenate(([current], src[:-1]))]
            ok = (src >= 0).all() and (cand >= 0).all()
            ok = ok and not seen[starts].any() and np.unique(starts).size == starts.size
        if not ok:
            _raise_first_fault(path, list(zip(numbers.tolist(), lines)), src_vocab, tgt_vocab, seen, current)
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
