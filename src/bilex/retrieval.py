"""Alignment, exact cosine/CSLS retrieval, mining, hubness diagnostics, and
candidate files.

All similarity work is exact brute force over blocked matrix products. Blocks
have a fixed size, results are reduced in block order, and every tie is
broken by ascending id, so output is bitwise independent of the worker count.

Each worker writes its blocks' products into one block buffer, held for the
length of a pass and freed when it returns; CSLS scores 2*S - r are formed
in place there, so no pass allocates or copies a whole block. Every top-k
selection, of candidates and of neighborhood means, takes one path,
SELECT_ROWS rows at a time to keep each worker's temporaries small: a row is
screened by the maxima of fixed-width column chunks (a row narrower than 16k
is one chunk, kept whole), the chunks reaching the k-th largest chunk
maximum hold every value at or above the row's k-th, ties included, and the
exact selection runs on that shortlist; means are summed in descending order.

retrieve_topk is the only code that forms similarity scores; cosine is CSLS
with zero means and a scale of 1. CSLS neighborhood means always cover the
whole source and target spaces; a run over every source returns them, and a
retrieval scoped to some source rows scores them against those means, as a
full run does. Mutual nearest neighbors are a top-1 retrieval in each
direction over the same means, and hubness counts the first columns of a
retrieval's candidate lists.

Every product of the two spaces goes through _product, which multiplies a
single row as two (with a zero row): numpy sends a one-row product down
another BLAS route, so one scoped row would otherwise differ from its row in
a full run.

Candidate files are read back in chunks of text: fields are split, words
looked up and scores parsed a chunk at a time, and a chunk that fails a check
is re-read row by row to name its first faulty line. A candidate listed twice
for one source is an error.
"""

from __future__ import annotations

import logging
import math
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
    """Shortlist widths and block-buffer sizes of the similarity passes, for run.log.

    Workers add to it concurrently, under a lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.rows = 0
        self.columns = 0
        self.widest = 0
        self.buffer_bytes = 0

    def note_shortlist(self, kept: np.ndarray) -> None:
        """Record the columns kept per row by one top-k selection."""
        with self._lock:
            self.rows += kept.size
            self.columns += int(kept.sum())
            self.widest = max(self.widest, int(kept.max(initial=0)))

    def note_buffers(self, nbytes: int) -> None:
        """Record the block buffers one pass held."""
        with self._lock:
            self.buffer_bytes = max(self.buffer_bytes, nbytes)

    def fields(self) -> dict[str, str]:
        """Mean and widest shortlist in columns per row, and the largest buffer total of one pass in MB."""
        mean = self.columns / self.rows if self.rows else 0.0
        return {
            "shortlist_mean": f"{mean:.1f}",
            "shortlist_max": str(self.widest),
            "buffer_mb": f"{self.buffer_bytes / 2**20:.1f}",
        }


def _check_aligned_pair(src: EmbeddingSpace, tgt: EmbeddingSpace) -> None:
    if src.dim != tgt.dim:
        raise ValueError(f"dimension mismatch: source d={src.dim}, target d={tgt.dim}")
    if not (src.normalized and tgt.normalized):
        raise ValueError("both spaces must be row-normalized")


def _map_row_blocks(fn, n_rows: int, n_cols: int, n_threads: int, stats: ScanStats | None = None) -> list:
    """Apply fn(lo, hi, out) to fixed-size row blocks, preserving block order.

    out is an (hi - lo, n_cols) float64 block buffer that fn may overwrite.
    A buffer is taken from a pool when a block starts and returned when it
    ends, so there are at most as many buffers as workers; they are freed
    when this call returns. Block boundaries depend only on the problem
    shape, not on n_threads, so the concatenated result is identical for any
    worker count.
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
            buf = np.empty((min(block, n_rows), n_cols))
            made.append(buf.nbytes)
        try:
            return fn(lo, hi, buf[: hi - lo])
        finally:
            free.append(buf)

    if n_threads <= 1 or len(spans) <= 1:
        parts = [run(span) for span in spans]
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            parts = list(pool.map(run, spans))
    if stats is not None:
        stats.note_buffers(sum(made))
    return parts


def _chunk_width(n: int, k: int) -> int:
    """Column-chunk width of the top-k screen over rows of n values.

    A row narrower than 16k columns is one chunk of n columns, kept whole.
    Wider rows get at least 8k chunks of at most 64 columns, so the kept
    chunks are a small share of the row.
    """
    return n if n < 16 * k else min(64, n // (8 * k))


def _shortlist(rows: np.ndarray, k: int, stats: ScanStats | None) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact screen: the columns of each row that can hold one of its k largest values.

    Each row is cut into chunks of _chunk_width columns (the last may be
    shorter) and the k-th largest chunk maximum is taken, or the smallest
    when there are fewer than k chunks. k distinct columns reach that bound,
    so it is at most the row's k-th largest value: every chunk holding a
    value at or above the k-th, boundary ties included, has a maximum at or
    above the bound and is kept.

    Returns (values, chunks, width): values (m, c * width) holds the kept
    chunks of each row side by side in ascending chunk order, the short last
    chunk padded with -inf; a row that keeps fewer than c chunks fills its
    last slots with chunks it did not keep, whose values are all below the
    bound and never reach its top k. chunks (m, c) is the chunk index of each
    slot. Position p of a row is column chunks[row, p // width] * width +
    p % width, ascending over the kept values, so a lowest-position tie rule
    on values is the lowest-id rule. stats gets the kept columns per row.
    """
    m, n = rows.shape
    width = _chunk_width(n, k)
    # reduceat is faster here than a max over the last axis of a 3-d view
    maxima = np.maximum.reduceat(rows, np.arange(0, n, width), axis=1)
    n_chunks = maxima.shape[1]
    n_whole, tail = divmod(n, width)
    whole = rows[:, : n_whole * width].reshape(m, n_whole, width)
    kth = max(0, n_chunks - k)
    bound = np.partition(maxima, kth, axis=1)[:, kth]
    keep = maxima >= bound[:, None]
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
    if stats is not None:
        stats.note_shortlist(kept)
    return values.reshape(m, c * width), chunks, width


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


def _select(rows: np.ndarray, k: int, stats: ScanStats | None, pick) -> list:
    """pick(values, chunks, width) on the _shortlist of each SELECT_ROWS slice of rows, in row order."""
    return [pick(*_shortlist(rows[lo : lo + SELECT_ROWS], k, stats)) for lo in range(0, len(rows), SELECT_ROWS)]


def _topk_desc_rows(scores: np.ndarray, k: int, stats: ScanStats | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k by descending score, ties broken by ascending column id.

    Returns (ids, values), each (m, k). Exact even when values tie across the
    selection boundary: rows are screened to their kept chunks first, which
    hold every value at or above the k-th, and _topk_desc_full then runs on
    that shortlist.
    """

    def pick(values, chunks, width):
        pos, vals = _topk_desc_full(values, k)
        return np.take_along_axis(chunks, pos // width, axis=1) * width + pos % width, vals

    parts = _select(scores, k, stats, pick)
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _topk_mean_rows(sims: np.ndarray, k: int, stats: ScanStats | None = None) -> np.ndarray:
    """Mean of the k largest values per row, summed in descending order.

    The k values are the same whichever route selects them, and a fixed
    summation order makes the mean the same to the bit; rows are screened as
    in _topk_desc_rows.
    """

    def pick(values, chunks, width):
        top = np.sort(np.partition(values, -k, axis=1)[:, -k:], axis=1)
        # cumsum adds strictly left to right, largest value first
        return np.cumsum(top[:, ::-1], axis=1)[:, -1] / k

    return np.concatenate(_select(sims, k, stats, pick))


def csls_score(x: np.ndarray, y: np.ndarray, r_x: float, r_y: float) -> float:
    """Hub-corrected similarity of two unit vectors: 2*cos(x, y) - r_x - r_y."""
    return 2.0 * float(x.dot(y)) - r_x - r_y


def _product(rows: np.ndarray, other: np.ndarray, out: np.ndarray) -> None:
    """out = rows @ other.T, with a single row multiplied below a zero row."""
    if len(rows) == 1:
        out[:] = np.matmul(np.vstack([rows, np.zeros_like(rows)]), other.T)[:1]
    else:
        np.matmul(rows, other.T, out=out)


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

    def block(lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        _product(Q[lo:hi], I, out)
        return _topk_mean_rows(out, k, stats)

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
    is computed here and r_src inside each block. metric "cosine" is CSLS
    with a scale of 1 and zero means, which leaves the dot product to the
    bit; means is ignored and the returned means are zero. The returned
    r_src covers the retrieved rows only.
    """
    _check_aligned_pair(src, tgt)
    params.validate(len(tgt))
    if metric not in ("csls", "cosine"):
        raise ValueError(f"unknown metric {metric!r}")
    scale = 2.0
    if metric == "cosine":
        scale, means = 1.0, NeighborhoodMeans(r_src=np.zeros(len(src)), r_tgt=np.zeros(len(tgt)))
    src_ids = np.arange(len(src), dtype=np.int64) if rows is None else np.asarray(rows, dtype=np.int64)
    X = src.matrix if rows is None else src.matrix[src_ids]
    if means is not None:
        r_tgt = means.r_tgt
    else:
        r_tgt = knn_mean_similarity(tgt, src, min(params.k_csls, len(src)), n_threads, stats)

    def block(lo: int, hi: int, sims: np.ndarray):
        _product(X[lo:hi], tgt.matrix, sims)
        if means is not None:
            r_src_block = means.r_src[src_ids[lo:hi]]
        else:
            r_src_block = _topk_mean_rows(sims, params.k_csls, stats)
        sims *= scale
        sims -= r_tgt[None, :]
        ids, vals = _topk_desc_rows(sims, params.top_k, stats)
        vals -= r_src_block[:, None]
        return ids, vals, r_src_block

    parts = _map_row_blocks(block, len(src_ids), len(tgt), n_threads, stats)
    cand_ids = np.concatenate([p[0] for p in parts]) if parts else np.zeros((0, params.top_k), dtype=np.int64)
    scores = np.concatenate([p[1] for p in parts]) if parts else np.zeros((0, params.top_k))
    r_src = np.concatenate([p[2] for p in parts]) if parts else np.zeros(0)

    cands = CandidateSet.from_arrays(src_ids, cand_ids.astype(np.int64), scores)
    return cands, NeighborhoodMeans(r_src=r_src, r_tgt=r_tgt)


def align_procrustes(src: EmbeddingSpace, tgt: EmbeddingSpace, seed: TranslationDictionary) -> np.ndarray:
    """Orthogonal map W minimizing ||XW - Y||_F over seed pairs, via SVD of X^T Y.

    Pairs with multiple targets contribute one row per target.
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
