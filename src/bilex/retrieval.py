"""Alignment, exact cosine/CSLS retrieval, mining, and hubness diagnostics.

All similarity work is exact brute force over blocked matrix products. Blocks
have a fixed size, results are reduced in block order, and every tie is
broken by ascending id, so output is bitwise independent of the worker count.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import DataFormatError, EmbeddingSpace, TranslationDictionary, Vocabulary, _data_lines, _nfc, atomic_writer

log = logging.getLogger(__name__)

# similarity blocks are sized so one block holds ~8M matrix cells; the size
# depends only on the problem shape, never on the worker count
BLOCK_CELLS = 8_000_000


def _block_rows(n_cols: int) -> int:
    return max(32, min(4096, BLOCK_CELLS // max(1, n_cols)))


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


def _check_aligned_pair(src: EmbeddingSpace, tgt: EmbeddingSpace) -> None:
    if src.dim != tgt.dim:
        raise ValueError(f"dimension mismatch: source d={src.dim}, target d={tgt.dim}")
    if not (src.normalized and tgt.normalized):
        raise ValueError("both spaces must be row-normalized")


def _map_row_blocks(fn, n_rows: int, n_cols: int, n_threads: int) -> list:
    """Apply fn(lo, hi) to fixed-size row blocks, preserving block order.

    Block boundaries depend only on the problem shape, not on n_threads, so
    the concatenated result is identical for any worker count.
    """
    block = _block_rows(n_cols)
    spans = [(lo, min(lo + block, n_rows)) for lo in range(0, n_rows, block)]
    if n_threads <= 1 or len(spans) <= 1:
        return [fn(lo, hi) for lo, hi in spans]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(lambda span: fn(*span), spans))


def _topk_desc_rows(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k by descending score, ties broken by ascending column id.

    Returns (ids, values), each (m, k). Exact even when values tie across the
    selection boundary.
    """
    m, n = scores.shape
    if k > n:
        raise ValueError(f"k={k} exceeds row length {n}")
    if k == n:
        chosen = np.broadcast_to(np.arange(n), (m, n)).copy()
    else:
        chosen = np.argpartition(scores, n - k, axis=1)[:, n - k:]
        rows = np.arange(m)[:, None]
        boundary = scores[rows, chosen].min(axis=1)
        n_greater = (scores > boundary[:, None]).sum(axis=1)
        n_tied_all = (scores == boundary[:, None]).sum(axis=1)
        ambiguous = np.nonzero(n_tied_all > k - n_greater)[0]
        for i in ambiguous:
            row = scores[i]
            greater = np.nonzero(row > boundary[i])[0]
            tied = np.nonzero(row == boundary[i])[0][: k - greater.size]
            chosen[i] = np.concatenate([greater, tied])
    # order within each row: ascending id first, then stable sort by -value
    id_order = np.argsort(chosen, axis=1)
    ids = np.take_along_axis(chosen, id_order, axis=1)
    vals = np.take_along_axis(scores, ids, axis=1)
    val_order = np.argsort(-vals, axis=1, kind="stable")
    ids = np.take_along_axis(ids, val_order, axis=1)
    vals = np.take_along_axis(vals, val_order, axis=1)
    return ids, vals


def _topk_mean_rows(sims: np.ndarray, k: int) -> np.ndarray:
    """Mean of the k largest values per row."""
    n = sims.shape[1]
    if k == n:
        top = sims
    else:
        top = np.partition(sims, n - k, axis=1)[:, n - k:]
    return top.sum(axis=1) / k


def csls_score(x: np.ndarray, y: np.ndarray, r_x: float, r_y: float) -> float:
    """Hub-corrected similarity of two unit vectors: 2*cos(x, y) - r_x - r_y."""
    return 2.0 * float(np.dot(x, y)) - r_x - r_y


def knn_mean_similarity(queries: EmbeddingSpace, index: EmbeddingSpace, k: int, n_threads: int = 1) -> np.ndarray:
    """Per query row, the mean cosine of its k nearest index rows.

    A query vector also present in the index is not excluded from its own
    neighborhood; the two spaces are different languages in normal use.
    """
    _check_aligned_pair(queries, index)
    if k < 1 or k > len(index):
        raise ValueError(f"k must be in [1, {len(index)}], got {k}")
    Q, I = queries.matrix, index.matrix

    def block(lo: int, hi: int) -> np.ndarray:
        return _topk_mean_rows(Q[lo:hi] @ I.T, k)

    parts = _map_row_blocks(block, len(queries), len(index), n_threads)
    return np.concatenate(parts) if parts else np.zeros(0)


def retrieve_topk(
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    params: SimilarityParams,
    metric: str = "csls",
    n_threads: int = 1,
) -> tuple[CandidateSet, NeighborhoodMeans]:
    """Exact top-k retrieval of target candidates for every source word.

    metric "csls" scores 2*cos(x,y) - r_src(x) - r_tgt(y) with neighborhood
    means at k_csls; metric "cosine" scores the plain dot product and leaves
    the returned means at zero.
    """
    _check_aligned_pair(src, tgt)
    params.validate(len(tgt))
    if metric not in ("csls", "cosine"):
        raise ValueError(f"unknown metric {metric!r}")
    X, Y = src.matrix, tgt.matrix
    n_src = len(src)

    if metric == "csls":
        # target-side neighborhoods live in the scoped source set, which may
        # be smaller than k_csls when retrieving for a handful of words
        r_tgt = knn_mean_similarity(tgt, src, min(params.k_csls, n_src), n_threads)
    else:
        r_tgt = np.zeros(len(tgt))

    def block(lo: int, hi: int):
        sims = X[lo:hi] @ Y.T
        if metric == "csls":
            r_src_block = _topk_mean_rows(sims, params.k_csls)
            sims *= 2.0
            sims -= r_tgt[None, :]
        else:
            r_src_block = np.zeros(hi - lo)
        ids, vals = _topk_desc_rows(sims, params.top_k)
        if metric == "csls":
            vals = vals - r_src_block[:, None]
        return ids, vals, r_src_block

    parts = _map_row_blocks(block, n_src, len(tgt), n_threads)
    cand_ids = np.concatenate([p[0] for p in parts]) if parts else np.zeros((0, params.top_k), dtype=np.int64)
    scores = np.concatenate([p[1] for p in parts]) if parts else np.zeros((0, params.top_k))
    r_src = np.concatenate([p[2] for p in parts]) if parts else np.zeros(0)

    cands = CandidateSet.from_arrays(np.arange(n_src, dtype=np.int64), cand_ids.astype(np.int64), scores)
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
    params: SimilarityParams,
    n_threads: int = 1,
) -> list[tuple[int, int, float]]:
    """High-confidence pairs: mutual CSLS nearest neighbors, best first.

    (s, t) is kept when t is s's CSLS argmax over targets and s is t's CSLS
    argmax over sources. Argmax ties go to the lowest id.
    """
    _check_aligned_pair(src, tgt)
    params.validate(len(tgt))
    X, Y = src.matrix, tgt.matrix
    r_src = knn_mean_similarity(src, tgt, params.k_csls, n_threads)
    r_tgt = knn_mean_similarity(tgt, src, min(params.k_csls, len(src)), n_threads)

    def src_block(lo: int, hi: int):
        adj = 2.0 * (X[lo:hi] @ Y.T) - r_tgt[None, :]
        best = adj.argmax(axis=1)
        vals = adj[np.arange(hi - lo), best] - r_src[lo:hi]
        return best, vals

    def tgt_block(lo: int, hi: int):
        adj = 2.0 * (Y[lo:hi] @ X.T) - r_src[None, :]
        return adj.argmax(axis=1)

    src_parts = _map_row_blocks(src_block, len(src), len(tgt), n_threads)
    best_t = np.concatenate([p[0] for p in src_parts])
    best_scores = np.concatenate([p[1] for p in src_parts])
    tgt_parts = _map_row_blocks(tgt_block, len(tgt), len(src), n_threads)
    best_s = np.concatenate(tgt_parts)

    src_ids = np.arange(len(src))
    mutual = src_ids[best_s[best_t[src_ids]] == src_ids]
    order = np.lexsort((mutual, -best_scores[mutual]))
    return [(int(s), int(best_t[s]), float(best_scores[s])) for s in mutual[order]]


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


def k_occurrence(
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    k: int,
    metric: str = "csls",
    n_threads: int = 1,
) -> np.ndarray:
    """N_k(y): how many sources list target y among their k nearest.

    The CSLS variant uses the default neighborhood size of 10 (capped by the
    vocabulary sizes); the diagnostic compares metrics, not neighborhood
    choices.
    """
    cands, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=min(10, len(src), len(tgt)), top_k=k), metric, n_threads)
    return np.bincount(cands.cand_ids.ravel(), minlength=len(tgt))


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


def hubness_skew(
    src: EmbeddingSpace,
    tgt: EmbeddingSpace,
    k: int,
    metric: str = "csls",
    n_threads: int = 1,
) -> float:
    """Skewness of the k-occurrence distribution over targets; higher = hubbier."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return skewness(k_occurrence(src, tgt, k, metric, n_threads).astype(np.float64))


def write_candidates(cands: CandidateSet, src_vocab: Vocabulary, tgt_vocab: Vocabulary, path: str | Path) -> None:
    """Export "src<TAB>cand<TAB>score" rows, grouped by source in retrieval order; all or nothing."""
    with atomic_writer(path) as fh:
        for row, s in enumerate(cands.src_ids):
            sw = src_vocab.word(int(s))
            for c, v in zip(cands.cand_ids[row], cands.scores[row]):
                fh.write(f"{sw}\t{tgt_vocab.word(int(c))}\t{v:.6f}\n")


def load_candidates(path: str | Path, src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> CandidateSet:
    """Read a candidate export back; rows must stay grouped by source."""
    path = Path(path)
    src_ids: list[int] = []
    cand_rows: list[list[int]] = []
    score_rows: list[list[float]] = []
    seen: set[int] = set()
    current = -1
    for line_no, line in _data_lines(path):
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
            if s in seen:
                raise DataFormatError(f"{path}: line {line_no}: rows for {sw!r} are not contiguous")
            seen.add(s)
            current = s
            src_ids.append(s)
            cand_rows.append([])
            score_rows.append([])
        cand_rows[-1].append(tgt_vocab.id(cw))
        score_rows[-1].append(score)
    if not src_ids:
        return CandidateSet.from_arrays(np.zeros(0, dtype=np.int64), np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0)))
    widths = {len(r) for r in cand_rows}
    if len(widths) != 1:
        raise DataFormatError(f"{path}: candidate lists have mixed lengths {sorted(widths)}")
    return CandidateSet.from_arrays(
        np.array(src_ids, dtype=np.int64),
        np.array(cand_rows, dtype=np.int64),
        np.array(score_rows, dtype=np.float64),
    )


def write_labeled_pairs(
    pairs: list[tuple[int, int, int]],
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    path: str | Path,
) -> None:
    """Export "src<TAB>cand<TAB>label" rows for cross-encoder fine-tuning."""
    with open(path, "w", encoding="utf-8") as fh:
        for s, t, label in pairs:
            fh.write(f"{src_vocab.word(s)}\t{tgt_vocab.word(t)}\t{label}\n")
