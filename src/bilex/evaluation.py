"""Measurement and error analysis: P@1, per-POS accuracy, frequency-difference
statistics, rank correlation grids, PCA coordinate export, and per-example
explanations."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import ALL_TAGS, FrequencyTable, PosTable, TranslationDictionary, Vocabulary, atomic_writer
from .features import RankingGroups, _log2_1p
from .ltr import rank_order


@dataclass
class FreqDiffStats:
    """Mean absolute frequency difference of pairs, on two scales."""

    gold_zipf: float
    predicted_zipf: float
    gold_logrank: float
    predicted_logrank: float
    n_gold_pairs: int
    n_predicted: int


@dataclass
class EvalReport:
    p_at_1: float
    p_at_1_retriever: float  # the same sources ranked by the retriever's csls score
    ranker_fixed: int  # sources the retriever gets wrong and the scores right
    ranker_broke: int  # sources the retriever gets right and the scores wrong
    n_eval: int
    gold_missed: int
    per_pos: dict[str, tuple[int, float]]
    freq_diff: FreqDiffStats


def _check_gold(groups: RankingGroups) -> None:
    if not groups.has_gold.all():
        raise ValueError(f"group for source id {groups.src[~groups.has_gold][0]} has no gold set")


def _top1(groups: RankingGroups, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each source's top-scored candidate position (m,), and whether it is gold (m,)."""
    top = rank_order(scores)[:, 0]
    return top, groups.labels[np.arange(len(groups)), top] == 1


def precision_at_1(groups: RankingGroups, scores: np.ndarray) -> float:
    """Fraction of sources whose top-scored candidate is a gold translation; scores are (m, k).

    Sources whose gold never entered the candidate list count as failures.
    """
    _check_gold(groups)
    if not len(groups):
        raise ValueError("no groups to evaluate")
    return int(_top1(groups, scores)[1].sum()) / len(groups)


def per_pos_accuracy(groups: RankingGroups, scores: np.ndarray, pos_src: PosTable) -> dict[str, tuple[int, float]]:
    """P@1 bucketed by source-word POS; empty buckets are omitted."""
    _check_gold(groups)
    counts: dict[str, list[int]] = {}
    for s, hit in zip(groups.src.tolist(), _top1(groups, scores)[1].tolist()):
        bucket = counts.setdefault(pos_src.tag(s), [0, 0])
        bucket[0] += 1
        bucket[1] += int(hit)
    return {tag: (n, hit / n) for tag, (n, hit) in sorted(counts.items())}


def freq_diff_report(
    groups: RankingGroups,
    scores: np.ndarray,
    dic: TranslationDictionary,
    freq_src: FrequencyTable,
    freq_tgt: FrequencyTable,
    errors_only: bool = False,
) -> FreqDiffStats:
    """Mean |frequency difference| for gold pairs versus top predictions.

    The gold statistic runs over every (source, gold) pair of the evaluated
    sources; the predicted one over each source's top-1 candidate, restricted
    to error cases when errors_only is set. Both Zipf and log2(1+rank)
    scales are reported.
    """
    gold_z: list[float] = []
    gold_r: list[float] = []
    pred_z: list[float] = []
    pred_r: list[float] = []
    top, hits = _top1(groups, scores)
    top1s = groups.candidate_ids[np.arange(len(groups)), top]
    # log2(1 + rank) as the feature columns compute it
    logrank_src, logrank_tgt = _log2_1p(freq_src.rank).tolist(), _log2_1p(freq_tgt.rank).tolist()
    for src, top1, hit in zip(groups.src.tolist(), top1s.tolist(), hits.tolist()):
        for t in dic.entries.get(src, ()):
            gold_z.append(abs(float(freq_src.zipf[src]) - float(freq_tgt.zipf[t])))
            gold_r.append(abs(logrank_src[src] - logrank_tgt[t]))
        if errors_only and hit:
            continue
        pred_z.append(abs(float(freq_src.zipf[src]) - float(freq_tgt.zipf[top1])))
        pred_r.append(abs(logrank_src[src] - logrank_tgt[top1]))
    return FreqDiffStats(
        gold_zipf=float(np.mean(gold_z)) if gold_z else 0.0,
        predicted_zipf=float(np.mean(pred_z)) if pred_z else 0.0,
        gold_logrank=float(np.mean(gold_r)) if gold_r else 0.0,
        predicted_logrank=float(np.mean(pred_r)) if pred_r else 0.0,
        n_gold_pairs=len(gold_z),
        n_predicted=len(pred_z),
    )


def midranks(values) -> np.ndarray:
    """1-based ranks with ties averaged (midrank method); NaNs sort last as one tie."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True, return_counts=True)
    end = np.cumsum(counts) - 1  # 0-based sorted position of each tie block's last value
    start = end - counts + 1
    return (0.5 * (start + end) + 1.0)[inverse]


def spearman(x, y) -> float:
    """Spearman's rho: Pearson correlation of midranks. NaN when either input
    is constant (the coefficient is undefined there)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    rx = midranks(x)
    ry = midranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = float((dx * dx).sum())
    sy = float((dy * dy).sum())
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float((dx * dy).sum() / np.sqrt(sx * sy))


def pos_freq_correlation(
    dic: TranslationDictionary,
    freq_src: FrequencyTable,
    freq_tgt: FrequencyTable,
    pos_src: PosTable,
    min_n: int = 10,
) -> dict[str, tuple[int, float | None]]:
    """Per source-POS Spearman correlation of (source rank, gold rank).

    Uses one pair per source (its first-listed gold). Buckets with fewer
    than min_n pairs, or with an undefined coefficient, report None.
    """
    buckets: dict[str, list[tuple[float, float]]] = {}
    for s in sorted(dic.entries):
        t = dic.entries[s][0]
        tag = pos_src.tag(s)
        buckets.setdefault(tag, []).append((float(freq_src.rank[s]), float(freq_tgt.rank[t])))
    out: dict[str, tuple[int, float | None]] = {}
    for tag, pairs in sorted(buckets.items()):
        n = len(pairs)
        if n < min_n:
            out[tag] = (n, None)
            continue
        xs = np.array([p[0] for p in pairs])
        ys = np.array([p[1] for p in pairs])
        rho = spearman(xs, ys)
        out[tag] = (n, None if np.isnan(rho) else rho)
    return out


def pca_project(vectors: np.ndarray) -> np.ndarray:
    """Mean-centered projection onto the top two principal components.

    Component sign is fixed by making its largest-magnitude loading positive,
    so the output is deterministic.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least 2 row vectors")
    if X.shape[1] < 2:
        raise ValueError(f"need dimension >= 2, got {X.shape[1]}")
    centered = X - X.mean(axis=0)
    _, _, Vt = np.linalg.svd(centered, full_matrices=False)
    comps = Vt[:2].copy()
    for c in range(2):
        j = int(np.argmax(np.abs(comps[c])))
        if comps[c, j] < 0:
            comps[c] = -comps[c]
    return centered @ comps.T


def explain_predictions(
    groups: RankingGroups,
    scores: np.ndarray,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    freq_src: FrequencyTable,
    freq_tgt: FrequencyTable,
    pos_src: PosTable,
    pos_tgt: PosTable,
) -> list[dict]:
    """One record per evaluated source word describing its top prediction."""
    top, hits = _top1(groups, scores)
    rows = np.arange(len(groups))
    records = []
    for src, top1, score, hit in zip(
        groups.src.tolist(), groups.candidate_ids[rows, top].tolist(), scores[rows, top].tolist(), hits.tolist()
    ):
        records.append(
            {
                "src": src_vocab.word(src),
                "pred": tgt_vocab.word(top1),
                "rank_src": int(freq_src.rank[src]),
                "rank_pred": int(freq_tgt.rank[top1]),
                "pos_src": pos_src.tag(src),
                "pos_pred": pos_tgt.tag(top1),
                "score": score,
                "correct": int(hit),
            }
        )
    return records


def build_eval_report(
    groups: RankingGroups,
    scores: np.ndarray,
    dic: TranslationDictionary,
    freq_src: FrequencyTable,
    freq_tgt: FrequencyTable,
    pos_src: PosTable,
    errors_only: bool = False,
) -> EvalReport:
    p_at_1 = precision_at_1(groups, scores)
    hits, retriever_hits = _top1(groups, scores)[1], _top1(groups, groups.csls)[1]
    return EvalReport(
        p_at_1=p_at_1,
        p_at_1_retriever=int(retriever_hits.sum()) / len(groups),
        ranker_fixed=int((hits & ~retriever_hits).sum()),
        ranker_broke=int((retriever_hits & ~hits).sum()),
        n_eval=len(groups),
        gold_missed=int(groups.gold_missed.sum()),
        per_pos=per_pos_accuracy(groups, scores, pos_src),
        freq_diff=freq_diff_report(groups, scores, dic, freq_src, freq_tgt, errors_only),
    )


def write_per_pos(per_pos: dict[str, tuple[int, float]], path: str | Path) -> None:
    with atomic_writer(path) as fh:
        fh.write("pos\tn\taccuracy\n")
        for tag, (n, acc) in per_pos.items():
            fh.write(f"{tag}\t{n}\t{acc:.6f}\n")


def write_correlation_grid(
    grid: dict[str, tuple[int, float | None]],
    pair_label: str,
    path: str | Path,
) -> None:
    """Grid rows are POS tags in inventory order; insufficient cells print NA."""
    with atomic_writer(path) as fh:
        fh.write(f"pos\tn\t{pair_label}\n")
        for tag in ALL_TAGS:
            if tag not in grid:
                continue
            n, rho = grid[tag]
            cell = "NA" if rho is None else f"{rho:.6f}"
            fh.write(f"{tag}\t{n}\t{cell}\n")


def write_explanations(records: list[dict], path: str | Path) -> None:
    cols = ["src", "pred", "rank_src", "rank_pred", "pos_src", "pos_pred", "score", "correct"]
    with atomic_writer(path) as fh:
        fh.write("\t".join(cols) + "\n")
        for rec in records:
            fh.write("\t".join(
                f"{rec[c]:.6f}" if c == "score" else str(rec[c]) for c in cols
            ) + "\n")


def write_pca_coordinates(
    rows: list[tuple[str, str, float, float]],
    path: str | Path,
) -> None:
    """Rows are (word, role, x, y) with role in {source, gold, candidate}."""
    with atomic_writer(path) as fh:
        fh.write("word\trole\tx\ty\n")
        for word, role, x, y in rows:
            fh.write(f"{word}\t{role}\t{x:.6f}\t{y:.6f}\n")
