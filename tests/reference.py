"""One-pair-at-a-time references of bilex's whole-array code, used only by the tests.

featurize_pair and label_candidates compute what features.build_groups fills
column by column, apply_mask what it zeroes for an ablation, and
average_precision what ltr.mean_ap computes for a whole grid of groups.
mutual_pairs_two_passes mines mutual nearest neighbors with a second top-1
retrieval from the target side, which retrieval.retrieve_topk's back argmax
replaces.
"""

from __future__ import annotations

import math

import numpy as np

from bilex.corpus import FrequencyTable, PosTable, TranslationDictionary
from bilex.features import N_FEATURES, FeatureSchema
from bilex.retrieval import NeighborhoodMeans, SimilarityParams, retrieve_topk


def apply_mask(schema: FeatureSchema, features: np.ndarray) -> np.ndarray:
    cols = schema.masked_columns()
    if not cols:
        return features
    out = features.copy()
    out[:, cols] = 0.0
    return out


def label_candidates(src: int, cands: list[int] | np.ndarray, dic: TranslationDictionary) -> np.ndarray:
    """1 for candidates in the gold set of src, else 0; the per-pair reference of build_groups' labels."""
    if len(cands) == 0:
        raise ValueError(f"empty candidate list for source id {src}")
    gold = set(dic.entries[src])
    return np.array([1 if int(c) in gold else 0 for c in cands], dtype=np.int8)


def featurize_pair(
    src: int,
    cand: int,
    csls: float,
    ext: float | None,
    freq_src: FrequencyTable,
    freq_tgt: FrequencyTable,
    pos_src: PosTable,
    pos_tgt: PosTable,
) -> np.ndarray:
    """One 46-dim feature row for a (source, candidate) pair; the per-pair reference of build_groups' rows."""
    vec = np.zeros(N_FEATURES, dtype=np.float64)
    vec[0] = csls
    if ext is not None:
        vec[1] = ext
        vec[2] = 1.0
    zs = float(freq_src.zipf[src])
    zc = float(freq_tgt.zipf[cand])
    vec[3] = zs
    vec[4] = zc
    vec[5] = zs - zc
    vec[6] = abs(zs - zc)
    vec[7] = math.log2(1 + int(freq_src.rank[src]))
    vec[8] = math.log2(1 + int(freq_tgt.rank[cand]))
    ts = int(pos_src.tag_ids[src])
    tc = int(pos_tgt.tag_ids[cand])
    vec[9] = 1.0 if ts == tc else 0.0
    vec[10 + ts] = 1.0
    vec[28 + tc] = 1.0
    return vec


def average_precision(labels) -> float:
    """AP of binary labels already in ranked order; 0.0 when no positives."""
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0:
        raise ValueError("empty label list")
    positives = y.sum()
    if positives == 0:
        return 0.0
    hits = np.cumsum(y)
    ks = np.arange(1, y.size + 1, dtype=np.float64)
    return float((hits[y == 1] / ks[y == 1]).sum() / positives)


def mutual_pairs_two_passes(src, tgt, k_csls: int, n_threads: int = 1):
    """Mutual CSLS nearest neighbors from two top-1 retrievals: each target's argmax over sources is a top-1
    retrieval from the target side with the two means swapped. Returns (pairs, that argmax)."""
    best, means = retrieve_topk(src, tgt, SimilarityParams(k_csls=k_csls, top_k=1), n_threads=n_threads)
    swapped = NeighborhoodMeans(r_src=means.r_tgt, r_tgt=means.r_src)
    back, _ = retrieve_topk(tgt, src, SimilarityParams(k_csls=1, top_k=1), n_threads=n_threads, means=swapped)
    best_t, best_s, scores = best.cand_ids[:, 0], back.cand_ids[:, 0], best.scores[:, 0]
    src_ids = np.arange(len(src))
    mutual = src_ids[best_s[best_t] == src_ids]
    order = np.lexsort((mutual, -scores[mutual]))
    return [(int(s), int(best_t[s]), float(scores[s])) for s in mutual[order]], best_s
