"""One-pair-at-a-time references of bilex's whole-array code, used only by the tests.

featurize_pair and label_candidates compute what features.build_groups fills
column by column, apply_mask what it zeroes for an ablation, and
average_precision what ltr.mean_ap computes for a whole grid of groups.
mutual_pairs_two_passes mines mutual nearest neighbors with a second top-1
retrieval from the target side, which retrieval.retrieve_topk's back argmax
replaces. _best_split_at and fit_tree are ltr's split search as it was before
it dropped its count histograms and redundant mask passes: three histograms
per code array at every node, the root included, and every cut tested for
positive denominators.
"""

from __future__ import annotations

import math

import numpy as np

from bilex.corpus import FrequencyTable, PosTable, TranslationDictionary
from bilex.features import N_FEATURES, FeatureSchema
from bilex.ltr import GbdtParams, RegressionTree, _BinnedColumns
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


def _best_split_at(bins: _BinnedColumns, g_rows, h_rows, rows, G, H, lam, mcw):
    """Best (feature, threshold) of a node, or None.

    g_rows and h_rows are g[rows] and h[rows]. Each code array gives three
    histograms over the node's rows (counts, gradients, hessians). In a plain
    column a cut goes after each non-empty bin that has a later non-empty
    bin, at the midpoint of the two values, and its left sums accumulate in
    bin order. A bundle member's cut is at 0.5: its bin is the right side,
    and the left side is the node total minus it. Gains tie to the lowest
    feature index, then the lowest threshold.
    """
    parent = G * G / (H + lam) if H + lam > 0 else 0.0
    whole = rows.size == bins.n_rows  # the root: every row, in order

    def first_best(GL, HL, ok=True) -> tuple[int, float]:
        """Position and gain of the first best of one code array's cuts."""
        GR, HR = G - GL, H - HL
        dl, dr = HL + lam, HR + lam
        valid = (HL >= mcw) & (HR >= mcw) & (dl > 0) & (dr > 0) & ok
        # 0.5 * (GL^2 / dl + GR^2 / dr - parent), in place on fresh arrays
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = GL * GL
            gains /= dl
            GR *= GR
            GR /= dr
            gains += GR
            gains -= parent
            gains *= 0.5
        gains[~valid] = -np.inf
        i = int(np.argmax(gains))
        return i, float(gains[i])

    cuts = []  # the first best cut of each code array: (gain, feature, lo, hi)
    for f, values, codes in bins.plain:
        code = codes if whole else codes[rows]
        nz = np.flatnonzero(np.bincount(code, minlength=values.size))
        if nz.size > 1:
            GL = np.cumsum(np.bincount(code, weights=g_rows, minlength=values.size)[nz[:-1]])
            HL = np.cumsum(np.bincount(code, weights=h_rows, minlength=values.size)[nz[:-1]])
            i, gain = first_best(GL, HL)
            cuts.append((gain, f, values[nz[i]], values[nz[i + 1]]))
    for members, codes in bins.bundles:
        code = codes if whole else codes[rows]
        m = members.size
        count = np.bincount(code, minlength=m + 1)[:m]
        GL = G - np.bincount(code, weights=g_rows, minlength=m + 1)[:m]
        HL = H - np.bincount(code, weights=h_rows, minlength=m + 1)[:m]
        # a member holding every row of the node has no cut: G - G_t would be a rounding residue
        i, gain = first_best(GL, HL, (count > 0) & (count < rows.size))
        cuts.append((gain, int(members[i]), 0.0, 1.0))
    # a feature's cuts all come from one code array, so the lowest feature wins a tie here
    gain, f, lo, hi = max(cuts, key=lambda cut: (cut[0], -cut[1]), default=(0.0, -1, 0.0, 0.0))
    if not gain > 0.0:
        return None
    thr = 0.5 * (lo + hi)
    if thr <= lo:  # midpoint rounded onto lo
        thr = hi
    return f, float(thr)


def fit_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    params: GbdtParams,
    bins: _BinnedColumns | None = None,
    out: np.ndarray | None = None,
) -> RegressionTree:
    """Grow one regression tree by exact histogram gain search.

    Candidate thresholds are midpoints of consecutive distinct values present
    in the node; gain = 0.5*(GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg)).
    Ties go to the lowest feature index, then the lowest threshold. If out is
    given, each row's leaf value is written to it, the same floats that
    tree.predict(X) returns.
    """
    n, n_features = X.shape
    if n == 0:
        raise ValueError("cannot fit a tree on empty input")
    lam = params.l2_leaf_reg
    mcw = params.min_child_weight
    if bins is None:
        bins = _BinnedColumns(X)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(n), 0)]
    while stack:
        node, rows, depth = stack.pop()
        g_rows, h_rows = g[rows], h[rows]
        G = float(g_rows.sum())
        H = float(h_rows.sum())
        best = None
        if depth < params.max_depth:
            best = _best_split_at(bins, g_rows, h_rows, rows, G, H, lam, mcw)
        if best is None:
            denom = H + lam
            value[node] = (-G / denom if denom > 0 else 0.0) + 0.0
            if out is not None:
                out[rows] = value[node]
            continue
        f, thr = best
        feature[node] = f
        threshold[node] = thr
        sel = X[rows, f] < thr
        lchild = new_node()
        rchild = new_node()
        left[node] = lchild
        right[node] = rchild
        stack.append((rchild, rows.compress(~sel), depth + 1))
        stack.append((lchild, rows.compress(sel), depth + 1))
    return RegressionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )
