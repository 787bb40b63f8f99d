"""Listwise gradient-boosted tree ranker optimizing mean average precision.

Pairwise logistic gradients are weighted by the exact AP change of swapping
the pair in the current ranking; one routine, compute_lambdas, computes them
for a whole sources x k grid with any number of positives per source. Trees
are grown with second-order (Newton) leaf values by an exact histogram split
search (the exact greedy search of XGBoost, Chen & Guestrin 2016): each
column is binned once per training by its distinct values into its own code
array, and every node builds two histograms (gradients, hessians) per code
array directly from its own rows, so every distinct-value cut is scored. A
plain column's cuts follow the bins the node's rows occupy: every bin at the
root, a boolean mark below it. 0/1 columns that are never 1 in the same row,
such as the one-hot POS blocks, share one code array (Exclusive Feature
Bundling, Ke et al. 2017); each member's cut takes its bin as the right side
and the node total minus that bin as the left. fit_tree first rounds each
tree's gradients and hessians to a dyadic grid, multiples of 2^-e with e as
large as keeps the sum of their magnitudes below 2^51 grid steps (as in
quantized GBDT training, Shi et al. 2022): every partial sum is then an
integer count of steps below 2^53, so every histogram, prefix sum, node
total and difference of them is exact in float64, in any summation order. A
member that holds every row of a node, or none, gains exactly 0, and a
column and its reversed mirror gain the same bits, so ties go to the lowest
feature index by construction. fit_tree writes each training row's leaf
value as it settles the leaves, and train adds those values to the scores
instead of running the tree over its own rows again. Each round is a few
whole-array passes over the (m, k) grid: one lambda batch per positive
count, one histogram build per node, one stable sort of the updated scores
that ranks both the round's MAP trace and the next round's lambdas.
Everything is deterministic: stable sorts, fixed reduction orders, ties to
the lowest feature index / candidate position.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import DataFormatError, atomic_writer
from .features import FEATURE_GROUPS, N_FEATURES, FeatureSchema, RankingGroups

log = logging.getLogger(__name__)

MODEL_FORMAT = "bilex-gbdt"
MODEL_VERSION = 1


@dataclass
class GbdtParams:
    n_trees: int = 200
    max_depth: int = 3
    learning_rate: float = 0.1
    min_child_weight: float = 1.0
    l2_leaf_reg: float = 1.0
    sigma: float = 1.0

    def validate(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.l2_leaf_reg < 0.0:
            raise ValueError(f"l2_leaf_reg must be >= 0, got {self.l2_leaf_reg}")
        if self.min_child_weight < 0.0:
            raise ValueError(f"min_child_weight must be >= 0, got {self.min_child_weight}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        # the range tests above let a NaN or inf through
        for name in ("min_child_weight", "l2_leaf_reg", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass
class RegressionTree:
    """Array-encoded binary tree; rows route left iff feature < threshold."""

    feature: np.ndarray    # int32, -1 at leaves
    threshold: np.ndarray  # float64, 0.0 at leaves
    left: np.ndarray       # int32, -1 at leaves
    right: np.ndarray      # int32, -1 at leaves
    value: np.ndarray      # float64, leaf outputs, 0.0 at internal nodes

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Each row's leaf value, in as many whole-array steps as the tree is deep: a leaf routes to itself."""
        leaf = self.feature < 0
        itself = np.arange(self.n_nodes())
        feature = np.where(leaf, 0, self.feature)
        left, right = np.where(leaf, itself, self.left), np.where(leaf, itself, self.right)
        values = np.ascontiguousarray(X).ravel()
        starts = np.arange(X.shape[0]) * X.shape[1]
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(self.depth()):
            go_left = values[starts + feature[node]] < self.threshold[node]
            node = np.where(go_left, left[node], right[node])
        return self.value[node]

    def depth(self) -> int:
        """Edges on the longest root-to-leaf path; every child comes after its parent (fit_tree, _check_tree)."""
        depth = np.zeros(self.n_nodes(), dtype=np.intp)
        for i in np.flatnonzero(self.feature >= 0):
            depth[[self.left[i], self.right[i]]] = depth[i] + 1
        return int(depth.max(initial=0))

    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass
class GbdtModel:
    trees: list[RegressionTree]
    params: GbdtParams
    schema: FeatureSchema
    fingerprint: str
    base_score: float = 0.0
    meta: dict = field(default_factory=dict)


def rank_order(scores: np.ndarray) -> np.ndarray:
    """Descending-score permutation along the last axis; ties keep original candidate position."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")


def mean_ap(groups: RankingGroups, scores: np.ndarray, order: np.ndarray | None = None) -> float:
    """Mean AP over the sources that have a positive, each ranked by its row of scores (m, k).

    One row-wise stable sort ranks every source, unless order gives
    rank_order(scores) already. Each AP is the last entry of a running sum of
    the precisions at the positive ranks, added in rank order, divided by the
    source's positives.
    """
    y = groups.labels.astype(np.float64)
    positives = y.sum(axis=1)
    keep = positives > 0
    skipped = len(groups) - int(keep.sum())
    if skipped:
        log.debug("mean_ap: %d all-negative groups excluded", skipped)
    if not keep.any():
        return 0.0
    order = rank_order(np.asarray(scores)[keep]) if order is None else order[keep]
    ranked = np.take_along_axis(y[keep], order, axis=1)
    hits = np.cumsum(ranked, axis=1)
    precision = np.where(ranked == 1, hits / np.arange(1, y.shape[1] + 1, dtype=np.float64), 0.0)
    return float(np.mean(np.cumsum(precision, axis=1)[:, -1] / positives[keep]))


def _ap_prefixes(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative positives and cumulative y_k/k over 1-based rank positions, along the last axis."""
    ks = np.arange(1, y.shape[-1] + 1, dtype=np.float64)
    return np.cumsum(y, axis=-1, dtype=np.float64), np.cumsum(y / ks, axis=-1)


def delta_ap(labels, ranking, i: int, j: int) -> float:
    """AP(ranking with positions i and j swapped) minus AP(ranking).

    labels are per candidate; ranking maps rank position -> candidate index;
    i and j are 0-based rank positions. Swapping is symmetric in (i, j); the
    result is 0 when the swapped labels are equal.
    """
    if i == j:
        raise ValueError("positions must differ")
    y = np.asarray(labels, dtype=np.float64)[np.asarray(ranking, dtype=np.int64)]
    a, b = (i + 1, j + 1) if i < j else (j + 1, i + 1)
    if y[a - 1] == y[b - 1]:
        return 0.0
    P = y.sum()
    c, S = _ap_prefixes(y)
    mid = S[b - 2] - S[a - 1]
    if y[a - 1] == 0.0:  # positive moves up from b to a
        return float(((c[a - 1] + 1.0) / a - c[b - 1] / b + mid) / P)
    return float((c[b - 1] / b - c[a - 1] / a - mid) / P)


def _pair_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable 1 / (1 + exp(x)): exp(-|x|) / (1 + exp(-|x|)), or 1 over that sum where x < 0."""
    e = np.exp(-np.abs(x))
    return np.where(x < 0, 1.0, e) / (1.0 + e)


def compute_lambdas(
    scores: np.ndarray, labels: np.ndarray, sigma: float = 1.0, order: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate gradient/hessian of the AP-weighted pairwise objective.

    scores and labels are one source's list (k,) or a grid of sources (m, k),
    with any number of positives per row. For each (positive i,
    negative j) pair of a row, rho = 1/(1+exp(sigma*(s_i-s_j))) and the pair's
    weight is |delta AP| of swapping the two in the current ranking; positives
    accumulate negative gradient. Gradients sum to zero by construction.

    Rows go in batches of one positive count P (one batch, without a copy,
    when all rows have the same count). Pairs live in (m, P, k) arrays: each
    row's positives against every candidate, with zero off the pairs. A
    positive sums over the whole candidate axis and a negative over the
    positive axis, so a row's result does not depend on its batch. order, if
    given, is rank_order(scores); rows sort independently, so each batch
    takes its rows of it.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim == 1:
        g, h = compute_lambdas(s[None, :], y[None, :], sigma, None if order is None else order[None, :])
        return g[0], h[0]
    if order is None:
        order = rank_order(s)
    n_pos = (y == 1).sum(axis=1)
    counts = np.unique(n_pos)
    if counts.size <= 1:
        return _batch_lambdas(s, y, order, int(counts.max(initial=0)), sigma)
    g, h = np.empty_like(s), np.empty_like(s)
    for count in counts.tolist():
        rows = np.flatnonzero(n_pos == count)
        g[rows], h[rows] = _batch_lambdas(s[rows], y[rows], order[rows], count, sigma)
    return g, h


def _batch_lambdas(
    s: np.ndarray, y: np.ndarray, order: np.ndarray, count: int, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """compute_lambdas over a batch of rows (m, k) that each hold count positives, ranked by order."""
    m, k = s.shape
    row = np.arange(m)[:, None]
    slots = (np.flatnonzero(y == 1) % k).reshape(m, count)  # each row's positive candidates, ascending
    pair = (y == 0)[:, None, :]

    # flat offsets of each row's cells: flat gathers and scatters are several times as fast as 2-d ones
    at = row * k
    rank_of = np.empty(m * k, dtype=np.intp)
    rank_of[order + at] = np.arange(1, k + 1)
    rank_of = rank_of.reshape(m, k)
    c, S = _ap_prefixes(y.take(order + at))

    ra = rank_of.take(slots + at)[:, :, None]  # positive ranks, (m, P, 1)
    rb = rank_of[:, None, :]                   # every rank, (m, 1, k)
    amin = np.minimum(ra, rb)
    amax = np.maximum(ra, rb)
    concordant = ra < rb
    # the prefixes at rank positions amin and amax; the one before amax falls outside the row only off the pairs
    lo, hi = at[:, :, None] + amin - 1, at[:, :, None] + amax - 1
    mid = S.take(hi - 1) - S.take(lo)
    P = max(count, 1)  # a row without positives has no pairs
    w = ((c.take(lo) + (~concordant).astype(np.float64)) / amin + mid - c.take(hi) / amax) / P

    rho = _pair_sigmoid(sigma * (s.take(slots + at)[:, :, None] - s[:, None, :]))
    lam = np.where(pair, sigma * rho * w, 0.0)
    curv = np.where(pair, sigma * sigma * rho * (1.0 - rho) * w, 0.0)
    g = lam.sum(axis=1)
    h = curv.sum(axis=1)
    # a positive's column holds 0 so far
    g.ravel()[slots + at] -= lam.sum(axis=2)
    h.ravel()[slots + at] += curv.sum(axis=2)
    return g, h


class _BinnedColumns:
    """Per-training binning of the feature matrix, shared by every tree.

    Each column holding at least two distinct values gets its own code array,
    one bin per distinct value in ascending order. 0/1 columns that are never
    1 in the same row are bundled (Exclusive Feature Bundling, Ke et al.
    2017): taken in column order, each joins the first bundle it shares no 1
    with. A bundle's code of a row is the position of the member holding the
    1 there, or the member count when none does. Constant columns get no
    codes and never split.
    """

    def __init__(self, X: np.ndarray):
        self.n_rows = X.shape[0]
        self.plain: list[tuple[int, np.ndarray, np.ndarray]] = []  # (feature, distinct values, codes)
        flags: list[tuple[int, np.ndarray]] = []  # 0/1 columns: (feature, rows holding the 1)
        for f in range(X.shape[1]):
            column = X[:, f]
            if (column == column[:1]).all():  # constant, found without sorting it
                continue
            ones = column == 1.0
            if (ones | (column == 0.0)).all():  # 0/1 and not constant, also found without sorting it
                flags.append((f, ones))
                continue
            distinct, inverse = np.unique(column, return_inverse=True)
            if distinct.size > 1:  # else all NaN
                self.plain.append((f, distinct, inverse))
        groups: list[tuple[list[int], np.ndarray]] = []  # (positions in flags, rows holding a 1)
        for i, (_, ones) in enumerate(flags):
            home = next((grp for grp in groups if not (grp[1] & ones).any()), None)
            if home is None:
                groups.append(([i], ones.copy()))
            else:
                members, taken = home
                members.append(i)
                taken |= ones
        self.bundles: list[tuple[np.ndarray, np.ndarray]] = []  # (member features, codes)
        for members, _ in groups:
            codes = np.full(self.n_rows, len(members), dtype=np.intp)
            for t, i in enumerate(members):
                codes[flags[i][1]] = t
            self.bundles.append((np.array([flags[i][0] for i in members], dtype=np.int64), codes))


def _best_split_at(bins: _BinnedColumns, g_rows, h_rows, rows, G, H, lam, mcw):
    """Best (feature, threshold, gain) of a node, or None.

    g_rows and h_rows are g[rows] and h[rows]. Each code array gives a
    gradient and a hessian histogram over the node's rows. In a plain column
    a cut goes after each occupied bin that has a later occupied bin, at the
    midpoint of the two values, and its left sums accumulate in bin order; at
    the root every bin is occupied, since the bins are the distinct values of
    every row. A bundle member's cut is at 0.5: its bin is the right side,
    and the left side is the node total minus it; a member holding every row
    of the node, or none, gains exactly 0. Gains tie to the lowest feature
    index, then the lowest threshold.
    """
    parent = G * G / (H + lam) if H + lam > 0 else 0.0
    whole = rows.size == bins.n_rows  # the root: every row, in order
    # HL >= mcw and lam >= 0 give HL + lam >= mcw + lam, so both sides' denominators are positive whenever
    # mcw + lam is; only when both are 0 must each side's hessian sum be tested
    bare = mcw + lam == 0

    def first_best(GL, HL) -> tuple[int, float]:
        """Position and gain of the first best of one code array's cuts; GL and HL are fresh and overwritten."""
        HR = H - HL
        if bare:
            valid = HL > 0
            valid &= HR > 0
        else:
            valid = HL >= mcw
            valid &= HR >= mcw
        # 0.5 * (GL^2 / (HL + lam) + GR^2 / (HR + lam) - parent), in place; a NaN sum fails the tests above
        with np.errstate(divide="ignore", invalid="ignore"):
            GR = G - GL
            GR *= GR
            HR += lam
            GR /= HR
            GL *= GL
            HL += lam
            GL /= HL
            GL += GR
            GL -= parent
            GL *= 0.5
        np.copyto(GL, -np.inf, where=~valid)
        i = int(np.argmax(GL))
        return i, float(GL[i])

    cuts = []  # the first best cut of each code array: (gain, feature, lo, hi)
    for f, values, codes in bins.plain:
        if whole:
            code, ends = codes, slice(-1)
        else:
            code = codes[rows]
            occupied = np.zeros(values.size, dtype=bool)
            occupied[code] = True
            nz = np.flatnonzero(occupied)
            if nz.size < 2:
                continue
            ends = nz[:-1]
        GL = np.cumsum(np.bincount(code, weights=g_rows, minlength=values.size)[ends])
        HL = np.cumsum(np.bincount(code, weights=h_rows, minlength=values.size)[ends])
        i, gain = first_best(GL, HL)
        lo, hi = (i, i + 1) if whole else (nz[i], nz[i + 1])
        cuts.append((gain, f, values[lo], values[hi]))
    for members, codes in bins.bundles:
        code = codes if whole else codes[rows]
        m = members.size
        GL = G - np.bincount(code, weights=g_rows, minlength=m + 1)[:m]
        HL = H - np.bincount(code, weights=h_rows, minlength=m + 1)[:m]
        i, gain = first_best(GL, HL)
        cuts.append((gain, int(members[i]), 0.0, 1.0))
    # a feature's cuts all come from one code array, so the lowest feature wins a tie here
    gain, f, lo, hi = max(cuts, key=lambda cut: (cut[0], -cut[1]), default=(0.0, -1, 0.0, 0.0))
    if not gain > 0.0:
        return None
    thr = 0.5 * (lo + hi)
    if thr <= lo:  # midpoint rounded onto lo
        thr = hi
    return f, float(thr), gain


def _on_grid(x: np.ndarray) -> np.ndarray:
    """x rounded to the nearest multiples of 2^-e, e = 52 - frexp(sum |x|)[1] - 1.

    The magnitudes then sum to less than 2^51 steps of 2^-e, plus half a step
    per value for the rounding, so every partial sum of any subset, in any
    order, is an integer count of steps below 2^53: exact in float64.
    """
    e = 52 - math.frexp(float(np.abs(x).sum()))[1] - 1
    return np.ldexp(np.rint(np.ldexp(x, e)), -e)


def fit_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    params: GbdtParams,
    bins: _BinnedColumns | None = None,
    out: np.ndarray | None = None,
    stats: FitStats | None = None,
) -> RegressionTree:
    """Grow one regression tree by exact histogram gain search.

    g and h are first rounded to their dyadic grids (_on_grid), so every sum
    the search takes is exact. Candidate thresholds are midpoints of
    consecutive distinct values present in the node;
    gain = 0.5*(GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg)).
    Ties go to the lowest feature index, then the lowest threshold. If out is
    given, each row's leaf value is written to it, the same floats that
    tree.predict(X) returns. If stats is given, each split is counted and its
    gain added at its feature.
    """
    n, n_features = X.shape
    if n == 0:
        raise ValueError("cannot fit a tree on empty input")
    lam = params.l2_leaf_reg
    mcw = params.min_child_weight
    if bins is None:
        bins = _BinnedColumns(X)
    g, h = _on_grid(g), _on_grid(h)

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
        f, thr, gain = best
        if stats is not None:
            stats.splits[f] += 1
            stats.gain[f] += gain
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


# the feature groups that stage.fit credits splits and gain to: the retriever's score, the external scores
# and the two ablation groups, which together cover every column
IMPORTANCE_GROUPS = {"csls": (0,), "ext": (1, 2), **FEATURE_GROUPS}


@dataclass
class FitStats:
    """Histogram layout of one training, where its time went and which features its trees split on, for
    run.log."""

    histogram_columns: int = 0
    bundled_columns: int = 0
    bin_s: float = 0.0
    lambda_s: float = 0.0
    split_s: float = 0.0
    map_s: float = 0.0
    splits: np.ndarray = field(default_factory=lambda: np.zeros(N_FEATURES, dtype=np.int64))  # per feature
    gain: np.ndarray = field(default_factory=lambda: np.zeros(N_FEATURES))  # summed over its splits

    def fields(self) -> dict[str, str]:
        """Plain columns plus bundles, the 0/1 columns folded into bundles, the seconds spent binning, in
        compute_lambdas, in fit_tree, and updating and ranking the scores for the MAP trace, and per group of
        IMPORTANCE_GROUPS the splits of every tree on its columns and the sum of their gains."""
        importance = {}
        for group, columns in IMPORTANCE_GROUPS.items():
            importance[f"splits_{group}"] = str(self.splits[list(columns)].sum())
            importance[f"gain_{group}"] = f"{self.gain[list(columns)].sum():.6g}"
        return {
            "histogram_columns": str(self.histogram_columns),
            "bundled_columns": str(self.bundled_columns),
            "bin_s": f"{self.bin_s:.3f}",
            "lambda_s": f"{self.lambda_s:.3f}",
            "split_s": f"{self.split_s:.3f}",
            "map_s": f"{self.map_s:.3f}",
            **importance,
        }


def train(
    groups: RankingGroups,
    params: GbdtParams,
    schema: FeatureSchema | None = None,
    stats: FitStats | None = None,
) -> tuple[GbdtModel, list[tuple[int, float]]]:
    """Boost n_trees rounds over all candidate rows; returns (model, MAP trace).

    Sources lacking both a positive and a negative contribute no gradient but
    their rows remain in the pool. At least one mixed source is required.
    Each round adds the leaf values fit_tree wrote for the training rows, so
    no tree is run over them again, and sorts the updated scores once: that
    order ranks the round's MAP trace and the next round's lambdas. stats, if
    given, receives the histogram layout, the seconds of each part and each
    split's feature and gain.
    """
    params.validate()
    schema = schema or FeatureSchema()
    if not len(groups):
        raise ValueError("no groups to train on")
    trainable = np.flatnonzero(groups.trainable)
    if not trainable.size:
        raise ValueError("no trainable group: need at least one group with a positive and a negative")
    labels = groups.labels[trainable]

    X = groups.features
    m, k = groups.labels.shape
    scores = np.zeros((m, k))
    order = np.broadcast_to(np.arange(k), (m, k))  # rank_order of the all-zero scores
    leaf = np.empty(X.shape[0], dtype=np.float64)
    stats = stats if stats is not None else FitStats()
    start = time.perf_counter()
    bins = _BinnedColumns(X)
    stats.bin_s = time.perf_counter() - start
    stats.histogram_columns = len(bins.plain) + len(bins.bundles)
    stats.bundled_columns = sum(members.size for members, _ in bins.bundles)

    trees: list[RegressionTree] = []
    trace: list[tuple[int, float]] = []
    for round_no in range(1, params.n_trees + 1):
        start = time.perf_counter()
        g = np.zeros(scores.shape)
        h = np.zeros(scores.shape)
        ranked, order = order[trainable], None  # the whole grid's order is done with: free it before the batch
        g[trainable], h[trainable] = compute_lambdas(scores[trainable], labels, params.sigma, ranked)
        lambdas_done = time.perf_counter()
        trees.append(fit_tree(X, g.ravel(), h.ravel(), params, bins, out=leaf, stats=stats))
        tree_done = time.perf_counter()
        scores += params.learning_rate * leaf.reshape(scores.shape)
        order = rank_order(scores)
        trace.append((round_no, mean_ap(groups, scores, order)))
        stats.lambda_s += lambdas_done - start
        stats.split_s += tree_done - lambdas_done
        stats.map_s += time.perf_counter() - tree_done

    model = GbdtModel(
        trees=trees,
        params=params,
        schema=schema,
        fingerprint=schema.fingerprint(),
        base_score=0.0,
    )
    return model, trace


def predict(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    """base_score + learning_rate * sum of tree outputs, after schema checks."""
    expected = model.schema.fingerprint()
    if model.fingerprint != expected:
        raise DataFormatError(
            f"schema fingerprint mismatch: model carries {model.fingerprint[:12]}..., "
            f"schema hashes to {expected[:12]}..."
        )
    if X.ndim != 2 or X.shape[1] != len(model.schema.names):
        raise DataFormatError(f"feature matrix must have {len(model.schema.names)} columns, got {X.shape}")
    out = np.full(X.shape[0], model.base_score, dtype=np.float64)
    for tree in model.trees:
        out += model.params.learning_rate * tree.predict(X)
    return out


def predict_groups(model: GbdtModel, groups: RankingGroups) -> np.ndarray:
    """Scores of every candidate, (m, k), from one predict call over the grid's feature matrix."""
    return predict(model, groups.features).reshape(groups.labels.shape)


def save_model(model: GbdtModel, path: str | Path) -> None:
    """Versioned JSON document; floats render with shortest-roundtrip repr. All or nothing."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "base_score": model.base_score,
        "params": {
            "n_trees": model.params.n_trees,
            "max_depth": model.params.max_depth,
            "learning_rate": model.params.learning_rate,
            "min_child_weight": model.params.min_child_weight,
            "l2_leaf_reg": model.params.l2_leaf_reg,
            "sigma": model.params.sigma,
        },
        "schema": {
            "names": list(model.schema.names),
            "disabled": list(model.schema.disabled),
            "fingerprint": model.fingerprint,
        },
        "meta": model.meta,
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "value": tree.value.tolist(),
            }
            for tree in model.trees
        ],
    }
    with atomic_writer(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _check_tree(tree: RegressionTree, n_features: int, where: str) -> None:
    n = tree.n_nodes()
    if n == 0:
        raise DataFormatError(f"{where}: empty tree")
    internal = tree.feature >= 0
    if (tree.feature >= n_features).any():
        raise DataFormatError(f"{where}: feature index out of range")
    # fit_tree appends children after their parent; requiring that keeps every path finite
    kids = np.stack([tree.left[internal], tree.right[internal]])
    if ((kids <= np.flatnonzero(internal)) | (kids >= n)).any():
        raise DataFormatError(f"{where}: child index out of range")
    if not ((tree.left[~internal] == -1) & (tree.right[~internal] == -1)).all():
        raise DataFormatError(f"{where}: leaf with children")
    if not np.isfinite(tree.value).all() or not np.isfinite(tree.threshold).all():
        raise DataFormatError(f"{where}: non-finite node values")


def load_model(path: str | Path) -> GbdtModel:
    path = Path(path)
    try:
        doc = json.loads(path.read_bytes().decode("utf-8"))
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 at byte offset {e.start}") from None
    except json.JSONDecodeError as e:
        raise DataFormatError(f"{path}: malformed model document at byte offset {e.pos}: {e.msg}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataFormatError(f"{path}: not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise DataFormatError(f"{path}: unsupported model version {doc.get('version')!r}, expected {MODEL_VERSION}")
    try:
        # v1 files written before the unused seed field was dropped carry it; it is ignored
        fields = {**doc["params"]}
        fields.pop("seed", None)
        params = GbdtParams(**fields)
        schema = FeatureSchema(names=tuple(doc["schema"]["names"]), disabled=tuple(doc["schema"]["disabled"]))
        trees = [
            RegressionTree(
                feature=np.array(t["feature"], dtype=np.int32),
                threshold=np.array(t["threshold"], dtype=np.float64),
                left=np.array(t["left"], dtype=np.int32),
                right=np.array(t["right"], dtype=np.int32),
                value=np.array(t["value"], dtype=np.float64),
            )
            for t in doc["trees"]
        ]
        model = GbdtModel(
            trees=trees,
            params=params,
            schema=schema,
            fingerprint=doc["schema"]["fingerprint"],
            base_score=float(doc["base_score"]),
            meta=doc.get("meta", {}),
        )
    except (KeyError, TypeError) as e:
        raise DataFormatError(f"{path}: missing or invalid model field: {e}") from None
    try:
        params.validate()
    except (ValueError, TypeError) as e:
        raise DataFormatError(f"{path}: invalid model params: {e}") from None
    if len(trees) != params.n_trees:
        raise DataFormatError(f"{path}: {len(trees)} trees, but params give n_trees={params.n_trees}")
    for t, tree in enumerate(model.trees):
        _check_tree(tree, len(model.schema.names), f"{path}: tree {t}")
    return model


def combine_with_retriever(ranker_scores: np.ndarray, csls_scores: np.ndarray, mix: float) -> np.ndarray:
    """Per source, min-max normalize both score rows and blend them.

    combined = mix * ranker + (1 - mix) * retriever, on (m, k) arrays (or one
    (k,) row); a constant row normalizes to all 0.5.
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError(f"mix must be in [0, 1], got {mix}")
    ranker = np.asarray(ranker_scores, dtype=np.float64)
    csls = np.asarray(csls_scores, dtype=np.float64)
    if ranker.shape != csls.shape:
        raise ValueError(f"ranker scores {ranker.shape} and retriever scores {csls.shape} must be parallel")

    def norm(x: np.ndarray) -> np.ndarray:
        lo = x.min(axis=-1, keepdims=True)
        span = x.max(axis=-1, keepdims=True) - lo
        flat = span == 0.0
        return np.where(flat, 0.5, (x - lo) / np.where(flat, 1.0, span))

    return mix * norm(ranker) + (1.0 - mix) * norm(csls)
