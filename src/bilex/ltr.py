"""Listwise gradient-boosted tree ranker optimizing mean average precision.

Pairwise logistic gradients are weighted by the exact AP change of swapping
the pair in the current ranking; one routine, compute_lambdas, computes them
for a batch of equal-length groups with any number of positives. Trees are
grown with second-order (Newton) leaf values by an exact histogram split
search: each column is binned once per training by its distinct values, and
every node builds its gradient and hessian histograms directly from its own
rows, so every distinct-value cut is scored. Each round is a few whole-array
passes: one lambda batch per group length, one histogram build per node, one
stacked tree prediction, one bucketed MAP trace. Everything is
deterministic: stable sorts, fixed reduction orders, ties to the lowest
feature index / candidate position.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import DataFormatError, atomic_writer
from .features import FeatureSchema, RankingGroup, stacked_features

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


@dataclass
class RegressionTree:
    """Array-encoded binary tree; rows route left iff feature < threshold."""

    feature: np.ndarray    # int32, -1 at leaves
    threshold: np.ndarray  # float64, 0.0 at leaves
    left: np.ndarray       # int32, -1 at leaves
    right: np.ndarray      # int32, -1 at leaves
    value: np.ndarray      # float64, leaf outputs, 0.0 at internal nodes

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int32)
        is_leaf = self.feature < 0
        while True:
            active = ~is_leaf[node]
            if not active.any():
                break
            idx = np.nonzero(active)[0]
            cur = node[idx]
            go_left = X[idx, self.feature[cur]] < self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
        return self.value[node]

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
    """Descending-score permutation; ties keep original candidate position."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


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


@dataclass(frozen=True)
class ApBuckets:
    """The groups of one list that hold a positive, in buckets of equal length.

    Each bucket is (rows, labels, positives, members): the positions of its
    groups' scores in the back-to-back score vector (b, size), their labels
    (b, size), positive counts (b,) and group indices (b,). Built once,
    it serves every mean_ap call on the same group list.
    """

    n_groups: int
    buckets: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]

    @classmethod
    def of(cls, groups: list[RankingGroup]) -> "ApBuckets":
        offsets = np.concatenate([[0], np.cumsum([len(grp) for grp in groups], dtype=np.int64)])
        by_size: dict[int, list[int]] = {}
        for i, grp in enumerate(groups):
            by_size.setdefault(len(grp), []).append(i)
        buckets = []
        for size, members in by_size.items():
            y = np.array([groups[i].labels for i in members], dtype=np.float64)
            positives = y.sum(axis=1)
            keep = positives > 0
            if keep.any():
                kept = np.array(members)[keep]
                buckets.append((offsets[kept][:, None] + np.arange(size), y[keep], positives[keep], kept))
        return cls(n_groups=len(groups), buckets=buckets)


def mean_ap(groups: list[RankingGroup], scores, buckets: ApBuckets | None = None) -> float:
    """Mean AP over groups that contain a positive, each ranked by score.

    scores holds each group's scores, as one array per group or all of them
    back to back in one array. buckets, if given, must be ApBuckets.of(groups).
    Groups are ranked in buckets of equal length, one row-wise stable sort
    per bucket. Each AP is the last entry of a running sum of the precisions
    at the positive ranks, added in rank order as average_precision does.
    """
    if buckets is None:
        buckets = ApBuckets.of(groups)
    if isinstance(scores, np.ndarray):
        pooled = scores.astype(np.float64, copy=False)
    else:
        pooled = np.concatenate([np.asarray(s, dtype=np.float64) for s in scores]) if scores else np.zeros(0)
    aps = np.zeros(buckets.n_groups)
    has_positive = np.zeros(buckets.n_groups, dtype=bool)
    for rows, y, positives, members in buckets.buckets:
        order = np.argsort(-pooled[rows], axis=1, kind="stable")
        ranked = np.take_along_axis(y, order, axis=1)
        hits = np.cumsum(ranked, axis=1)
        precision = np.where(ranked == 1, hits / np.arange(1, rows.shape[1] + 1, dtype=np.float64), 0.0)
        aps[members] = np.cumsum(precision, axis=1)[:, -1] / positives
        has_positive[members] = True
    skipped = buckets.n_groups - int(has_positive.sum())
    if skipped:
        log.debug("mean_ap: %d all-negative groups excluded", skipped)
    return float(np.mean(aps[has_positive])) if has_positive.any() else 0.0


def _ap_prefixes(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative positives and cumulative y_k/k over 1-based rank positions, along the last axis."""
    ks = np.arange(1, y.shape[-1] + 1, dtype=np.float64)
    return np.cumsum(y, axis=-1).astype(np.float64), np.cumsum(y / ks, axis=-1)


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
    """Numerically stable 1 / (1 + exp(x))."""
    out = np.empty_like(x)
    neg = x < 0
    out[neg] = 1.0 / (1.0 + np.exp(x[neg]))
    ex = np.exp(-x[~neg])
    out[~neg] = ex / (1.0 + ex)
    return out


def compute_lambdas(scores: np.ndarray, labels: np.ndarray, sigma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate gradient/hessian of the AP-weighted pairwise objective.

    scores and labels are one group (k,) or a batch of equal-length groups
    (m, k) with any number of positives per row. For each (positive i,
    negative j) pair of a row, rho = 1/(1+exp(sigma*(s_i-s_j))) and the pair's
    weight is |delta AP| of swapping the two in the current ranking; positives
    accumulate negative gradient. Gradients sum to zero by construction.

    Pairs live in (m, P, k) arrays: each row's positives, padded to the
    largest count P in the batch, against every candidate, with zero off the
    pairs. A positive sums over the whole candidate axis and a negative over
    the positive axis, so a row's result does not depend on its batch.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim == 1:
        g, h = compute_lambdas(s[None, :], y[None, :], sigma)
        return g[0], h[0]
    row = np.arange(s.shape[0])[:, None]
    pos = y == 1
    n_pos = pos.sum(axis=1)
    # each row's positive candidates first, ascending; slots past the row's count are padding
    slots = np.argsort(~pos, axis=1, kind="stable")[:, : n_pos.max(initial=0)]
    pair = (np.arange(slots.shape[1]) < n_pos[:, None])[:, :, None] & (y == 0)[:, None, :]

    order = np.argsort(-s, axis=1, kind="stable")
    rank_of = np.empty_like(order)
    rank_of[row, order] = np.arange(1, s.shape[1] + 1)
    c, S = _ap_prefixes(y[row, order].astype(np.float64))

    ra = rank_of[row, slots][:, :, None]  # positive ranks, (m, P, 1)
    rb = rank_of[:, None, :]              # every rank, (m, 1, k)
    amin = np.minimum(ra, rb)
    amax = np.maximum(ra, rb)
    concordant = ra < rb
    r = row[:, :, None]  # amax - 2 is -1 only off the pairs
    mid = S[r, amax - 2] - S[r, amin - 1]
    P = np.maximum(n_pos, 1)[:, None, None]  # a row without positives has no pairs
    w = ((c[r, amin - 1] + (~concordant).astype(np.float64)) / amin + mid - c[r, amax - 1] / amax) / P

    rho = _pair_sigmoid(sigma * (s[row, slots][:, :, None] - s[:, None, :]))
    lam = np.where(pair, sigma * rho * w, 0.0)
    curv = np.where(pair, sigma * sigma * rho * (1.0 - rho) * w, 0.0)
    g = lam.sum(axis=1)
    h = curv.sum(axis=1)
    # a positive's column holds 0 so far, and a padding slot's sum is 0
    g[row, slots] -= lam.sum(axis=2)
    h[row, slots] += curv.sum(axis=2)
    return g, h


class _BinnedColumns:
    """Per-training binning of the feature matrix, shared by every tree.

    Each column holding at least two distinct values gets one bin per
    distinct value, in ascending order. Bin numbers are offset per column
    so that one flat bincount over a node's rows builds every column's
    histogram at once. Constant columns get no bins and never split.
    """

    def __init__(self, X: np.ndarray):
        features, values, codes = [], [], []
        n_bins = 0
        for f in range(X.shape[1]):
            distinct, inverse = np.unique(X[:, f], return_inverse=True)
            if distinct.size < 2:
                continue
            features.append(f)
            values.append(distinct)
            codes.append(inverse + n_bins)
            n_bins += distinct.size
        self.features = np.array(features, dtype=np.int64)
        self.values = np.concatenate(values) if values else np.zeros(0)
        self.codes = np.column_stack(codes) if codes else np.zeros((X.shape[0], 0), dtype=np.intp)
        self.n_bins = n_bins
        # column position (index into features) of every bin
        self.bin_col = np.repeat(np.arange(len(values)), [v.size for v in values])


def _best_split_at(bins: _BinnedColumns, g, h, rows, G, H, lam, mcw):
    """Best (feature, threshold) of a node, or None.

    A cut goes after each non-empty bin that has a later non-empty bin, at
    the midpoint of the two values. Cuts are scanned feature by feature,
    thresholds ascending, so the first maximum breaks ties to the lowest
    feature index, then the lowest threshold.
    """
    n_cols = bins.features.size
    if n_cols == 0:
        return None
    codes = bins.codes[rows].ravel()
    count = np.bincount(codes, minlength=bins.n_bins)
    nz = np.flatnonzero(count)
    GL = np.bincount(codes, weights=np.repeat(g[rows], n_cols), minlength=bins.n_bins)[nz]
    HL = np.bincount(codes, weights=np.repeat(h[rows], n_cols), minlength=bins.n_bins)[nz]
    # left sums per column, accumulated in bin order; every row lands in one
    # bin of each column, so each column has at least one non-empty bin
    col = bins.bin_col[nz]
    ends = np.cumsum(np.bincount(col, minlength=n_cols))
    start = 0
    for end in ends.tolist():
        np.cumsum(GL[start:end], out=GL[start:end])
        np.cumsum(HL[start:end], out=HL[start:end])
        start = end
    GR, HR = G - GL, H - HL
    dl, dr = HL + lam, HR + lam
    valid = (HL >= mcw) & (HR >= mcw) & (dl > 0) & (dr > 0)
    valid[ends - 1] = False  # the last non-empty bin of a column has nothing to its right
    parent = G * G / (H + lam) if H + lam > 0 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = np.where(valid, 0.5 * (GL * GL / dl + GR * GR / dr - parent), -np.inf)
    best = int(np.argmax(gains))  # first maximum: lowest feature, then lowest threshold
    if not gains[best] > 0.0:
        return None
    lo, hi = bins.values[nz[best]], bins.values[nz[best + 1]]
    thr = 0.5 * (lo + hi)
    if thr <= lo:  # midpoint rounded onto lo
        thr = hi
    return int(bins.features[col[best]]), float(thr)


def fit_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    params: GbdtParams,
    bins: _BinnedColumns | None = None,
) -> RegressionTree:
    """Grow one regression tree by exact histogram gain search.

    Candidate thresholds are midpoints of consecutive distinct values present
    in the node; gain = 0.5*(GL^2/(HL+reg) + GR^2/(HR+reg) - G^2/(H+reg)).
    Ties go to the lowest feature index, then the lowest threshold.
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
        G = float(g[rows].sum())
        H = float(h[rows].sum())
        best = None
        if depth < params.max_depth:
            best = _best_split_at(bins, g, h, rows, G, H, lam, mcw)
        if best is None:
            denom = H + lam
            value[node] = (-G / denom if denom > 0 else 0.0) + 0.0
            continue
        f, thr = best
        feature[node] = f
        threshold[node] = thr
        sel = X[rows, f] < thr
        lchild = new_node()
        rchild = new_node()
        left[node] = lchild
        right[node] = rchild
        stack.append((rchild, rows[~sel], depth + 1))
        stack.append((lchild, rows[sel], depth + 1))
    return RegressionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )


def train(
    groups: list[RankingGroup],
    params: GbdtParams,
    schema: FeatureSchema | None = None,
) -> tuple[GbdtModel, list[tuple[int, float]]]:
    """Boost n_trees rounds over pooled group rows; returns (model, MAP trace).

    Groups lacking both a positive and a negative contribute no gradient but
    their rows remain in the pool. At least one mixed group is required.
    """
    params.validate()
    schema = schema or FeatureSchema()
    if not groups:
        raise ValueError("no groups to train on")
    sizes = [len(grp) for grp in groups]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    # trainable groups bucketed by candidate count: one lambda batch of pooled rows and labels each
    buckets: dict[int, list[int]] = {}
    for i, grp in enumerate(groups):
        if 0 < int(grp.labels.sum()) < len(grp):
            buckets.setdefault(len(grp), []).append(i)
    if not buckets:
        raise ValueError("no trainable group: need at least one group with a positive and a negative")
    batches = [
        (offsets[members][:, None] + np.arange(size), np.vstack([groups[i].labels for i in members]))
        for size, members in buckets.items()
    ]

    X = stacked_features(groups)
    n = X.shape[0]
    scores = np.zeros(n, dtype=np.float64)
    bins = _BinnedColumns(X)

    ap_buckets = ApBuckets.of(groups)  # the MAP trace ranks the same groups every round

    trees: list[RegressionTree] = []
    trace: list[tuple[int, float]] = []
    for round_no in range(1, params.n_trees + 1):
        g = np.zeros(n)
        h = np.zeros(n)
        for rows, labels in batches:
            g[rows], h[rows] = compute_lambdas(scores[rows], labels, params.sigma)
        tree = fit_tree(X, g, h, params, bins)
        trees.append(tree)
        scores += params.learning_rate * tree.predict(X)
        trace.append((round_no, mean_ap(groups, scores, ap_buckets)))

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


def predict_groups(model: GbdtModel, groups: list[RankingGroup]) -> list[np.ndarray]:
    """Per-group scores from one predict call over all group rows (stacked_features)."""
    if not groups:
        return []
    sizes = np.array([len(grp) for grp in groups])
    scores = predict(model, stacked_features(groups))
    return np.split(scores, np.cumsum(sizes)[:-1])


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
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
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
    for t, tree in enumerate(model.trees):
        _check_tree(tree, len(model.schema.names), f"{path}: tree {t}")
    return model


def combine_with_retriever(
    ranker_scores: list[np.ndarray],
    csls_scores: list[np.ndarray],
    mix: float,
) -> list[np.ndarray]:
    """Per group, min-max normalize both score lists and blend them.

    combined = mix * ranker + (1 - mix) * retriever; a constant list
    normalizes to all 0.5.
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError(f"mix must be in [0, 1], got {mix}")

    def norm(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        span = x.max() - x.min()
        if span == 0.0:
            return np.full_like(x, 0.5)
        return (x - x.min()) / span

    out = []
    for r, c in zip(ranker_scores, csls_scores):
        if len(r) != len(c):
            raise ValueError("score lists must be parallel within each group")
        out.append(mix * norm(r) + (1.0 - mix) * norm(c))
    return out
