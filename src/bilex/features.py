"""Per-candidate feature vectors and labeled ranking groups.

The 46-column layout is fixed: retriever/reranker scores, frequency features,
a POS-match bit, and two 18-way one-hot POS blocks. Ablations zero columns
out in place; the schema length never changes.

build_groups returns one sources x k grid, RankingGroups, whose (m * k, 46)
feature matrix it fills column by column through id arrays.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (
    ALL_TAGS,
    DataFormatError,
    FrequencyTable,
    PosTable,
    TranslationDictionary,
    Vocabulary,
    _data_lines,
    _nfc,
    atomic_writer,
)
from .retrieval import CandidateSet

log = logging.getLogger(__name__)

FEATURE_NAMES: tuple[str, ...] = (
    "csls",
    "ext_logit",
    "ext_present",
    "zipf_src",
    "zipf_cand",
    "zipf_diff",
    "zipf_absdiff",
    "log_rank_src",
    "log_rank_cand",
    "pos_match",
    *(f"src_pos_{t}" for t in ALL_TAGS),
    *(f"cand_pos_{t}" for t in ALL_TAGS),
)
N_FEATURES = len(FEATURE_NAMES)
assert N_FEATURES == 46

FEATURE_GROUPS = {
    "freq": tuple(range(3, 9)),
    "pos": tuple(range(9, 46)),
}


@dataclass(frozen=True)
class FeatureSchema:
    """Feature layout plus the set of ablated (zeroed) groups."""

    names: tuple[str, ...] = FEATURE_NAMES
    disabled: tuple[str, ...] = ()

    def __post_init__(self):
        for group in self.disabled:
            if group not in FEATURE_GROUPS:
                raise ValueError(f"unknown feature group {group!r}")

    def fingerprint(self) -> str:
        payload = "|".join(self.names) + ";disabled=" + ",".join(sorted(self.disabled))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def masked_columns(self) -> list[int]:
        cols: list[int] = []
        for group in sorted(self.disabled):
            cols.extend(FEATURE_GROUPS[group])
        return cols


@dataclass
class ExternalScores:
    """(source word, candidate word) -> raw reranker logit."""

    logits: dict[tuple[str, str], float]
    duplicates: int = 0

    def get(self, src_word: str, cand_word: str) -> float | None:
        return self.logits.get((src_word, cand_word))

    def __len__(self) -> int:
        return len(self.logits)


def load_external_scores(path: str | Path) -> ExternalScores:
    """Load "src<TAB>cand<TAB>logit" rows; duplicate keys keep the last value."""
    path = Path(path)
    logits: dict[tuple[str, str], float] = {}
    duplicates = 0
    for line_no, line in _data_lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataFormatError(f"{path}: line {line_no}: expected 'src<TAB>cand<TAB>logit'")
        try:
            value = float(fields[2])
        except ValueError:
            raise DataFormatError(f"{path}: line {line_no}: non-numeric logit {fields[2]!r}") from None
        if not math.isfinite(value):
            raise DataFormatError(f"{path}: line {line_no}: non-finite logit {fields[2]!r}")
        key = (_nfc(fields[0]), _nfc(fields[1]))
        if key in logits:
            duplicates += 1
            log.warning("%s: line %d: duplicate pair %r, last value wins", path, line_no, key)
        logits[key] = value
    return ExternalScores(logits=logits, duplicates=duplicates)


@dataclass
class RankingGroups:
    """m sources, each with its k ranked candidates: the unit of LTR training and evaluation.

    src is (m,), candidate_ids and labels are (m, k), and features holds the
    m * k candidate rows, source by source, as one (m * k, 46) matrix. Every
    list has the same width k, so each layer works on whole (m, k) arrays.
    len() is the source count, and iterating yields each source's
    candidate-id row.
    """

    src: np.ndarray
    candidate_ids: np.ndarray
    labels: np.ndarray
    features: np.ndarray
    has_gold: np.ndarray

    @property
    def csls(self) -> np.ndarray:
        """The retriever scores, (m, k): a view of feature column 0, which no ablation masks."""
        return self.features[:, 0].reshape(self.labels.shape)

    @property
    def gold_missed(self) -> np.ndarray:
        """Sources with a gold set of which no candidate is a member, (m,)."""
        return self.has_gold & ~self.labels.any(axis=1)

    @property
    def trainable(self) -> np.ndarray:
        """Sources with both a positive and a negative candidate, (m,): the ones that give a gradient."""
        positives = self.labels.sum(axis=1)
        return (positives > 0) & (positives < self.labels.shape[1])

    def __len__(self) -> int:
        return len(self.src)

    def __iter__(self):
        return iter(self.candidate_ids)

    def take(self, idx) -> "RankingGroups":
        """The sources at positions idx, in that order, as a new grid."""
        rows = self.features.reshape(*self.labels.shape, N_FEATURES)[idx]
        return RankingGroups(
            src=self.src[idx],
            candidate_ids=self.candidate_ids[idx],
            labels=self.labels[idx],
            features=rows.reshape(-1, N_FEATURES),
            has_gold=self.has_gold[idx],
        )


def _log2_1p(ranks: np.ndarray) -> np.ndarray:
    """math.log2(1 + r) per rank, through a table over the distinct ranks; np.log2 may differ in the last bit."""
    distinct, inverse = np.unique(ranks, return_inverse=True)
    table = np.array([math.log2(1 + r) for r in distinct.tolist()], dtype=np.float64)
    return table[inverse]


def _ext_columns(
    ext: ExternalScores, src_vocab: Vocabulary, tgt_vocab: Vocabulary, src: np.ndarray, cand: np.ndarray, X: np.ndarray
) -> None:
    """Fill ext_logit and ext_present (columns 1 and 2) for the rows whose (source, candidate) pair ext lists."""
    base = len(tgt_vocab)
    listed = {}
    for (sw, cw), value in ext.logits.items():
        s, c = src_vocab.index.get(sw), tgt_vocab.index.get(cw)
        if s is not None and c is not None:
            listed[s * base + c] = value
    if not listed:
        return
    codes = np.array(sorted(listed), dtype=np.int64)
    logits = np.array([listed[code] for code in codes.tolist()], dtype=np.float64)
    pairs = src * base + cand
    at = np.minimum(np.searchsorted(codes, pairs), codes.size - 1)
    found = codes[at] == pairs
    X[found, 1] = logits[at[found]]
    X[found, 2] = 1.0


def build_groups(
    sources: list[int],
    cands: CandidateSet,
    freq_src: FrequencyTable,
    freq_tgt: FrequencyTable,
    pos_src: PosTable,
    pos_tgt: PosTable,
    src_vocab: Vocabulary,
    tgt_vocab: Vocabulary,
    dic: TranslationDictionary | None = None,
    ext: ExternalScores | None = None,
    schema: FeatureSchema | None = None,
) -> RankingGroups:
    """The grid of the requested sources, in order, each with its whole candidate list in order.

    Labels come from dic when the source is present there; otherwise the
    source is an unlabeled inference row. Sources without a candidate list
    are fatal.

    All rows go into one contiguous (m * k, 46) matrix, filled column by
    column through the source and candidate id arrays.
    """
    schema = schema or FeatureSchema()
    rows = cands.rows_for(sources)
    missing = np.flatnonzero(rows < 0)
    if missing.size:
        raise DataFormatError(f"source {src_vocab.word(sources[missing[0]])!r} has no candidate list")
    m, k = len(sources), cands.cand_ids.shape[1]
    src = np.repeat(np.array(sources, dtype=np.int64), k)
    cand = cands.cand_ids[rows].astype(np.int64).ravel()
    csls = cands.scores[rows].astype(np.float64).ravel()

    X = np.zeros((m * k, N_FEATURES), dtype=np.float64)
    X[:, 0] = csls
    if ext is not None:
        _ext_columns(ext, src_vocab, tgt_vocab, src, cand, X)
    zs = np.asarray(freq_src.zipf, dtype=np.float64)[src]
    zc = np.asarray(freq_tgt.zipf, dtype=np.float64)[cand]
    X[:, 3] = zs
    X[:, 4] = zc
    X[:, 5] = zs - zc
    X[:, 6] = np.abs(zs - zc)
    X[:, 7] = _log2_1p(freq_src.rank[src])
    X[:, 8] = _log2_1p(freq_tgt.rank[cand])
    ts = pos_src.tag_ids[src].astype(np.int64)
    tc = pos_tgt.tag_ids[cand].astype(np.int64)
    X[:, 9] = ts == tc
    X[np.arange(m * k), 10 + ts] = 1.0
    X[np.arange(m * k), 28 + tc] = 1.0
    X[:, schema.masked_columns()] = 0.0

    labels = np.zeros(m * k, dtype=np.int8)
    has_gold = np.array([dic is not None and s in dic.entries for s in sources], dtype=bool)
    gold = np.array(
        [(s, t) for s, labeled in zip(sources, has_gold) if labeled for t in dic.entries[s]], dtype=np.int64
    )
    if gold.size:
        base = int(max(cand.max(initial=0), gold[:, 1].max())) + 1
        labels[np.isin(src * base + cand, gold[:, 0] * base + gold[:, 1])] = 1
    groups = RankingGroups(
        src=np.array(sources, dtype=np.int64),
        candidate_ids=cand.reshape(m, k),
        labels=labels.reshape(m, k),
        features=X,
        has_gold=has_gold,
    )
    missed = int(groups.gold_missed.sum())
    if missed:
        log.info("build_groups: gold never retrieved for %d of %d labeled sources", missed, has_gold.sum())
    return groups


def write_feature_matrix(groups: RankingGroups, src_vocab: Vocabulary, tgt_vocab: Vocabulary, path: str | Path) -> None:
    """Debug export: one row per candidate with a schema-name header."""
    features = groups.features.reshape(*groups.labels.shape, N_FEATURES)
    with atomic_writer(path) as fh:
        fh.write("src\tcand\tlabel\t" + "\t".join(FEATURE_NAMES) + "\n")
        for s, cands, labels, block in zip(groups.src.tolist(), groups.candidate_ids, groups.labels, features):
            sw = src_vocab.word(s)
            # tolist() gives Python floats, whose repr is the shortest round-trip text
            rows = zip(cands.tolist(), labels.tolist(), block.tolist())
            fh.write("".join(
                f"{sw}\t{tgt_vocab.word(c)}\t{int(label)}\t" + "\t".join(map(repr, cells)) + "\n"
                for c, label, cells in rows
            ))
