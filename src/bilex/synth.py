"""Deterministic synthetic bilingual worlds for desk-scale end-to-end tests.

A world is a rotated-plus-noise copy of a random source space with a known
gold bijection, optional injected hub vectors, Zipfian frequencies whose
ranks correlate across the pair, and POS tags that agree on gold pairs with
a configurable probability. Every component draws from its own seeded
stream, so adding one component never shifts another's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import (
    ALL_TAGS,
    EmbeddingSpace,
    FrequencyTable,
    PosTable,
    TranslationDictionary,
    Vocabulary,
    frequency_table_from_counts,
    pos_table_from_tags,
)

# fixed stream ids per component
_STREAM_VECTORS = 0
_STREAM_ROTATION = 1
_STREAM_NOISE = 2
_STREAM_HUBS = 3
_STREAM_FREQ = 4
_STREAM_POS = 5
_STREAM_SPLIT = 6
_STREAM_ANISO = 7

DEFAULT_POS_DISTRIBUTION = {
    "NOUN": 0.35,
    "VERB": 0.20,
    "ADJ": 0.15,
    "ADV": 0.10,
    "PROPN": 0.10,
    "PRON": 0.05,
    "NUM": 0.05,
}


@dataclass
class SynthConfig:
    vocab_n: int
    dim: int
    noise_sigma: float = 0.0
    hub_count: int = 0
    zipf_exponent: float = 1.0
    pos_distribution: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_POS_DISTRIBUTION))
    pos_match_prob: float = 0.9
    rank_jitter: float = 0.1
    mean_offset: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.vocab_n < 2:
            raise ValueError(f"vocab_n must be >= 2, got {self.vocab_n}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.mean_offset < 0:
            raise ValueError(f"mean_offset must be >= 0, got {self.mean_offset}")
        if not 0 <= self.hub_count <= self.vocab_n:
            raise ValueError(f"hub_count must be in [0, {self.vocab_n}], got {self.hub_count}")
        if not abs(sum(self.pos_distribution.values()) - 1.0) <= 1e-9:  # a NaN fails too
            raise ValueError("pos_distribution probabilities must sum to 1")
        for tag in self.pos_distribution:
            if tag not in ALL_TAGS:
                raise ValueError(f"unknown POS tag {tag!r} in distribution")
        if not 0.0 <= self.pos_match_prob <= 1.0:
            raise ValueError(f"pos_match_prob must be in [0, 1], got {self.pos_match_prob}")
        if self.rank_jitter < 0:
            raise ValueError(f"rank_jitter must be >= 0, got {self.rank_jitter}")
        # the range tests above let a NaN or inf through
        for name in ("noise_sigma", "zipf_exponent", "rank_jitter", "mean_offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass
class SynthWorld:
    config: SynthConfig
    src: EmbeddingSpace
    tgt: EmbeddingSpace
    gold: TranslationDictionary
    freq_src: FrequencyTable
    freq_tgt: FrequencyTable
    pos_src: PosTable
    pos_tgt: PosTable
    counts_src: dict[str, int]
    counts_tgt: dict[str, int]
    tags_src: dict[str, str]
    tags_tgt: dict[str, str]
    rotation: np.ndarray


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """QR-orthogonalized Gaussian matrix, sign-canonicalized via diag(R)."""
    Q, R = np.linalg.qr(rng.standard_normal((dim, dim)))
    return Q * np.sign(np.diag(R))


def _zipf_counts(ranks: np.ndarray, exponent: float) -> np.ndarray:
    counts = (1e9 / np.power(ranks.astype(np.float64), exponent)).astype(np.int64)
    return np.maximum(counts, 1)


def gen_bilingual_world(cfg: SynthConfig) -> SynthWorld:
    """Generate a reproducible synthetic language pair with gold i -> i."""
    cfg.validate()
    n, d = cfg.vocab_n, cfg.dim

    src_words = [f"s{i:05d}" for i in range(n)]
    tgt_words = [f"t{i:05d}" for i in range(n)]
    src_vocab = Vocabulary.from_words(src_words)
    tgt_vocab = Vocabulary.from_words(tgt_words)

    raw = _rng(cfg.seed, _STREAM_VECTORS).standard_normal((n, d))
    if cfg.mean_offset > 0:
        # a shared direction gives the space a nonzero centroid, the
        # geometry under which near-centroid vectors act as hubs
        direction = _rng(cfg.seed, _STREAM_ANISO).standard_normal(d)
        raw = raw + cfg.mean_offset * (direction / np.linalg.norm(direction))
    X = _unit_rows(raw)
    Q = random_orthogonal(d, _rng(cfg.seed, _STREAM_ROTATION))
    T = X @ Q
    if cfg.noise_sigma > 0:
        T = T + cfg.noise_sigma * _rng(cfg.seed, _STREAM_NOISE).standard_normal((n, d))
    T = _unit_rows(T)

    if cfg.hub_count > 0:
        hub_rng = _rng(cfg.seed, _STREAM_HUBS)
        hub_ids = np.sort(hub_rng.choice(n, size=cfg.hub_count, replace=False))
        subset_size = min(n, 100)
        for i in hub_ids:
            subset = hub_rng.choice(n, size=subset_size, replace=False)
            T[i] = T[subset].mean(axis=0)
        T = _unit_rows(T)

    # frequency ranks: target rank follows source rank plus bounded jitter
    freq_rng = _rng(cfg.seed, _STREAM_FREQ)
    rank_src = np.empty(n, dtype=np.int64)
    rank_src[freq_rng.permutation(n)] = np.arange(1, n + 1)
    jitter = freq_rng.uniform(-cfg.rank_jitter * n, cfg.rank_jitter * n, size=n)
    rank_tgt = np.empty(n, dtype=np.int64)
    rank_tgt[np.argsort(rank_src + jitter, kind="stable")] = np.arange(1, n + 1)
    counts_src = dict(zip(src_words, _zipf_counts(rank_src, cfg.zipf_exponent).tolist()))
    counts_tgt = dict(zip(tgt_words, _zipf_counts(rank_tgt, cfg.zipf_exponent).tolist()))

    # POS tags: gold pairs agree with probability pos_match_prob
    pos_rng = _rng(cfg.seed, _STREAM_POS)
    tag_names = sorted(cfg.pos_distribution)
    probs = np.array([cfg.pos_distribution[t] for t in tag_names])
    src_tag_idx = pos_rng.choice(len(tag_names), size=n, p=probs)
    fresh_idx = pos_rng.choice(len(tag_names), size=n, p=probs)
    agree = pos_rng.random(n) < cfg.pos_match_prob
    tgt_tag_idx = np.where(agree, src_tag_idx, fresh_idx)
    tags_src = {w: tag_names[i] for w, i in zip(src_words, src_tag_idx)}
    tags_tgt = {w: tag_names[i] for w, i in zip(tgt_words, tgt_tag_idx)}

    gold = TranslationDictionary(entries={i: (i,) for i in range(n)})
    freq_src = frequency_table_from_counts(counts_src, src_vocab)
    freq_tgt = frequency_table_from_counts(counts_tgt, tgt_vocab)
    pos_src = pos_table_from_tags(tags_src, src_vocab)
    pos_tgt = pos_table_from_tags(tags_tgt, tgt_vocab)

    return SynthWorld(
        config=cfg,
        src=EmbeddingSpace(vocab=src_vocab, matrix=X, dim=d, normalized=True),
        tgt=EmbeddingSpace(vocab=tgt_vocab, matrix=T, dim=d, normalized=True),
        gold=gold,
        freq_src=freq_src,
        freq_tgt=freq_tgt,
        pos_src=pos_src,
        pos_tgt=pos_tgt,
        counts_src=counts_src,
        counts_tgt=counts_tgt,
        tags_src=tags_src,
        tags_tgt=tags_tgt,
        rotation=Q,
    )


def split_gold(world: SynthWorld, test_fraction: float) -> tuple[TranslationDictionary, TranslationDictionary]:
    """Deterministic train/test split of the gold dictionary by source."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    sources = np.array(sorted(world.gold.entries))
    perm = _rng(world.config.seed, _STREAM_SPLIT).permutation(len(sources))
    n_test = max(1, int(round(len(sources) * test_fraction)))
    test_ids = set(sources[perm[:n_test]].tolist())
    train = {s: world.gold.entries[s] for s in sources.tolist() if s not in test_ids}
    test = {s: world.gold.entries[s] for s in sorted(test_ids)}
    return TranslationDictionary(entries=train), TranslationDictionary(entries=test)
