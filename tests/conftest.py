import os

import numpy as np
import pytest

from bilex import corpus
from bilex.corpus import EmbeddingSpace, Vocabulary
from bilex.features import N_FEATURES, RankingGroups


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def space_from(matrix, words=None, normalized=False):
    matrix = np.asarray(matrix, dtype=np.float64)
    n, d = matrix.shape
    words = words or [f"w{i}" for i in range(n)]
    return EmbeddingSpace(
        vocab=Vocabulary.from_words(list(words)),
        matrix=matrix,
        dim=d,
        normalized=normalized,
    )


def unit_space(matrix, words=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return space_from(matrix / norms, words, normalized=True)


def grid(labels, features=None, src=None, candidate_ids=None, has_gold=True):
    """A hand-built RankingGroups: labels (m, k); features (m * k, 46), zeros if not given."""
    labels = np.asarray(labels, dtype=np.int8)
    m, k = labels.shape
    return RankingGroups(
        src=np.arange(m, dtype=np.int64) if src is None else np.asarray(src, dtype=np.int64),
        candidate_ids=np.tile(np.arange(k, dtype=np.int64), (m, 1)) if candidate_ids is None
        else np.asarray(candidate_ids, dtype=np.int64),
        labels=labels,
        features=np.zeros((m * k, N_FEATURES)) if features is None else np.asarray(features, dtype=np.float64),
        has_gold=np.full(m, has_gold),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def split_small(monkeypatch):
    """Files of any size split into as many parts as asked, with eight usable CPUs; yields the pids forked."""
    monkeypatch.setattr(corpus, "MIN_PART_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield forked
    for pid in forked:  # every child is reaped by the loader, whatever happened
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
