"""Seeded input worlds for the benchmark workloads, cached by (workload, seed).

Vectors come from ``bilex.synth``; everything the program would otherwise
compute for itself (Procrustes alignment, CSLS candidate lists, seed/test
subsampling, second targets, the retrieval oracle) is plain numpy here, so
the inputs do not change when ``bilex.retrieval`` or ``bilex.ltr`` change.

Vectors are written with six decimals, as real ``.vec`` exports are. The
writer works on whole integer blocks, so the value the program parses for a
cell is exactly ``q / 1e6`` for the integer ``q`` written, and the oracle
uses that same matrix.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 1
CACHE_KEEP_PER_WORKLOAD = 6
SCALE = 1_000_000  # six decimals
TOP_K = 50
K_CSLS = 10

# independent streams for the benchmark's own subsampling
_STREAM_SUBSET = 101
_STREAM_SPLIT = 102
_STREAM_SECOND = 103
_STREAM_ORACLE = 104


@dataclass(frozen=True)
class WorldSpec:
    """Shape of one workload's input world."""

    n_tgt: int           # synth vocabulary size (target side keeps all of it)
    n_src: int           # source rows written (a seeded subset when < n_tgt)
    dim: int
    sigma: float
    n_train: int         # seed/train dictionary sources
    n_test: int          # test dictionary sources
    n_align: int = 0     # sources that only align the spaces (0: align on the train dictionary)
    second_target: float = 0.0   # share of dictionary sources with a second target
    candidates: str = "none"     # "none", "all" (every source) or "dict" (train+test only)
    oracle_rows: int = 0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def quantize(matrix: np.ndarray) -> np.ndarray:
    q = np.rint(matrix * SCALE).astype(np.int64)
    if np.abs(q).max() >= SCALE:
        raise ValueError("vector component rounds to |x| >= 1; the fixed writer needs |x| < 1")
    return q


def write_vectors(path: Path, words: list[str], q: np.ndarray, chunk: int = 2048) -> None:
    """Write ``<count> <dim>`` then ``word v1 .. vd`` with each v = q / 1e6."""
    n, d = q.shape
    powers = 10 ** np.arange(5, -1, -1, dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write(f"{n} {d}\n".encode())
        for lo in range(0, n, chunk):
            block = q[lo:lo + chunk]
            m = block.shape[0]
            # per cell: ' ', sign or a 0 byte that is dropped, '0', '.', six digits
            cells = np.zeros((m, d, 10), dtype=np.uint8)
            cells[..., 0] = ord(" ")
            cells[..., 1] = np.where(block < 0, ord("-"), 0)
            cells[..., 2] = ord("0")
            cells[..., 3] = ord(".")
            cells[..., 4:] = (np.abs(block)[..., None] // powers) % 10 + ord("0")
            rows = cells.reshape(m, d * 10)
            for i in range(m):
                fh.write(words[lo + i].encode())
                fh.write(rows[i].tobytes().replace(b"\x00", b""))
                fh.write(b"\n")


def _unit(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def _procrustes(X: np.ndarray, Y: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    s_rows = [s for s, _ in pairs]
    t_rows = [t for _, t in pairs]
    U, _, Vt = np.linalg.svd(X[s_rows].T @ Y[t_rows])
    return U @ Vt


def _topk_mean(A: np.ndarray, B: np.ndarray, k: int, block: int = 1024) -> np.ndarray:
    """Per row of A, the mean of its k largest cosines against B."""
    out = np.empty(A.shape[0])
    for lo in range(0, A.shape[0], block):
        sims = A[lo:lo + block] @ B.T
        out[lo:lo + block] = np.partition(sims, sims.shape[1] - k, axis=1)[:, -k:].sum(axis=1) / k
    return out


def csls_topk(Xa: np.ndarray, Y: np.ndarray, rows: np.ndarray, r_tgt: np.ndarray, k: int):
    """Brute-force float64 CSLS top-k for the given source rows.

    Candidates are ordered by descending score, ties by ascending target id.
    """
    ids = np.empty((rows.size, k), dtype=np.int64)
    vals = np.empty((rows.size, k))
    for lo in range(0, rows.size, 512):
        sims = Xa[rows[lo:lo + 512]] @ Y.T
        r_src = np.partition(sims, sims.shape[1] - K_CSLS, axis=1)[:, -K_CSLS:].sum(axis=1) / K_CSLS
        score = 2.0 * sims - r_tgt[None, :] - r_src[:, None]
        kth = -np.partition(-score, k - 1, axis=1)[:, k - 1]
        for i in range(score.shape[0]):
            cand = np.nonzero(score[i] >= kth[i])[0]  # every value tied at the boundary too
            order = cand[np.lexsort((cand, -score[i, cand]))][:k]
            ids[lo + i] = order
            vals[lo + i] = score[i, order]
    return ids, vals


def _write_pairs(path: Path, pairs: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in pairs:
            fh.write(f"{a}\t{b}\n")


def _write_table(path: Path, table: dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, value in table.items():
            fh.write(f"{word}\t{value}\n")


def generate(spec: WorldSpec, seed: int, out: Path) -> dict:
    """Write every input file of one world into ``out``; returns the manifest."""
    from bilex import synth  # the program's generator, used for vectors and tables only

    world = synth.gen_bilingual_world(
        synth.SynthConfig(vocab_n=spec.n_tgt, dim=spec.dim, noise_sigma=spec.sigma, seed=seed)
    )
    src_words_all = world.src.vocab.words
    tgt_words = world.tgt.vocab.words

    # source rows: a seeded subset of the gold-aligned source space, in id order
    if spec.n_src < spec.n_tgt:
        src_ids = np.sort(_rng(seed, _STREAM_SUBSET).choice(spec.n_tgt, size=spec.n_src, replace=False))
    else:
        src_ids = np.arange(spec.n_tgt)
    qs = quantize(world.src.matrix[src_ids])
    qt = quantize(world.tgt.matrix)
    src_words = [src_words_all[i] for i in src_ids]
    del world.src.matrix, world.tgt.matrix  # free the float copies early
    write_vectors(out / "src.vec", src_words, qs)
    write_vectors(out / "tgt.vec", tgt_words, qt)

    # what the program parses, then unit-normalizes
    X = _unit(qs / SCALE)
    Y = _unit(qt / SCALE)
    del qs, qt

    # dictionaries: gold of source row r (synth id src_ids[r]) is target src_ids[r]
    perm = _rng(seed, _STREAM_SPLIT).permutation(spec.n_src)
    train_rows = np.sort(perm[:spec.n_train])
    test_rows = np.sort(perm[spec.n_train:spec.n_train + spec.n_test])
    align_rows = np.sort(perm[spec.n_train + spec.n_test:][:spec.n_align]) if spec.n_align else train_rows
    second: dict[int, int] = {}
    if spec.second_target > 0:
        # a second gold target: the nearest other target of the first one
        dict_rows = np.concatenate([train_rows, test_rows])
        pick = _rng(seed, _STREAM_SECOND).random(dict_rows.size) < spec.second_target
        chosen = np.sort(dict_rows[pick])
        gold = src_ids[chosen]
        sims = Y[gold] @ Y.T
        sims[np.arange(gold.size), gold] = -np.inf
        second = {int(r): int(t) for r, t in zip(chosen, sims.argmax(axis=1))}

    def gold_of(r: int) -> tuple[int, ...]:
        first = int(src_ids[r])
        return tuple(sorted({first, second.get(r, first)}))

    def pairs(rows) -> list[tuple[str, str]]:
        return [(src_words[r], tgt_words[t]) for r in rows for t in gold_of(int(r))]

    _write_pairs(out / "dict.train.tsv", pairs(train_rows))
    _write_pairs(out / "dict.test.tsv", pairs(test_rows))
    _write_pairs(out / "dict.full.tsv", pairs(np.sort(np.concatenate([train_rows, test_rows]))))
    src_set = set(src_words)
    _write_table(out / "freq.src.tsv", {w: c for w, c in world.counts_src.items() if w in src_set})
    _write_table(out / "freq.tgt.tsv", world.counts_tgt)
    _write_table(out / "pos.src.tsv", {w: t for w, t in world.tags_src.items() if w in src_set})
    _write_table(out / "pos.tgt.tsv", world.tags_tgt)

    manifest: dict = {
        "generator_version": GENERATOR_VERSION,
        "spec": spec.__dict__,
        "seed": seed,
        "n_train": int(train_rows.size),
        "n_test": int(test_rows.size),
        "n_second_targets": len(second),
        "gold": {src_words[int(r)]: [tgt_words[t] for t in gold_of(int(r))] for r in test_rows},
    }
    if spec.candidates != "none" or spec.oracle_rows:
        # CSLS means of the targets over the whole aligned source space
        W = _procrustes(X, Y, [(int(r), t) for r in align_rows for t in gold_of(int(r))])
        Xa = X @ W
        r_tgt = _topk_mean(Y, Xa, min(K_CSLS, Xa.shape[0]))
        if spec.candidates != "none":
            rows = np.arange(spec.n_src) if spec.candidates == "all" else np.sort(np.concatenate([train_rows, test_rows]))
            ids, vals = csls_topk(Xa, Y, rows, r_tgt, TOP_K)
            with open(out / "candidates.tsv", "w", encoding="utf-8") as fh:
                for i, r in enumerate(rows):
                    sw = src_words[r]
                    fh.writelines(f"{sw}\t{tgt_words[c]}\t{v:.6f}\n" for c, v in zip(ids[i], vals[i]))
        if spec.oracle_rows:
            rows = np.sort(_rng(seed, _STREAM_ORACLE).choice(spec.n_src, size=spec.oracle_rows, replace=False))
            ids, vals = csls_topk(Xa, Y, rows, r_tgt, TOP_K)
            manifest["oracle"] = {
                src_words[r]: {"ids": [tgt_words[c] for c in ids[i]], "scores": vals[i].tolist()}
                for i, r in enumerate(rows)
            }
    manifest["digests"] = {p.name: _sha256(p) for p in sorted(out.iterdir()) if p.is_file()}
    return manifest


def prepare(cache_root: Path, workload: str, spec: WorldSpec, seed: int) -> tuple[Path, dict, float, bool]:
    """Return (input dir, manifest, generation seconds, cache hit).

    Each (workload, spec, seed) world is built once into a temporary
    directory and renamed into place; older worlds of the workload are
    evicted so the cache holds at most CACHE_KEEP_PER_WORKLOAD of them.
    """
    shape = json.dumps([GENERATOR_VERSION, spec.__dict__], sort_keys=True)
    key = f"{workload}-{hashlib.sha256(shape.encode()).hexdigest()[:12]}-s{seed}"
    final = cache_root / key
    manifest_path = final / "manifest.json"
    if manifest_path.is_file():
        os.utime(final)
        return final, json.loads(manifest_path.read_text()), 0.0, True
    cache_root.mkdir(parents=True, exist_ok=True)
    tmp = cache_root / f".tmp-{key}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    t0 = time.monotonic()
    try:
        manifest = generate(spec, seed, tmp)
        (tmp / "manifest.json").write_text(json.dumps(manifest, sort_keys=True))
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    elapsed = time.monotonic() - t0
    siblings = sorted(
        (p for p in cache_root.glob(f"{workload}-*") if p.is_dir() and p != final),
        key=lambda p: p.stat().st_mtime,
    )
    for old in siblings[: max(0, len(siblings) - (CACHE_KEEP_PER_WORKLOAD - 1))]:
        shutil.rmtree(old, ignore_errors=True)
    return final, manifest, elapsed, False
