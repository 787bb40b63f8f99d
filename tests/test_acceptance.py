"""Acceptance criteria for the whole toolkit.

Each test prints one `[criterion NN] PASS/FAIL` line (run with -s to see
them live). Expensive synthetic-world loops are shared through module
fixtures. Criterion 10 requires 8 hardware threads and is skipped, with its
workload reported, on smaller machines.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from bilex.cli import main as cli_main
from bilex.evaluation import freq_diff_report, precision_at_1, spearman
from bilex.features import N_FEATURES, FeatureSchema, build_groups
from bilex.ltr import (
    GbdtParams,
    compute_lambdas,
    delta_ap,
    load_model,
    mean_ap,
    predict,
    predict_groups,
    save_model,
    train,
)
from bilex.retrieval import (
    SimilarityParams,
    align_procrustes,
    apply_alignment,
    hubness_skew,
    retrieve_topk,
)
from bilex.synth import SynthConfig, gen_bilingual_world, split_gold
from conftest import grid, unit_space


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"criterion {number} failed: {name} {detail}"


# ------------------------------------------------------------ criterion 1

def test_criterion_01_csls_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        k_csls = (1, 5, 10)[trial % 3]
        src = unit_space(rng.standard_normal((200, 32)))
        tgt = unit_space(rng.standard_normal((300, 32)))
        top_k = 20
        cands, means = retrieve_topk(src, tgt, SimilarityParams(k_csls=k_csls, top_k=top_k))

        sims = src.matrix @ tgt.matrix.T
        r_src = np.sort(sims, axis=1)[:, -k_csls:].mean(axis=1)
        r_tgt = np.sort(sims.T, axis=1)[:, -k_csls:].mean(axis=1)
        for i in range(200):
            row = 2.0 * (tgt.matrix @ src.matrix[i]) - r_src[i] - r_tgt
            want = np.lexsort((np.arange(300), -row))[:top_k]  # ties to the lower id
            assert cands.cand_ids[i].tolist() == want.tolist(), f"instance {trial} row {i}"
            worst = max(worst, float(np.abs(cands.scores[i] - row[want]).max()))
    elapsed = time.perf_counter() - t0
    report(
        1, "CSLS oracle equivalence", worst < 1e-6 and elapsed < 5.0,
        f"20 instances, max |err|={worst:.2e}, {elapsed:.1f}s (budget 5s)",
    )


# ------------------------------------------------------------ criterion 2

def test_criterion_02_hubness_reduction():
    t0 = time.perf_counter()
    skew_wins = 0
    p1_wins = 0
    for seed in range(10):
        world = gen_bilingual_world(SynthConfig(
            vocab_n=2000, dim=64, noise_sigma=0.25, hub_count=20, mean_offset=1.0, seed=seed,
        ))
        src = apply_alignment(world.src, world.rotation)
        stats = {}
        for metric in ("cosine", "csls"):
            # column 0 of a top-10 list is the top-1 retrieval
            cands, _ = retrieve_topk(src, world.tgt, SimilarityParams(k_csls=10, top_k=10), metric=metric)
            p1 = float((cands.cand_ids[:, 0] == np.arange(2000)).mean())
            stats[metric] = (hubness_skew(cands, 10, len(world.tgt)), p1)
        skew_wins += stats["csls"][0] < stats["cosine"][0]
        p1_wins += stats["csls"][1] >= stats["cosine"][1]
    elapsed = time.perf_counter() - t0
    report(
        2, "hubness reduction under CSLS", skew_wins >= 9 and p1_wins >= 9 and elapsed < 60.0,
        f"skew wins {skew_wins}/10, P@1 wins {p1_wins}/10, {elapsed:.1f}s (budget 60s)",
    )


# ------------------------------------------------------------ criterion 3

def ap_of(labels_ranked) -> float:
    hits = 0
    total = 0.0
    for k, y in enumerate(labels_ranked, start=1):
        if y:
            hits += 1
            total += hits / k
    return total / hits if hits else 0.0


def test_criterion_03_delta_ap_exactness():
    rng = np.random.default_rng(303)
    worst_delta = 0.0
    worst_sum = 0.0
    for n in range(2, 9):
        for pattern in itertools.product((0, 1), repeat=n):
            labels = list(pattern)
            for _ in range(30):
                scores = rng.standard_normal(n)
                ranking = np.argsort(-scores, kind="stable").tolist()
                ranked = [labels[c] for c in ranking]
                for i, j in itertools.combinations(range(n), 2):
                    got = delta_ap(labels, ranking, i, j)
                    swapped = ranked.copy()
                    swapped[i], swapped[j] = swapped[j], swapped[i]
                    want = ap_of(swapped) - ap_of(ranked)
                    worst_delta = max(worst_delta, abs(got - want))
                g, _ = compute_lambdas(scores, np.array(labels, dtype=np.int8))
                worst_sum = max(worst_sum, abs(float(g.sum())))
    report(
        3, "delta-AP matches full recomputation", worst_delta < 1e-12 and worst_sum < 1e-12,
        f"max |delta err|={worst_delta:.2e}, max |sum g|={worst_sum:.2e}",
    )


# ------------------------------------------------------------ criterion 4

def separable_groups(rng, n_groups, group_size=50):
    """Feature 0 equals the label, feature 3 is noise."""
    labels = np.zeros((n_groups, group_size), dtype=np.int8)
    features = np.zeros((n_groups * group_size, N_FEATURES))
    for s in range(n_groups):
        labels[s, rng.integers(0, group_size)] = 1
        features[s * group_size:(s + 1) * group_size, 3] = rng.standard_normal(group_size)
    features[:, 0] = labels.ravel()
    return grid(labels, features)


def test_criterion_04_ranker_learnability():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    train_groups = separable_groups(rng, 500)
    held_groups = separable_groups(rng, 100)
    model, trace = train(train_groups, GbdtParams(n_trees=200, max_depth=3, learning_rate=0.1))
    train_map = trace[-1][1]
    held_map = mean_ap(held_groups, predict_groups(model, held_groups))
    elapsed = time.perf_counter() - t0
    report(
        4, "ranker learnability with stock hyperparameters",
        train_map >= 0.99 and held_map >= 0.95 and elapsed < 120.0,
        f"train MAP={train_map:.4f}, held-out MAP={held_map:.4f}, {elapsed:.1f}s (budget 120s)",
    )


# ------------------------------------------------- criteria 5 + 7 fixture

LEXICAL_SEEDS = 10


@pytest.fixture(scope="module")
def lexical_runs():
    """Ten synthetic worlds where lexical cues carry signal beyond CSLS."""
    runs = []
    for seed in range(LEXICAL_SEEDS):
        world = gen_bilingual_world(SynthConfig(
            vocab_n=400, dim=32, noise_sigma=0.28,
            pos_match_prob=0.9, rank_jitter=0.1, seed=seed,
        ))
        train_dict, test_dict = split_gold(world, 0.3)
        W = align_procrustes(world.src, world.tgt, train_dict)
        src = apply_alignment(world.src, W)
        cands, _ = retrieve_topk(src, world.tgt, SimilarityParams(k_csls=10, top_k=50))
        common = dict(
            freq_src=world.freq_src, freq_tgt=world.freq_tgt,
            pos_src=world.pos_src, pos_tgt=world.pos_tgt,
            src_vocab=world.src.vocab, tgt_vocab=world.tgt.vocab,
        )
        run = {}
        test_groups = build_groups(test_dict.sources(), cands, dic=test_dict, **common)
        csls_scores = test_groups.csls
        run["p_csls"] = precision_at_1(test_groups, csls_scores)
        fd0 = freq_diff_report(test_groups, csls_scores, test_dict, world.freq_src, world.freq_tgt)
        run["zipf_csls"] = fd0.predicted_zipf
        run["zipf_gold"] = fd0.gold_zipf
        params = GbdtParams(n_trees=200, max_depth=3, learning_rate=0.1)
        for tag, schema in (("full", FeatureSchema()), ("ablated", FeatureSchema(disabled=("pos", "freq")))):
            gtrain = build_groups(train_dict.sources(), cands, dic=train_dict, schema=schema, **common)
            gtest = build_groups(test_dict.sources(), cands, dic=test_dict, schema=schema, **common)
            model, _ = train(gtrain, params, schema)
            scores = predict_groups(model, gtest)
            run[f"p_{tag}"] = precision_at_1(gtest, scores)
            if tag == "full":
                fd = freq_diff_report(gtest, scores, test_dict, world.freq_src, world.freq_tgt)
                run["zipf_full"] = fd.predicted_zipf
        runs.append(run)
    return runs


def test_criterion_05_lexical_features_help(lexical_runs):
    wins = 0
    for run in lexical_runs:
        in_window = 0.4 <= run["p_csls"] <= 0.7
        wins += in_window and (run["p_full"] - run["p_csls"] >= 0.05)
    mean_full = float(np.mean([r["p_full"] - r["p_csls"] for r in lexical_runs]))
    mean_ablated = float(np.mean([r["p_ablated"] - r["p_csls"] for r in lexical_runs]))
    ordered = mean_ablated < mean_full
    report(
        5, "lexical features lift P@1 over CSLS",
        wins >= 9 and ordered,
        f"window+5pt wins {wins}/{LEXICAL_SEEDS}, mean gain full={mean_full * 100:.1f}pts "
        f"vs ablated={mean_ablated * 100:.1f}pts",
    )


def test_criterion_07_frequency_difference_direction(lexical_runs):
    wins = 0
    for run in lexical_runs:
        wins += (run["zipf_full"] <= run["zipf_csls"]) and (abs(run["zipf_full"] - run["zipf_gold"]) <= 0.5)
    report(
        7, "ranker predictions align frequencies",
        wins >= 8,
        f"wins {wins}/{LEXICAL_SEEDS}",
    )


# ------------------------------------------------------------ criterion 6

def test_criterion_06_procrustes_recovery():
    world = gen_bilingual_world(SynthConfig(
        vocab_n=2000, dim=64, noise_sigma=0.0, hub_count=0, mean_offset=1.0, seed=606,
    ))
    W = align_procrustes(world.src, world.tgt, world.gold)
    err = float(np.abs(W - world.rotation).max())
    src = apply_alignment(world.src, W)
    cands, _ = retrieve_topk(src, world.tgt, SimilarityParams(k_csls=1, top_k=1), metric="cosine")
    p1 = float((cands.cand_ids[:, 0] == np.arange(2000)).mean())
    report(
        6, "exact rotation recovery", err < 1e-5 and p1 == 1.0,
        f"max |W - Q|={err:.2e}, cosine P@1={p1:.3f}",
    )


# ------------------------------------------------------------ criterion 8

def pure_python_spearman(x, y):
    """Independent midrank-Pearson oracle."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(vals):
            j = i
            while j + 1 < len(vals) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2 + 1
            i = j + 1
        return out

    rx, ry = ranks(list(x)), ranks(list(y))
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = sum((a - mx) ** 2 for a in rx)
    dy = sum((b - my) ** 2 for b in ry)
    if dx == 0 or dy == 0:
        return float("nan")
    return num / (dx * dy) ** 0.5


def test_criterion_08_spearman_oracle():
    rng = np.random.default_rng(808)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(3, 40))
        if trial % 2:  # force ties half the time
            x = rng.integers(0, 6, n).astype(float)
            y = rng.integers(0, 6, n).astype(float)
        else:
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
        got = spearman(x, y)
        want = pure_python_spearman(x, y)
        if np.isnan(want):
            assert np.isnan(got)
            continue
        worst = max(worst, abs(got - want))
    exact = spearman([1, 2, 3, 4], [1, 3, 2, 4])
    report(
        8, "Spearman matches midrank-Pearson oracle",
        worst < 1e-9 and abs(exact - 0.8) < 1e-12,
        f"max |err|={worst:.2e} over 100 instances, worked value={exact}",
    )


# ------------------------------------------------------------ criterion 9

def run_cli(*argv):
    rc = cli_main([str(a) for a in argv])
    assert rc == 0, f"command failed: {argv}"


def run_pipeline(base: Path, threads: int):
    world, ret, model, ev = base / "world", base / "ret", base / "model", base / "eval"
    run_cli("synth", "--out-dir", world, "--n", 300, "--dim", 24,
            "--noise-sigma", "0.25", "--seed", 99)
    run_cli("retrieve", "--out-dir", ret,
            "--src-emb", world / "embeddings.src.vec",
            "--tgt-emb", world / "embeddings.tgt.vec",
            "--seed-dict", world / "dict.train.tsv",
            "--top-k", 20, "--threads", threads)
    run_cli("train", "--out-dir", model,
            "--src-emb", world / "embeddings.src.vec",
            "--tgt-emb", world / "embeddings.tgt.vec",
            "--candidates", ret / "candidates.tsv",
            "--dict-train", world / "dict.train.tsv",
            "--freq-src", world / "freq.src.tsv", "--freq-tgt", world / "freq.tgt.tsv",
            "--pos-src", world / "pos.src.tsv", "--pos-tgt", world / "pos.tgt.tsv",
            "--n-trees", 30, "--threads", threads)
    run_cli("eval", "--out-dir", ev,
            "--src-emb", world / "embeddings.src.vec",
            "--tgt-emb", world / "embeddings.tgt.vec",
            "--model", model / "model.json",
            "--candidates", ret / "candidates.tsv",
            "--dict-test", world / "dict.test.tsv",
            "--freq-src", world / "freq.src.tsv", "--freq-tgt", world / "freq.tgt.tsv",
            "--pos-src", world / "pos.src.tsv", "--pos-tgt", world / "pos.tgt.tsv")


def tree_bytes(base: Path) -> dict[str, bytes]:
    out = {}
    for path in sorted(base.rglob("*")):
        if path.is_file() and path.name != "run.log":
            out[str(path.relative_to(base))] = path.read_bytes()
    return out


def test_criterion_09_determinism_and_persistence(tmp_path):
    run_pipeline(tmp_path / "a", threads=1)
    run_pipeline(tmp_path / "b", threads=1)
    run_pipeline(tmp_path / "c", threads=8)
    a, b, c = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b"), tree_bytes(tmp_path / "c")
    repeat_ok = a == b
    threads_ok = a == c

    rng = np.random.default_rng(909)
    groups = separable_groups(rng, 30, group_size=20)
    model, _ = train(groups, GbdtParams(n_trees=200))
    save_model(model, tmp_path / "model.json")
    back = load_model(tmp_path / "model.json")
    X = rng.standard_normal((1000, N_FEATURES))
    roundtrip_ok = bool((predict(model, X) == predict(back, X)).all())

    report(
        9, "pipeline determinism and persistence",
        repeat_ok and threads_ok and roundtrip_ok,
        f"repeat={repeat_ok}, threads 1==8: {threads_ok}, save/load bitwise={roundtrip_ok}",
    )


# ------------------------------------------------------------ criterion 10

PERF_CPUS = 8


@pytest.mark.skipif(
    (os.cpu_count() or 1) < PERF_CPUS and not os.environ.get("BILEX_FORCE_PERF"),
    reason=f"performance floor is stated for {PERF_CPUS} worker threads; "
           f"this machine has {os.cpu_count()} CPU(s). Set BILEX_FORCE_PERF=1 to run anyway.",
)
def test_criterion_10_retrieval_performance_floor():
    rng = np.random.default_rng(1010)
    src = unit_space(rng.standard_normal((5000, 300)))
    tgt = unit_space(rng.standard_normal((200000, 300)))
    t0 = time.perf_counter()
    cands, _ = retrieve_topk(src, tgt, SimilarityParams(k_csls=10, top_k=50), n_threads=PERF_CPUS)
    elapsed = time.perf_counter() - t0
    shape_ok = cands.cand_ids.shape == (5000, 50)
    report(
        10, "exact CSLS retrieval 5k x 200k < 30s",
        shape_ok and elapsed < 30.0,
        f"{elapsed:.1f}s on {os.cpu_count()} CPUs (budget 30s)",
    )
