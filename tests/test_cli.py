import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import bilex
from bilex import corpus, retrieval
from bilex.cli import (
    COMMANDS,
    _aligned_source,
    _as_bool,
    _extend_candidates,
    _rss_mb,
    _RunLog,
    build_parser,
    main,
    resolve_options,
)


def run(*argv):
    return main([str(a) for a in argv])


def kv(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition("\t")
        out[key] = value
    return out


HAS_PROC = Path("/proc/self/status").is_file()
# the fields every stage line starts with; rss_mb is read from /proc
TIMING = {"wall_s", "cpu_s", "peak_rss_mb"} | ({"rss_mb"} if HAS_PROC else set())


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    rc = run(
        "synth", "--out-dir", out, "--n", 150, "--dim", 16,
        "--noise-sigma", "0.22", "--seed", 9, "--test-fraction", "0.3",
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def retrieved_dir(world_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("retrieved")
    rc = run(
        "retrieve", "--out-dir", out,
        "--src-emb", world_dir / "embeddings.src.vec",
        "--tgt-emb", world_dir / "embeddings.tgt.vec",
        "--seed-dict", world_dir / "dict.train.tsv",
        "--top-k", 10, "--k-csls", 5,
    )
    assert rc == 0
    return out


def train_args(world_dir, retrieved_dir, out, *extra):
    return [
        "train", "--out-dir", out,
        "--src-emb", world_dir / "embeddings.src.vec",
        "--tgt-emb", world_dir / "embeddings.tgt.vec",
        "--candidates", retrieved_dir / "candidates.tsv",
        "--dict-train", world_dir / "dict.train.tsv",
        "--freq-src", world_dir / "freq.src.tsv",
        "--freq-tgt", world_dir / "freq.tgt.tsv",
        "--pos-src", world_dir / "pos.src.tsv",
        "--pos-tgt", world_dir / "pos.tgt.tsv",
        "--n-trees", 6, "--max-depth", 2, "--k-csls", 5,
        *extra,
    ]


@pytest.fixture(scope="module")
def model_dir(world_dir, retrieved_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    assert run(*train_args(world_dir, retrieved_dir, out)) == 0
    return out


def eval_args(world_dir, retrieved_dir, model_dir, out, *extra):
    return [
        "eval", "--out-dir", out,
        "--src-emb", world_dir / "embeddings.src.vec",
        "--tgt-emb", world_dir / "embeddings.tgt.vec",
        "--model", model_dir / "model.json",
        "--candidates", retrieved_dir / "candidates.tsv",
        "--dict-test", world_dir / "dict.test.tsv",
        "--freq-src", world_dir / "freq.src.tsv",
        "--freq-tgt", world_dir / "freq.tgt.tsv",
        "--pos-src", world_dir / "pos.src.tsv",
        "--pos-tgt", world_dir / "pos.tgt.tsv",
        *extra,
    ]


class TestSynth:
    def test_writes_all_artifacts(self, world_dir):
        names = {p.name for p in world_dir.iterdir()}
        assert {
            "embeddings.src.vec", "embeddings.tgt.vec", "dict.full.tsv",
            "dict.train.tsv", "dict.test.tsv", "freq.src.tsv", "freq.tgt.tsv",
            "pos.src.tsv", "pos.tgt.tsv", "world.meta", "run.log",
        } <= names

    def test_validation_exit_code(self, tmp_path, capsys):
        assert run("synth", "--out-dir", tmp_path, "--n", 1) == 2
        assert "vocab_n" in capsys.readouterr().err

    def test_world_meta_records_mean_offset(self, world_dir, tmp_path):
        assert kv(world_dir / "world.meta")["mean_offset"] == "0.0"
        assert run("synth", "--out-dir", tmp_path, "--n", 40, "--dim", 8, "--mean-offset", "0.75") == 0
        assert kv(tmp_path / "world.meta")["mean_offset"] == "0.75"


class TestRetrieve:
    def test_candidate_rows_per_source(self, world_dir, retrieved_dir):
        lines = (retrieved_dir / "candidates.tsv").read_text().splitlines()
        assert len(lines) == 150 * 10
        report = kv(retrieved_dir / "retrieval_report.txt")
        assert report["n_src"] == "150"
        assert report["top_k"] == "10"
        assert "gold_missed_rate" in report

    def test_missing_embedding_path_exit_2_names_field(self, tmp_path, capsys):
        rc = run(
            "retrieve", "--out-dir", tmp_path,
            "--src-emb", tmp_path / "nope.vec",
            "--tgt-emb", tmp_path / "nope2.vec",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "--src-emb" in err and "--tgt-emb" in err

    def test_optional_input_must_be_a_file(self, world_dir, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run(
            "retrieve", "--out-dir", out,
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--seed-dict", tmp_path,
        )
        assert rc == 2
        assert f"--seed-dict: no such file: {tmp_path}" in capsys.readouterr().err
        assert not out.exists()

    def test_all_errors_reported_at_once(self, tmp_path, capsys):
        rc = run("retrieve", "--out-dir", tmp_path, "--metric", "csls", "--k-csls", 0)
        assert rc == 2
        err = capsys.readouterr().err
        assert "--src-emb" in err and "--k-csls" in err

    def test_source_words_scope(self, world_dir, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("s00001\ns00005\ns00009\n")
        assert run(
            "retrieve", "--out-dir", tmp_path,
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--source-words", words, "--top-k", 4, "--k-csls", 3,
        ) == 0
        lines = (tmp_path / "candidates.tsv").read_text().splitlines()
        assert len(lines) == 3 * 4
        assert {l.split("\t")[0] for l in lines} == {"s00001", "s00005", "s00009"}
        assert kv(tmp_path / "retrieval_report.txt")["n_src"] == "3"

    def test_repeated_source_word_exit_3(self, world_dir, tmp_path, capsys):
        words = tmp_path / "words.txt"
        words.write_text("s00001\ns00005\ns00001\n")
        assert run(
            "retrieve", "--out-dir", tmp_path / "out",
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--source-words", words,
        ) == 3
        assert f"{words}: line 3: repeated word 's00001'" in capsys.readouterr().err

    def test_threads_leave_candidates_byte_identical(self, tmp_path, monkeypatch):
        # 400 targets >= 16 * top_k, so both top-k selections go through the
        # chunk screen; 32-row blocks give every worker several blocks
        world = tmp_path / "world"
        assert run("synth", "--out-dir", world, "--n", 400, "--dim", 16, "--noise-sigma", "0.2", "--seed", 4) == 0
        monkeypatch.setattr(retrieval, "BLOCK_CELLS", 32 * 400)
        for threads in (1, 3):
            assert run(
                "retrieve", "--out-dir", tmp_path / f"t{threads}",
                "--src-emb", world / "embeddings.src.vec",
                "--tgt-emb", world / "embeddings.tgt.vec",
                "--seed-dict", world / "dict.train.tsv",
                "--top-k", 10, "--k-csls", 5, "--threads", threads,
            ) == 0
        assert (tmp_path / "t1" / "candidates.tsv").read_bytes() == (tmp_path / "t3" / "candidates.tsv").read_bytes()

    def test_csls_gold_missed_not_worse_than_cosine(self, tmp_path_factory):
        world = tmp_path_factory.mktemp("hubworld")
        assert run(
            "synth", "--out-dir", world, "--n", 800, "--dim", 48,
            "--noise-sigma", "0.25", "--hub-count", 12, "--mean-offset", "1.0",
            "--seed", 11,
        ) == 0
        rates = {}
        for metric in ("cosine", "csls"):
            out = tmp_path_factory.mktemp(f"ret_{metric}")
            assert run(
                "retrieve", "--out-dir", out,
                "--src-emb", world / "embeddings.src.vec",
                "--tgt-emb", world / "embeddings.tgt.vec",
                "--seed-dict", world / "dict.full.tsv",
                "--metric", metric, "--top-k", 10,
            ) == 0
            rates[metric] = float(kv(out / "retrieval_report.txt")["gold_missed_rate"])
        assert rates["csls"] <= rates["cosine"]


class TestMine:
    def test_default_twenty_negatives(self, world_dir, tmp_path_factory):
        # top_k=50 so that 20 non-gold candidates exist
        ret = tmp_path_factory.mktemp("ret50")
        assert run(
            "retrieve", "--out-dir", ret,
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--seed-dict", world_dir / "dict.train.tsv",
            "--top-k", 50,
        ) == 0
        out = tmp_path_factory.mktemp("mine")
        assert run(
            "mine", "--out-dir", out,
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--candidates", ret / "candidates.tsv",
            "--dict", world_dir / "dict.train.tsv",
        ) == 0
        rows = [l.split("\t") for l in (out / "hard_negatives.tsv").read_text().splitlines()]
        by_src = {}
        for s, t, lab in rows:
            by_src.setdefault(s, []).append((t, lab))
        gold = {}
        for line in (world_dir / "dict.train.tsv").read_text().splitlines():
            s, t = line.split("\t")
            gold.setdefault(s, set()).add(t)
        for s, items in by_src.items():
            negs = [t for t, lab in items if lab == "0"]
            pos = [t for t, lab in items if lab == "1"]
            assert len(negs) == 20 * len(pos)
            assert set(pos) == gold[s]
            assert not (set(negs) & gold[s])

    def test_n_neg_flag(self, world_dir, retrieved_dir, tmp_path):
        assert run(
            "mine", "--out-dir", tmp_path,
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--candidates", retrieved_dir / "candidates.tsv",
            "--dict", world_dir / "dict.train.tsv",
            "--n-neg", 5,
        ) == 0
        rows = [l.split("\t") for l in (tmp_path / "hard_negatives.tsv").read_text().splitlines()]
        negs = [r for r in rows if r[2] == "0"]
        pos = [r for r in rows if r[2] == "1"]
        assert len(negs) == 5 * len(pos)

    def test_mine_repeated_candidate_exit_3(self, world_dir, retrieved_dir, tmp_path, capsys):
        lines = (retrieved_dir / "candidates.tsv").read_text().splitlines()
        src, cand, _ = lines[0].split("\t")
        lines[1] = f"{src}\t{cand}\t0.000001"  # the first list names its top candidate twice
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(
            "mine", "--out-dir", out,
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--candidates", bad,
            "--dict", world_dir / "dict.train.tsv",
        ) == 3
        assert f"{bad}: line 2: candidate {cand!r} repeated for {src!r}" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["run.log"]


class TestTrain:
    def test_happy_path_writes_model_and_trace(self, model_dir):
        doc = json.loads((model_dir / "model.json").read_text())
        assert doc["format"] == "bilex-gbdt"
        assert len(doc["trees"]) == 6
        trace = (model_dir / "train_trace.tsv").read_text().splitlines()
        assert trace[0] == "round\ttrain_map"
        assert len(trace) == 7

    def test_semi_with_zero_aug_equals_supervised(self, world_dir, retrieved_dir, model_dir, tmp_path):
        assert run(*train_args(world_dir, retrieved_dir, tmp_path, "--mode", "semi", "--n-aug", 0)) == 0
        assert (tmp_path / "model.json").read_bytes() == (model_dir / "model.json").read_bytes()

    def test_semi_mode_augments(self, world_dir, retrieved_dir, tmp_path):
        assert run(*train_args(world_dir, retrieved_dir, tmp_path, "--mode", "semi", "--n-aug", 15)) == 0
        doc = json.loads((tmp_path / "model.json").read_text())
        assert len(doc["trees"]) == 6

    @pytest.mark.parametrize("flag, value", [("--k-csls", 151)])
    def test_semi_similarity_params_beyond_the_targets_exit_3(self, world_dir, retrieved_dir, tmp_path, capsys, flag, value):
        # 150 target words; --k-csls is checked before the first similarity pass
        args = train_args(world_dir, retrieved_dir, tmp_path, "--mode", "semi", "--n-aug", 15, flag, value)
        with mock.patch.object(retrieval, "retrieve_topk", side_effect=AssertionError("a pass ran")):
            assert run(*args) == 3
        assert f"{flag[2:].replace('-', '_')} must be in [1, 150], got {value}" in capsys.readouterr().err
        assert kv(tmp_path / "run.log")["exit_code"] == "3"

    def test_semi_extends_at_the_file_width(self, world_dir, retrieved_dir, tmp_path):
        full = candidate_rows(retrieved_dir / "candidates.tsv")
        lines = (retrieved_dir / "candidates.tsv").read_text().splitlines()
        partial = tmp_path / "partial.tsv"
        partial.write_text("\n".join(lines[: 60 * 10]) + "\n")  # the first 60 sources, 10 candidates each
        args = train_args(world_dir, retrieved_dir, tmp_path / "out", "--mode", "semi", "--n-aug", 15, "--dump-features")
        args[args.index("--candidates") + 1] = partial
        assert run(*args) == 0
        augment = stage_fields(kv(tmp_path / "out" / "run.log"), "augment")
        assert augment["candidate_width"] == "10" and int(augment["retrieved_sources"]) > 0
        listed = {}
        for row in (tmp_path / "out" / "features.tsv").read_text().splitlines()[1:]:
            src, cand = row.split("\t")[:2]
            listed.setdefault(src, []).append(cand)
        in_file = candidate_rows(partial)
        appended = [src for src in listed if src not in in_file]
        assert len(appended) == int(augment["retrieved_sources"])
        for src in appended:
            assert listed[src] == [c for c, _ in full[src]]

    def test_top_k_is_not_a_train_flag(self, world_dir, retrieved_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            run(*train_args(world_dir, retrieved_dir, tmp_path / "out", "--top-k", 10))
        assert exited.value.code == 2
        assert "unrecognized arguments: --top-k" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_candidate_file_exit_3(self, world_dir, retrieved_dir, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# no rows\n")
        args = train_args(world_dir, retrieved_dir, tmp_path / "out", "--mode", "semi", "--n-aug", 15)
        args[args.index("--candidates") + 1] = empty
        with mock.patch.object(retrieval, "retrieve_topk", side_effect=AssertionError("a pass ran")):
            assert run(*args) == 3
        assert f"{empty}: no candidate rows" in capsys.readouterr().err
        log = kv(tmp_path / "out" / "run.log")
        assert log["exit_code"] == "3" and "stage.load" not in log
        assert not (tmp_path / "out" / "model.json").exists()

    def test_ablation_flags_recorded_and_masked(self, world_dir, retrieved_dir, tmp_path):
        assert run(
            *train_args(world_dir, retrieved_dir, tmp_path, "--no-pos", "--no-freq", "--dump-features")
        ) == 0
        doc = json.loads((tmp_path / "model.json").read_text())
        assert sorted(doc["schema"]["disabled"]) == ["freq", "pos"]
        assert len(doc["schema"]["names"]) == 46
        header, *rows = (tmp_path / "features.tsv").read_text().splitlines()
        cols = header.split("\t")
        zipf_idx = cols.index("zipf_src")
        pos_idx = cols.index("pos_match")
        for row in rows[:50]:
            cells = row.split("\t")
            assert float(cells[zipf_idx]) == 0.0
            assert float(cells[pos_idx]) == 0.0

    def test_mix_search_records_recommendation(self, world_dir, retrieved_dir, tmp_path):
        assert run(*train_args(world_dir, retrieved_dir, tmp_path, "--mix-search")) == 0
        doc = json.loads((tmp_path / "model.json").read_text())
        assert 0.1 <= doc["meta"]["recommended_mix"] <= 0.9

    def test_bad_n_trees_exit_2(self, world_dir, retrieved_dir, tmp_path, capsys):
        rc = run(*train_args(world_dir, retrieved_dir, tmp_path, "--n-trees", 0))
        assert rc == 2
        assert "n_trees" in capsys.readouterr().err

    def test_malformed_data_exit_3(self, world_dir, retrieved_dir, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only one field\n")
        args = train_args(world_dir, retrieved_dir, tmp_path)
        idx = args.index("--dict-train")
        args[idx + 1] = bad
        assert run(*args) == 3


class TestEval:
    def test_report_contents(self, world_dir, retrieved_dir, model_dir, tmp_path):
        assert run(*eval_args(world_dir, retrieved_dir, model_dir, tmp_path)) == 0
        report = kv(tmp_path / "eval_report.txt")
        assert report["n_eval"] == "45"
        p100 = report["p_at_1_x100"]
        assert len(p100.split(".")[1]) == 2
        assert abs(float(report["p_at_1"]) * 100 - float(p100)) < 0.01
        per_pos = (tmp_path / "per_pos.tsv").read_text().splitlines()
        total = sum(int(l.split("\t")[1]) for l in per_pos[1:])
        assert total == 45
        explanations = (tmp_path / "explanations.tsv").read_text().splitlines()
        assert len(explanations) == 46  # header + one row per group

    def test_mix_zero_reproduces_retriever_ordering(self, world_dir, retrieved_dir, model_dir, tmp_path):
        assert run(*eval_args(world_dir, retrieved_dir, model_dir, tmp_path, "--mix", 0)) == 0
        report = kv(tmp_path / "eval_report.txt")
        # retriever-only P@1 from the candidate file: first candidate per source
        top1 = {}
        for line in (retrieved_dir / "candidates.tsv").read_text().splitlines():
            s, t, _ = line.split("\t")
            top1.setdefault(s, t)
        gold = {}
        for line in (world_dir / "dict.test.tsv").read_text().splitlines():
            s, t = line.split("\t")
            gold.setdefault(s, set()).add(t)
        hits = sum(top1[s] in ts for s, ts in gold.items())
        # the report rounds to six decimals
        assert float(report["p_at_1"]) == pytest.approx(hits / len(gold), abs=1e-6)

    def test_perfect_world_reports_p1_of_one(self, tmp_path):
        # noise-free rotated world: the gold candidate is an exact match,
        # so the trained ranker has a fully separable signal
        world, ret, model, ev = tmp_path / "w", tmp_path / "r", tmp_path / "m", tmp_path / "e"
        assert run("synth", "--out-dir", world, "--n", 120, "--dim", 16,
                   "--noise-sigma", "0", "--seed", 5) == 0
        assert run("retrieve", "--out-dir", ret,
                   "--src-emb", world / "embeddings.src.vec",
                   "--tgt-emb", world / "embeddings.tgt.vec",
                   "--seed-dict", world / "dict.train.tsv", "--top-k", 10, "--k-csls", 5) == 0
        assert run(*train_args(world, ret, model, "--n-trees", 30)) == 0
        assert run(*eval_args(world, ret, model, ev)) == 0
        assert kv(ev / "eval_report.txt")["p_at_1"] == "1.000000"

    def test_bare_mix_flag_defaults_to_half(self, world_dir, retrieved_dir, model_dir, tmp_path):
        assert run(*eval_args(world_dir, retrieved_dir, model_dir, tmp_path, "--mix")) == 0
        assert kv(tmp_path / "eval_report.txt")["mix"] == "0.5"

    def test_schema_mismatch_exit_3(self, world_dir, retrieved_dir, model_dir, tmp_path, capsys):
        tampered = tmp_path / "tampered.json"
        doc = json.loads((model_dir / "model.json").read_text())
        doc["schema"]["fingerprint"] = "0" * 64
        tampered.write_text(json.dumps(doc))
        args = eval_args(world_dir, retrieved_dir, model_dir, tmp_path)
        idx = args.index("--model")
        args[idx + 1] = tampered
        assert run(*args) == 3
        assert "fingerprint" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("learning_rate", -3.0, "invalid model params: learning_rate must be in (0, 1], got -3.0"),
        ("n_trees", 7, "trees, but params give n_trees=7"),
    ])
    def test_invalid_model_params_exit_3(self, world_dir, retrieved_dir, model_dir, tmp_path, capsys, field, value, message):
        tampered = tmp_path / "tampered.json"
        doc = json.loads((model_dir / "model.json").read_text())
        doc["params"][field] = value
        tampered.write_text(json.dumps(doc))
        args = eval_args(world_dir, retrieved_dir, model_dir, tmp_path / "out")
        args[args.index("--model") + 1] = tampered
        assert run(*args) == 3
        err = capsys.readouterr().err
        assert f"{tampered}: " in err and message in err
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["run.log"]

    def test_cyclic_tree_exit_3_without_hanging(self, world_dir, retrieved_dir, model_dir, tmp_path):
        doc = json.loads((model_dir / "model.json").read_text())
        t, node = next(
            (t, i) for t, tree in enumerate(doc["trees"]) for i, f in enumerate(tree["feature"]) if f >= 0 and i > 0
        )
        doc["trees"][t]["left"][node] = node  # routes a row back to the same node forever
        tampered = tmp_path / "cyclic.json"
        tampered.write_text(json.dumps(doc))
        args = eval_args(world_dir, retrieved_dir, model_dir, tmp_path / "out")
        args[args.index("--model") + 1] = tampered
        env = {**os.environ, "PYTHONPATH": str(Path(bilex.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bilex.cli", *map(str, args)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 3
        assert f"{tampered}: tree {t}: child index out of range" in proc.stderr
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["run.log"]


def candidate_rows(path):
    """Candidate ids and scores per source word of a candidates.tsv."""
    rows = {}
    for line in Path(path).read_text().splitlines():
        src, cand, score = line.split("\t")
        rows.setdefault(src, []).append((cand, float(score)))
    return rows


class TestScopedRetrieval:
    """Scoped rows are scored against the neighborhood means of the whole spaces."""

    def test_source_words_rows_match_the_full_run(self, world_dir, retrieved_dir, tmp_path):
        words = ["s00100", "s00002", "s00077", "s00149"]
        (tmp_path / "words.txt").write_text("\n".join(words) + "\n")
        assert run(
            "retrieve", "--out-dir", tmp_path / "out",
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--seed-dict", world_dir / "dict.train.tsv",
            "--source-words", tmp_path / "words.txt", "--top-k", 10, "--k-csls", 5,
        ) == 0
        full = candidate_rows(retrieved_dir / "candidates.tsv")
        scoped = candidate_rows(tmp_path / "out" / "candidates.tsv")
        assert list(scoped) == words
        for word in words:
            assert [c for c, _ in scoped[word]] == [c for c, _ in full[word]]
            # six decimals in the file; the scores themselves agree to 1e-12
            assert all(abs(a - b) <= 1.5e-6 for (_, a), (_, b) in zip(scoped[word], full[word]))

    def test_analyze_words_candidates_match_the_full_run(self, world_dir, retrieved_dir, tmp_path):
        (tmp_path / "words.txt").write_text("s00003\ns00007\n")
        assert run(*analyze_args(
            world_dir, tmp_path / "out", "--seed-dict", world_dir / "dict.train.tsv",
            "--words", tmp_path / "words.txt", "--top-k", 10, "--k-csls", 5,
        )) == 0
        full = candidate_rows(retrieved_dir / "candidates.tsv")
        for word in ("s00003", "s00007"):
            lines = (tmp_path / "out" / f"pca_{word}.tsv").read_text().splitlines()
            pca = [line.split("\t")[0] for line in lines if line.split("\t")[1] == "candidate"]
            assert pca == [c for c, _ in full[word]]

    def test_semi_extension_rows_match_the_full_run(self, world_dir):
        src = corpus.load_embeddings(world_dir / "embeddings.src.vec")
        tgt = corpus.load_embeddings(world_dir / "embeddings.tgt.vec")
        aligned, _ = _aligned_source(src, tgt, world_dir / "dict.train.tsv")
        params = retrieval.SimilarityParams(k_csls=5, top_k=10)
        full, means = retrieval.retrieve_topk(aligned, tgt, params)
        loaded = retrieval.CandidateSet.from_arrays(full.src_ids[:100], full.cand_ids[:100], full.scores[:100])
        missing = list(range(149, 99, -1))
        for given in (None, means):
            extended = _extend_candidates(loaded, missing, aligned, tgt, params.k_csls, 1, given)
            order = list(range(100)) + missing
            assert extended.src_ids.tolist() == order
            assert extended.cand_ids.tolist() == full.cand_ids[order].tolist()
            np.testing.assert_allclose(extended.scores, full.scores[order], rtol=0, atol=1e-12)


class TestAnalyze:
    def test_grid_and_pca_exports(self, world_dir, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("s00003\ns00007\n")
        assert run(
            "analyze", "--out-dir", tmp_path,
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--dict", world_dir / "dict.full.tsv",
            "--freq-src", world_dir / "freq.src.tsv",
            "--freq-tgt", world_dir / "freq.tgt.tsv",
            "--pos-src", world_dir / "pos.src.tsv",
            "--seed-dict", world_dir / "dict.train.tsv",
            "--words", words, "--top-k", 10, "--k-csls", 5,
        ) == 0
        grid = (tmp_path / "pos_correlation.tsv").read_text().splitlines()
        assert grid[0].startswith("pos\tn\t")
        cells = {l.split("\t")[0]: l.split("\t")[2] for l in grid[1:]}
        numeric = [float(v) for v in cells.values() if v != "NA"]
        assert numeric and all(v > 0 for v in numeric)
        pca = (tmp_path / "pca_s00003.tsv").read_text().splitlines()
        assert len(pca) == 1 + 1 + 1 + 10  # header + source + gold + top_k
        roles = {l.split("\t")[1] for l in pca[1:]}
        assert roles == {"source", "gold", "candidate"}

    def test_small_bucket_prints_na(self, world_dir, tmp_path):
        assert run(
            "analyze", "--out-dir", tmp_path,
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--dict", world_dir / "dict.full.tsv",
            "--freq-src", world_dir / "freq.src.tsv",
            "--freq-tgt", world_dir / "freq.tgt.tsv",
            "--pos-src", world_dir / "pos.src.tsv",
            "--min-n", 100000,
        ) == 0
        grid = (tmp_path / "pos_correlation.tsv").read_text().splitlines()
        assert all(l.split("\t")[2] == "NA" for l in grid[1:])


class TestDeterminism:
    def compare_trees(self, a: Path, b: Path):
        files_a = sorted(p.name for p in a.iterdir() if p.name != "run.log")
        files_b = sorted(p.name for p in b.iterdir() if p.name != "run.log")
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def run_pipeline(self, base: Path, threads: int):
        world = base / "world"
        ret = base / "ret"
        model = base / "model"
        ev = base / "eval"
        assert run("synth", "--out-dir", world, "--n", 120, "--dim", 16,
                   "--noise-sigma", "0.2", "--seed", 21) == 0
        assert run(
            "retrieve", "--out-dir", ret,
            "--src-emb", world / "embeddings.src.vec",
            "--tgt-emb", world / "embeddings.tgt.vec",
            "--seed-dict", world / "dict.train.tsv",
            "--top-k", 10, "--k-csls", 5, "--threads", threads,
        ) == 0
        assert run(*train_args(world, ret, model, "--threads", threads)) == 0
        assert run(*eval_args(world, ret, model, ev)) == 0
        return base

    def test_pipeline_byte_identical_and_thread_invariant(self, tmp_path):
        a = self.run_pipeline(tmp_path / "a", threads=1)
        b = self.run_pipeline(tmp_path / "b", threads=2)
        for sub in ("world", "ret", "model", "eval"):
            self.compare_trees(a / sub, b / sub)


class TestThreadsEnvVar:
    """The worker count comes from --threads or the threads config key, else 1."""

    @pytest.mark.parametrize("value", [0, -1])
    def test_flag_below_one_is_config_error(self, world_dir, retrieved_dir, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert run(*train_args(world_dir, retrieved_dir, out, "--threads", value)) == 2
        assert f"--threads must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_below_one_is_config_error(self, world_dir, retrieved_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 0\n")
        out = tmp_path / "out"
        assert run(*train_args(world_dir, retrieved_dir, out), "--config", cfg) == 2
        assert "--threads must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_run_log_records_the_worker_count(self, world_dir, retrieved_dir, model_dir, tmp_path):
        assert kv(retrieved_dir / "run.log")["threads"] == "1"
        assert kv(model_dir / "run.log")["threads"] == "1"
        words = tmp_path / "words.txt"
        words.write_text("s00003\n")
        assert run(*analyze_args(world_dir, tmp_path / "analyze", "--words", words, "--threads", 2)) == 0
        log = kv(tmp_path / "analyze" / "run.log")
        assert log["threads"] == "2"
        # two workers: their passes run under one OpenBLAS thread
        assert stage_fields(log, "pca")["blas_threads"] == retrieval.blas_threads(one_thread=True)


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# synth config\nn = 40\ndim = 8\nseed = 2\nnoise-sigma = 0.1\n")
        out1 = tmp_path / "o1"
        assert run("synth", "--config", cfg, "--out-dir", out1) == 0
        meta = kv(out1 / "world.meta")
        assert meta["vocab_n"] == "40"
        out2 = tmp_path / "o2"
        assert run("synth", "--config", cfg, "--out-dir", out2, "--n", 60) == 0
        assert kv(out2 / "world.meta")["vocab_n"] == "60"

    def test_unknown_key_refused_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 40\nnoise_sigmaa = 0.5\n")
        out = tmp_path / "out"
        assert run("synth", "--config", cfg, "--out-dir", out) == 2
        assert f"{cfg}: line 2: unknown key 'noise_sigmaa'" in capsys.readouterr().err
        assert not out.exists()

    def test_key_of_another_command_allowed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 40\ndim = 8\ntop-k = 5\nmetric = cosine\n")
        assert run("synth", "--config", cfg, "--out-dir", tmp_path / "out") == 0
        assert kv(tmp_path / "out" / "world.meta")["vocab_n"] == "40"

    @pytest.mark.parametrize("command,line,message", [
        ("retrieve", "metric = dot", "--metric must be csls or cosine, got 'dot'"),
        ("train", "mode = both", "--mode must be supervised or semi, got 'both'"),
        ("retrieve", "k_csls = 0", "--k-csls must be >= 1, got 0"),
    ])
    def test_bad_value_in_config_file_names_flag(self, world_dir, retrieved_dir, tmp_path, capsys, command, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        if command == "train":
            args = train_args(world_dir, retrieved_dir, out)
        else:
            args = ["retrieve", "--out-dir", out,
                    "--src-emb", world_dir / "embeddings.src.vec", "--tgt-emb", world_dir / "embeddings.tgt.vec"]
        assert run(*args, "--config", cfg) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


# every flag each command accepts, written out so that an edit to the option
# tables cannot drop or rename one unnoticed
COMMAND_FLAGS = {
    "synth": [
        "--config", "--out-dir", "--n", "--dim", "--noise-sigma", "--hub-count", "--zipf-exponent",
        "--pos-match-prob", "--rank-jitter", "--mean-offset", "--test-fraction", "--seed",
    ],
    "retrieve": [
        "--config", "--out-dir", "--src-emb", "--tgt-emb", "--seed-dict", "--source-words", "--metric",
        "--k-csls", "--top-k", "--max-vocab", "--threads",
    ],
    "mine": ["--config", "--out-dir", "--src-emb", "--tgt-emb", "--candidates", "--dict", "--n-neg", "--max-vocab"],
    "train": [
        "--config", "--out-dir", "--src-emb", "--tgt-emb", "--candidates", "--dict-train", "--freq-src",
        "--freq-tgt", "--pos-src", "--pos-tgt", "--ext-scores", "--mode", "--n-aug", "--k-csls",
        "--n-trees", "--max-depth", "--learning-rate", "--min-child-weight", "--l2-leaf-reg", "--sigma",
        "--seed", "--no-pos", "--no-freq", "--mix-search", "--dump-features", "--max-vocab", "--threads",
    ],
    "eval": [
        "--config", "--out-dir", "--src-emb", "--tgt-emb", "--model", "--candidates", "--dict-test",
        "--freq-src", "--freq-tgt", "--pos-src", "--pos-tgt", "--ext-scores", "--mix", "--errors-only",
        "--max-vocab",
    ],
    "analyze": [
        "--config", "--out-dir", "--src-emb", "--tgt-emb", "--dict", "--freq-src", "--freq-tgt", "--pos-src",
        "--seed-dict", "--words", "--pair-label", "--min-n", "--k-csls", "--top-k", "--max-vocab", "--threads",
    ],
}


def non_default_value(key, opt, tmp_path):
    """A config-file spelling of a valid value other than the option's default."""
    if opt.is_file:
        path = tmp_path / "input.txt"
        path.write_text("x\n")
        return str(path)
    if key == "out_dir":
        return str(tmp_path / "out")
    if opt.choices:
        return next(c for c in opt.choices if c != opt.default)
    if opt.conv is int:
        return str((opt.default or 0) + 3)
    if opt.conv is float:
        return "0.25"
    return "aa-bb"


class TestOptionTables:
    def test_each_command_accepts_exactly_its_flags(self, capsys):
        assert [name for name, *_ in COMMANDS] == list(COMMAND_FLAGS)
        for name, flags in COMMAND_FLAGS.items():
            with pytest.raises(SystemExit):
                main([name, "--help"])
            shown = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
            assert shown == {"--help", *flags}, name

    def test_flag_and_config_file_resolve_alike(self, tmp_path):
        parser = build_parser()
        cfg = tmp_path / "run.cfg"
        for name, _, schema, _ in COMMANDS:
            for key, opt in schema.items():
                flag = "--" + key.replace("_", "-")
                if opt.conv is _as_bool:
                    cases = [([flag], "true")]
                else:
                    raw = non_default_value(key, opt, tmp_path)
                    cases = [([flag, raw], raw)]
                    if opt.const is not None:
                        cases.append(([flag], repr(opt.const)))
                for flag_args, raw in cases:
                    cfg.write_text(f"{key} = {raw}\n")
                    by_flag = resolve_options(parser.parse_args([name, *flag_args]), schema)
                    by_file = resolve_options(parser.parse_args([name, "--config", str(cfg)]), schema)
                    assert by_flag == by_file, (name, key, raw)
                    assert getattr(by_flag[0], key) != opt.default, (name, key)

    def test_a_key_of_several_commands_is_one_option(self):
        declared = {}
        for name, _, schema, _ in COMMANDS:
            for key, opt in schema.items():
                assert declared.setdefault(key, opt) is opt, (name, key)

    @pytest.mark.parametrize("command,extra,message", [
        ("train", ["--mode", "semi", "--k-csls", 0], "--k-csls must be >= 1, got 0"),
        ("train", ["--mode", "semi", "--n-aug", -1], "--n-aug must be >= 0, got -1"),
        ("retrieve", ["--max-vocab", -5], "--max-vocab must be >= 1, got -5"),
        ("analyze", ["--top-k", 0], "--top-k must be >= 1, got 0"),
    ])
    def test_out_of_range_value_exit_2_before_writing(
        self, world_dir, retrieved_dir, tmp_path, capsys, command, extra, message,
    ):
        out = tmp_path / "out"
        if command == "train":
            args = train_args(world_dir, retrieved_dir, out, *extra)
        elif command == "retrieve":
            args = ["retrieve", "--out-dir", out, "--src-emb", world_dir / "embeddings.src.vec",
                    "--tgt-emb", world_dir / "embeddings.tgt.vec", *extra]
        else:
            args = analyze_args(world_dir, out, *extra)
        assert run(*args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def analyze_args(world_dir, out, *extra):
    return [
        "analyze", "--out-dir", out,
        "--src-emb", world_dir / "embeddings.src.vec",
        "--tgt-emb", world_dir / "embeddings.tgt.vec",
        "--dict", world_dir / "dict.full.tsv",
        "--freq-src", world_dir / "freq.src.tsv",
        "--freq-tgt", world_dir / "freq.tgt.tsv",
        "--pos-src", world_dir / "pos.src.tsv",
        *extra,
    ]


def src_vectors_with_value(world_dir, tmp_path, value):
    """A copy of the world's source vectors whose second value on line 5 is replaced by value."""
    lines = (world_dir / "embeddings.src.vec").read_text().splitlines()
    fields = lines[4].split(" ")
    fields[2] = value
    lines[4] = " ".join(fields)
    bad = tmp_path / "bad.vec"
    bad.write_text("\n".join(lines) + "\n")
    return bad


class TestVectorLoading:
    @pytest.fixture
    def parsed(self, monkeypatch):
        """Paths passed to corpus.load_embeddings during the test."""
        paths = []
        real = corpus.load_embeddings

        def counting(path, max_vocab=None):
            paths.append(Path(path).name)
            return real(path, max_vocab)

        monkeypatch.setattr(corpus, "load_embeddings", counting)
        return paths

    def test_vocabulary_only_commands_parse_no_vectors(self, world_dir, retrieved_dir, model_dir, tmp_path, parsed):
        assert run(
            "mine", "--out-dir", tmp_path / "mine",
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--candidates", retrieved_dir / "candidates.tsv",
            "--dict", world_dir / "dict.train.tsv",
        ) == 0
        assert run(*train_args(world_dir, retrieved_dir, tmp_path / "train")) == 0
        assert run(*train_args(world_dir, retrieved_dir, tmp_path / "semi0", "--mode", "semi", "--n-aug", 0)) == 0
        assert run(*eval_args(world_dir, retrieved_dir, model_dir, tmp_path / "eval")) == 0
        assert run(*analyze_args(world_dir, tmp_path / "analyze")) == 0
        assert parsed == []
        for sub in ("mine", "train", "eval", "analyze"):
            assert "vectors_parsed=0" in kv(tmp_path / sub / "run.log")["stage.load"]

    def test_vector_commands_parse_both_files(self, world_dir, retrieved_dir, tmp_path, parsed):
        words = tmp_path / "words.txt"
        words.write_text("s00003\n")
        both = ["embeddings.src.vec", "embeddings.tgt.vec"]
        assert run(
            "retrieve", "--out-dir", tmp_path / "retrieve",
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--top-k", 5, "--k-csls", 3,
        ) == 0
        assert parsed == both
        assert run(*train_args(world_dir, retrieved_dir, tmp_path / "semi", "--mode", "semi", "--n-aug", 15)) == 0
        assert parsed == both * 2
        assert run(*analyze_args(world_dir, tmp_path / "analyze", "--words", words, "--top-k", 5, "--k-csls", 3)) == 0
        assert parsed == both * 3
        for sub in ("retrieve", "semi", "analyze"):
            assert "vectors_parsed=1" in kv(tmp_path / sub / "run.log")["stage.load"]

    def test_run_log_records_load_stage_and_settings(self, model_dir):
        log = kv(model_dir / "run.log")
        fields = dict(f.split("=") for f in log["stage.load"].split(" "))
        assert set(fields) == TIMING | {"vectors_parsed", "vector_rows", "candidate_rows", "oov_pairs"}
        assert float(fields["peak_rss_mb"]) > 0
        if HAS_PROC:
            assert float(fields["rss_mb"]) > 0
        assert fields["vector_rows"] == "300" and fields["candidate_rows"] == str(150 * 10)
        assert fields["oov_pairs"] == "0"
        assert log["numpy"]
        assert {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} <= set(log)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert log["blas"] == f"{blas['name']} {blas['version']}"
        keys = list(log)
        assert log["warnings"] == "0" and keys.index("warnings") == keys.index("exit_code") - 1

    def test_run_log_counts_warnings(self, world_dir, retrieved_dir, tmp_path):
        lines = (world_dir / "embeddings.src.vec").read_text().splitlines()
        count, dim = lines[0].split(" ")
        dup = tmp_path / "dup.vec"
        dup.write_text("\n".join([f"{int(count) + 1} {dim}", *lines[1:], lines[1]]) + "\n")
        assert run(
            "mine", "--out-dir", tmp_path / "mine",
            "--src-emb", dup,
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--candidates", retrieved_dir / "candidates.tsv",
            "--dict", world_dir / "dict.train.tsv",
        ) == 0
        assert kv(tmp_path / "mine" / "run.log")["warnings"] == "1"

    def test_retrieve_non_finite_vector_exit_3(self, world_dir, tmp_path, capsys):
        bad = src_vectors_with_value(world_dir, tmp_path, "nan")
        out = tmp_path / "out"
        assert run(
            "retrieve", "--out-dir", out,
            "--src-emb", bad, "--tgt-emb", world_dir / "embeddings.tgt.vec",
        ) == 3
        assert f"{bad}: line 5: non-finite value" in capsys.readouterr().err
        assert not (out / "candidates.tsv").exists()

    def test_train_non_finite_score_exit_3(self, world_dir, retrieved_dir, tmp_path, capsys):
        lines = (retrieved_dir / "candidates.tsv").read_text().splitlines()
        src, cand, _ = lines[6].split("\t")
        lines[6] = f"{src}\t{cand}\tnan"
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(lines) + "\n")
        args = train_args(world_dir, retrieved_dir, tmp_path / "out")
        args[args.index("--candidates") + 1] = bad
        assert run(*args) == 3
        assert f"{bad}: line 7: non-finite score" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.json").exists()


def stage_fields(log, name):
    return dict(f.split("=") for f in log[f"stage.{name}"].split(" "))


def gold_and_candidates(dict_path, candidates_path):
    gold, cands = {}, {}
    for line in Path(dict_path).read_text().splitlines():
        src, tgt = line.split("\t")
        gold.setdefault(src, set()).add(tgt)
    for line in Path(candidates_path).read_text().splitlines():
        src, cand, _ = line.split("\t")
        cands.setdefault(src, []).append(cand)
    return gold, cands


VMHWM_CHILD = """
import resource
from pathlib import Path
from bilex.cli import _rss_mb

def vmhwm_mb():
    line = next(x for x in Path("/proc/self/status").read_text().splitlines() if x.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024

before = vmhwm_mb()
print(before, _rss_mb()[0], vmhwm_mb(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


@pytest.mark.skipif(not HAS_PROC, reason="VmHWM is read from /proc")
def test_peak_rss_is_the_vmhwm_of_this_process():
    # a child's ru_maxrss carries over the high-water mark of the process that launched it
    ballast = np.ones(48 * 2**20 // 8)  # 48 MB more in the launching process than the child ever holds
    env = {**os.environ, "PYTHONPATH": str(Path(bilex.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", VMHWM_CHILD], capture_output=True, text=True, env=env, timeout=60)
    del ballast
    before, peak, after, ru_maxrss = map(float, proc.stdout.split())
    assert before <= peak <= after < ru_maxrss


@pytest.mark.skipif(not HAS_PROC, reason="VmRSS is read from /proc")
def test_stage_rss_is_the_size_at_its_end(tmp_path):
    with _RunLog(tmp_path, "test") as run_log:
        with run_log.stage("hold"):
            ballast = np.ones(64 * 2**20 // 8)  # 64 MB, mapped on its own and unmapped when freed
        del ballast
        with run_log.stage("freed"):
            pass
    log = kv(tmp_path / "run.log")
    hold, freed = stage_fields(log, "hold"), stage_fields(log, "freed")
    assert float(freed["rss_mb"]) < float(hold["rss_mb"]) - 48


class TestRunLogStages:
    def test_fit_counts_multi_positive_groups(self, world_dir, retrieved_dir, tmp_path):
        gold, cands = gold_and_candidates(world_dir / "dict.train.tsv", retrieved_dir / "candidates.tsv")
        retrieved = [s for s in gold if gold[s] & set(cands[s])]
        lines = (world_dir / "dict.train.tsv").read_text().splitlines()
        for src in retrieved[:5]:  # a second gold target among the candidates
            lines.append(f"{src}\t{next(c for c in cands[src] if c not in gold[src])}")
        multi = tmp_path / "dict.multi.tsv"
        multi.write_text("\n".join(lines) + "\n")
        args = train_args(world_dir, retrieved_dir, tmp_path / "out")
        args[args.index("--dict-train") + 1] = multi
        assert run(*args) == 0
        fit = stage_fields(kv(tmp_path / "out" / "run.log"), "fit")
        assert fit["trainable_groups"] == str(len(retrieved)) and fit["multi_positive_groups"] == "5"

    def test_vector_load_counts_duplicates_and_zero_rows_per_side(self, world_dir, tmp_path):
        lines = (world_dir / "embeddings.src.vec").read_text().splitlines()
        count, dim = lines[0].split(" ")
        zero = lines[2].split(" ")[0] + " " + " ".join(["0"] * int(dim))
        odd = tmp_path / "odd.vec"
        odd.write_text("\n".join([f"{int(count) + 1} {dim}", lines[1], zero, *lines[3:], lines[1]]) + "\n")
        assert run(
            "retrieve", "--out-dir", tmp_path / "out",
            "--src-emb", odd, "--tgt-emb", world_dir / "embeddings.tgt.vec", "--top-k", 5, "--k-csls", 3,
        ) == 0
        load = stage_fields(kv(tmp_path / "out" / "run.log"), "load")
        assert load["src_duplicate_tokens"] == "1" and load["src_zero_rows"] == "1"
        assert load["tgt_duplicate_tokens"] == "0" and load["tgt_zero_rows"] == "0"
        assert load["vector_rows"] == "300"

    def test_augment_stage_counts(self, world_dir, retrieved_dir, tmp_path):
        assert run(*train_args(world_dir, retrieved_dir, tmp_path, "--mode", "semi", "--n-aug", 15)) == 0
        log = kv(tmp_path / "run.log")
        augment = stage_fields(log, "augment")
        assert set(augment) == TIMING | {
            "candidate_width", "blas_threads", "mined_pairs", "retrieved_sources",
            "shortlist_mean", "shortlist_max", "rescored_mean", "buffer_mb",
        }
        assert augment["candidate_width"] == "10"
        assert augment["blas_threads"] == retrieval.blas_threads(one_thread=False)
        assert 0 < float(augment["shortlist_mean"]) <= int(augment["shortlist_max"]) <= 150
        # every selection rescores at least its k pairs per row (k = 1 for the mining passes)
        assert 1 <= float(augment["rescored_mean"]) <= float(augment["shortlist_mean"])
        assert float(augment["buffer_mb"]) > 0
        assert "src_duplicate_tokens=0" in log["stage.load"] and "tgt_zero_rows=0" in log["stage.load"]

    def test_load_counts_oov_pairs(self, world_dir, retrieved_dir, tmp_path):
        lines = (world_dir / "dict.train.tsv").read_text().splitlines()
        src, tgt = lines[0].split("\t")
        lines += [f"nosuchsource\t{tgt}", f"nosuchsource2\t{tgt}", f"{src}\tnosuchtarget"]
        oov = tmp_path / "dict.oov.tsv"
        oov.write_text("\n".join(lines) + "\n")
        assert run(
            "mine", "--out-dir", tmp_path / "mine",
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--candidates", retrieved_dir / "candidates.tsv",
            "--dict", oov,
        ) == 0
        assert stage_fields(kv(tmp_path / "mine" / "run.log"), "load")["oov_pairs"] == "3"

    def test_train_and_eval_stage_lines(self, world_dir, retrieved_dir, model_dir, tmp_path):
        log = kv(model_dir / "run.log")
        featurize = stage_fields(log, "featurize")
        assert set(featurize) == TIMING | {"groups", "rows", "gold_missed"}
        n_groups = len({line.split("\t")[0] for line in (world_dir / "dict.train.tsv").read_text().splitlines()})
        assert featurize["groups"] == str(n_groups) and featurize["rows"] == str(n_groups * 10)
        fit = stage_fields(log, "fit")
        assert set(fit) == TIMING | {
            "trees", "rows", "trainable_groups", "multi_positive_groups",
            "histogram_columns", "bundled_columns", "split_s",
        }
        assert fit["trees"] == "6" and fit["rows"] == featurize["rows"]
        # the two one-hot POS blocks are bundles, each of at least two columns
        assert int(fit["bundled_columns"]) >= 4 and int(fit["histogram_columns"]) >= 3
        assert 0.0 < float(fit["split_s"]) <= float(fit["wall_s"])
        gold, cands = gold_and_candidates(world_dir / "dict.train.tsv", retrieved_dir / "candidates.tsv")
        trainable = sum(bool(gold[s] & set(cands[s])) for s in gold)  # one target each, ten candidates
        assert fit["trainable_groups"] == str(trainable) and fit["multi_positive_groups"] == "0"
        assert featurize["gold_missed"] == str(n_groups - trainable)
        assert set(stage_fields(log, "write")) == TIMING
        assert log["exit_code"] == "0" and "error" not in log

        assert run(*eval_args(world_dir, retrieved_dir, model_dir, tmp_path)) == 0
        log = kv(tmp_path / "run.log")
        featurize = stage_fields(log, "featurize")
        assert set(featurize) == TIMING | {"groups", "rows", "gold_missed"}
        assert featurize["groups"] == kv(tmp_path / "eval_report.txt")["n_eval"]
        assert featurize["gold_missed"] == kv(tmp_path / "eval_report.txt")["gold_missed"]
        predict = stage_fields(log, "predict")
        assert set(predict) == TIMING | {"rows", "trees"}
        assert predict["rows"] == featurize["rows"] and predict["trees"] == "6"
        assert set(stage_fields(log, "report")) == TIMING
        stages = [key for key in log if key.startswith("stage.")]
        assert stages == ["stage.load", "stage.featurize", "stage.predict", "stage.report"]

    def test_retrieve_mine_analyze_stage_lines(self, world_dir, retrieved_dir, tmp_path):
        log = kv(retrieved_dir / "run.log")
        stages = [key for key in log if key.startswith("stage.")]
        assert stages == ["stage.load", "stage.align", "stage.retrieve", "stage.write", "stage.report"]
        retrieve = stage_fields(log, "retrieve")
        assert set(retrieve) == TIMING | {
            "queries", "top_k", "blas_threads", "shortlist_mean", "shortlist_max", "rescored_mean", "buffer_mb",
        }
        assert retrieve["queries"] == "150" and retrieve["top_k"] == "10"
        # one worker: its passes run on the library's own count
        assert retrieve["blas_threads"] == retrieval.blas_threads(one_thread=False)
        assert 0 < float(retrieve["shortlist_mean"]) <= int(retrieve["shortlist_max"]) <= 150
        # the means at k_csls = 5 and the candidates at top_k = 10 rescore at least k pairs per row
        assert 5 <= float(retrieve["rescored_mean"]) <= float(retrieve["shortlist_mean"])
        assert float(retrieve["buffer_mb"]) > 0
        assert set(stage_fields(log, "align")) == TIMING | {"blas_threads"}
        assert stage_fields(log, "align")["blas_threads"] == retrieval.blas_threads(one_thread=True)
        for name in ("write", "report"):
            assert set(stage_fields(log, name)) == TIMING

        assert run(
            "mine", "--out-dir", tmp_path / "mine",
            "--src-emb", world_dir / "embeddings.src.vec",
            "--tgt-emb", world_dir / "embeddings.tgt.vec",
            "--candidates", retrieved_dir / "candidates.tsv",
            "--dict", world_dir / "dict.train.tsv",
        ) == 0
        log = kv(tmp_path / "mine" / "run.log")
        assert [key for key in log if key.startswith("stage.")] == ["stage.load", "stage.mine", "stage.write"]
        mine = stage_fields(log, "mine")
        assert set(mine) == TIMING | {"rows"}
        assert mine["rows"] == str(len((tmp_path / "mine" / "hard_negatives.tsv").read_text().splitlines()))
        assert set(stage_fields(log, "write")) == TIMING

        words = tmp_path / "words.txt"
        words.write_text("s00003\ns00007\n")
        assert run(*analyze_args(world_dir, tmp_path / "pca", "--words", words, "--top-k", 5, "--k-csls", 3)) == 0
        log = kv(tmp_path / "pca" / "run.log")
        assert [key for key in log if key.startswith("stage.")] == ["stage.load", "stage.grid", "stage.pca"]
        assert set(stage_fields(log, "grid")) == TIMING
        pca = stage_fields(log, "pca")
        assert set(pca) == TIMING | {"words", "blas_threads"} and pca["words"] == "2"
        assert pca["blas_threads"] == retrieval.blas_threads(one_thread=False)
        assert run(*analyze_args(world_dir, tmp_path / "grid")) == 0
        log = kv(tmp_path / "grid" / "run.log")
        assert [key for key in log if key.startswith("stage.")] == ["stage.load", "stage.grid"]


class TestFailedRunLog:
    def test_retrieve_non_finite_vector_writes_only_run_log(self, world_dir, tmp_path, capsys):
        bad = src_vectors_with_value(world_dir, tmp_path, "nan")
        out = tmp_path / "out"
        assert run(
            "retrieve", "--out-dir", out,
            "--src-emb", bad, "--tgt-emb", world_dir / "embeddings.tgt.vec",
        ) == 3
        assert [p.name for p in out.iterdir()] == ["run.log"]
        log = kv(out / "run.log")
        assert log["command"] == "retrieve"
        assert log["exit_code"] == "3"
        assert f"{bad}: line 5: non-finite value" in log["error"]
        assert not any(key.startswith("stage.") for key in log)  # loading did not finish

    def test_retrieve_overflowing_vector_norm_writes_only_run_log(self, world_dir, tmp_path, capsys):
        # a finite value whose square overflows the row's norm
        bad = src_vectors_with_value(world_dir, tmp_path, "1e200")
        out = tmp_path / "out"
        assert run(
            "retrieve", "--out-dir", out,
            "--src-emb", bad, "--tgt-emb", world_dir / "embeddings.tgt.vec",
        ) == 3
        assert f"{bad}: line 5: norm of the row for" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["run.log"]
        assert kv(out / "run.log")["exit_code"] == "3"

    def test_failure_after_finished_stages_logs_them(self, world_dir, retrieved_dir, model_dir, tmp_path):
        tampered = tmp_path / "tampered.json"
        doc = json.loads((model_dir / "model.json").read_text())
        doc["schema"]["fingerprint"] = "0" * 64
        tampered.write_text(json.dumps(doc))
        args = eval_args(world_dir, retrieved_dir, model_dir, tmp_path / "out")
        args[args.index("--model") + 1] = tampered
        assert run(*args) == 3
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["run.log"]
        log = kv(tmp_path / "out" / "run.log")
        assert [key for key in log if key.startswith("stage.")] == ["stage.load", "stage.featurize"]
        assert log["exit_code"] == "3"
        assert "fingerprint mismatch" in log["error"]


LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"


def load_launch():
    """perfbench/launch.py as a module; importing it installs no probe."""
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkProbes:
    """The benchmark probes bilex functions by name; a rename or a changed signature must show here."""

    def test_probed_names_are_bilex_functions(self):
        launch = load_launch()
        for mod, fn in launch.LOADERS + launch.SPANNED + launch.AGGREGATED:
            assert callable(getattr(importlib.import_module(f"bilex.{mod}"), fn, None)), f"{mod}.{fn}"

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        """Each command run under launch.py's trace probes on a 300-word world: (directory, {name: record})."""
        base = tmp_path_factory.mktemp("traced")
        w = base / "world"
        assert run("synth", "--out-dir", w, "--n", 300, "--dim", 16, "--noise-sigma", "0.2", "--seed", 4) == 0
        train_sources = sorted({line.split("\t")[0] for line in (w / "dict.train.tsv").read_text().splitlines()})
        (base / "train_words.txt").write_text("\n".join(train_sources) + "\n")
        (base / "two_words.txt").write_text("\n".join(train_sources[:2]) + "\n")
        emb = ["--src-emb", w / "embeddings.src.vec", "--tgt-emb", w / "embeddings.tgt.vec"]
        sides = ["--freq-src", w / "freq.src.tsv", "--freq-tgt", w / "freq.tgt.tsv", "--pos-src", w / "pos.src.tsv"]
        ranker = [*sides, "--pos-tgt", w / "pos.tgt.tsv"]
        sims = ["--top-k", 10, "--k-csls", 5]
        train = ["train", *emb, *ranker, "--k-csls", 5, "--dict-train", w / "dict.train.tsv", "--n-trees", 3]
        commands = {
            "retrieve": ["retrieve", "--out-dir", base / "retrieve", *emb, "--seed-dict", w / "dict.train.tsv", *sims],
            "retrieve_scoped": [
                "retrieve", "--out-dir", base / "scoped", *emb, "--seed-dict", w / "dict.train.tsv",
                "--source-words", base / "train_words.txt", *sims,
            ],
            "mine": [
                "mine", "--out-dir", base / "mine", *emb,
                "--candidates", base / "retrieve" / "candidates.tsv", "--dict", w / "dict.train.tsv",
            ],
            "train": [*train, "--out-dir", base / "train", "--candidates", base / "retrieve" / "candidates.tsv"],
            # the scoped file lacks the mined sources, so semi train retrieves and appends them
            "train_semi": [
                *train, "--out-dir", base / "semi", "--candidates", base / "scoped" / "candidates.tsv",
                "--mode", "semi", "--n-aug", 40,
            ],
            "eval": [
                "eval", "--out-dir", base / "eval", *emb, *ranker, "--model", base / "train" / "model.json",
                "--candidates", base / "retrieve" / "candidates.tsv", "--dict-test", w / "dict.test.tsv",
            ],
            "analyze": [
                "analyze", "--out-dir", base / "analyze", *emb, *sides, "--dict", w / "dict.full.tsv",
                "--seed-dict", w / "dict.train.tsv", "--words", base / "two_words.txt", *sims,
            ],
        }
        records = {}
        for name, argv in commands.items():
            record = base / f"{name}.json"
            proc = subprocess.run(
                [sys.executable, str(LAUNCH), str(record), "trace", name, "--", *map(str, argv)],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, f"{name}: {proc.stderr}"
            records[name] = json.loads(record.read_text())
        return base, records

    def test_every_command_traces_without_counter_errors(self, traced):
        _, records = traced
        for name, record in records.items():
            assert record["rc"] == 0, name
            errors = [(s["name"], s["counter_error"]) for s in record["spans"] if "counter_error" in s]
            assert errors == [], name

    def test_semi_train_spans(self, traced):
        base, records = traced
        augment = dict(field.split("=") for field in kv(base / "semi" / "run.log")["stage.augment"].split())
        assert int(augment["retrieved_sources"]) > 0
        spans = records["train_semi"]["spans"]
        calls = Counter(span["name"] for span in spans)
        assert calls["retrieval.knn_mean_similarity"] == 1
        # the top-1 pass, the target-side pass inside mutual_nn_pairs and the extension
        assert calls["retrieval.retrieve_topk"] == 3
        (mined,) = [s for s in spans if s["name"] == "retrieval.mutual_nn_pairs"]
        assert mined["counts"]["pairs"] > 0
