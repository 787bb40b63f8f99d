"""Batch pipeline driver: synth, retrieve, mine, train, eval, analyze.

Options resolve as CLI flag > config file ("key = value" lines) > default.
Each option is declared once, as an Option in its command's schema; the
parser, the config file keys and the required/file/choice checks all come
from that entry. Every command validates its full configuration before
writing anything.
Exit codes: 0 success, 2 config error, 3 data error, 4 internal invariant.

All randomness flows from the single --seed value; identical configurations
produce byte-identical output files. Wall-clock information goes only to the
run.log sidecar.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import logging
import math
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import corpus, evaluation, features, ltr, retrieval, synth

log = logging.getLogger("bilex.cli")  # not __name__, which is "__main__" under python -m: run.log counts "bilex"

# thread settings recorded in run.log as found in the environment
LOGGED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class ConfigError(Exception):
    """One or more configuration problems, reported all at once."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _as_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


@dataclass(frozen=True)
class Option:
    """One option of one command: its flag, its config key and its checks.

    The flag is "--" plus the key with "-" for "_"; an `_as_bool` option is a
    bare store_true flag, and `const` is the value of a bare flag that may
    also take a value.
    """

    conv: Callable[[str], object] = str
    default: object = None
    required: bool = False
    is_file: bool = False  # an input file, which must exist when given
    choices: tuple[str, ...] = ()
    minimum: int | None = None
    const: object = None


# options of more than one command, shared so that their declarations cannot drift apart
OUT_DIR = Option(required=True)
INPUT = Option(required=True, is_file=True)
OPTIONAL_INPUT = Option(is_file=True)
K_CSLS = Option(int, 10, minimum=1)
TOP_K = Option(int, 50, minimum=1)
MAX_VOCAB = Option(int, minimum=1)
THREADS = Option(int, minimum=1)  # unset: one worker per usable CPU (_RunLog.workers)
SEED = Option(int, 0)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def load_config_file(path: str | Path) -> dict[str, str]:
    """Values by key; a malformed line, a key that no command declares or a byte that is not UTF-8 is a config
    error."""
    values: dict[str, str] = {}
    errors = []
    try:
        for line_no, line in corpus._data_lines(Path(path)):
            if "=" not in line:
                errors.append(f"{path}: line {line_no}: expected 'key = value'")
                continue
            name, _, raw = line.partition("=")
            key = name.strip().replace("-", "_")
            if key not in CONFIG_KEYS:
                errors.append(f"{path}: line {line_no}: unknown key {name.strip()!r}")
            values[key] = raw.strip()
    except corpus.DataFormatError as e:  # after the lines above it: a byte that is not UTF-8, or no regular file
        errors.append(str(e))
    if errors:
        raise ConfigError(errors)
    return values


def resolve_options(args: argparse.Namespace, schema: dict[str, Option]) -> tuple[argparse.Namespace, list[str]]:
    """Merge flags, config file entries, and defaults into one namespace.

    Also returns the problems the schema finds: a missing required option, a
    missing input file, a value outside its choices or below its minimum, or
    one that does not convert or is a non-finite float (either then takes its
    default). The command adds its own checks.
    """
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    out = argparse.Namespace()
    errors = []
    for key, opt in schema.items():
        value = getattr(args, key, None)
        if value is None and key in file_values:
            try:
                value = opt.conv(file_values[key])
            except ValueError as e:
                errors.append(f"config key {key}: {e}")
        if isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{_flag(key)} must be finite, got {value}")
            value = None
        if value is None:
            value = opt.default
        setattr(out, key, value)
        if value is None:
            if opt.required:
                errors.append(f"missing required option: {_flag(key)}")
        elif opt.is_file and not Path(value).is_file():
            errors.append(f"{_flag(key)}: no such file: {value}")
        elif opt.choices and value not in opt.choices:
            errors.append(f"{_flag(key)} must be {' or '.join(opt.choices)}, got {value!r}")
        elif opt.minimum is not None and value < opt.minimum:
            errors.append(f"{_flag(key)} must be >= {opt.minimum}, got {value}")
    return out, errors


def _output_dir(opts: argparse.Namespace, errors: list[str]) -> Path:
    """Raise every config problem found so far, an --out-dir that is, or would be under, no directory too; else
    create it."""
    if opts.out_dir is not None:
        out = Path(opts.out_dir)
        nearest = next(p for p in (out, *out.parents) if os.path.exists(p))  # "." or "/" at the latest
        if not os.path.isdir(nearest):
            errors.append(f"--out-dir: not a directory: {opts.out_dir}")
    if errors:
        raise ConfigError(errors)
    out = Path(opts.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _rss_mb() -> tuple[float, float | None]:
    """Peak and current resident set size of this process in MB, from one read of /proc/self/status.

    The peak is VmHWM, since ru_maxrss keeps the launching process's high-water mark across fork and exec, and
    the current size VmRSS. Without /proc the peak is ru_maxrss (KiB on Linux, bytes on macOS), the current None.
    """
    with contextlib.suppress(OSError, KeyError):
        with open("/proc/self/status", encoding="ascii") as fh:
            status = {key: value for key, _, value in (line.partition(":") for line in fh)}
        return int(status["VmHWM"].split()[0]) / 2**10, int(status["VmRSS"].split()[0]) / 2**10  # kB
    return _maxrss_mb(resource.RUSAGE_SELF), None


def _maxrss_mb(who: int) -> float:
    """ru_maxrss in MB: KiB on Linux, bytes on macOS."""
    peak = resource.getrusage(who).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _cpu_s() -> float:
    """CPU seconds of this process plus those of its children reaped so far, such as vector-parsing processes."""
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


# exceptions that main() reports, with their exit code and message prefix
FAILURES = (
    (ConfigError, 2, "config error"),
    ((corpus.DataFormatError, ValueError, OSError), 3, "data error"),
    ((AssertionError, ArithmeticError, corpus.ParseWorkerError), 4, "internal error"),
)


def _failure(exc: BaseException) -> tuple[int, str] | None:
    """(exit code, message prefix) for an exception main() reports, else None."""
    for kinds, code, prefix in FAILURES:
        if isinstance(exc, kinds):
            return code, prefix
    return None


class _WarningCounter(logging.Handler):
    """Counts the WARNING-and-above records of the bilex loggers."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


class _RunLog:
    """Timing sidecar; the only output file that may differ between runs.

    Used as a context manager around a command's work: run.log is written on
    the way out, also when the command fails, and then ends with the exit
    code and the error after the stages that finished.
    """

    def __init__(self, out_dir: Path, command: str):
        self.out_dir = out_dir
        self.t0 = time.perf_counter()
        self.lines: list[str] = [f"command\t{command}", f"started\t{datetime.datetime.now().isoformat()}"]
        self.note("numpy", np.__version__)
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        self.note("blas", f"{blas.get('name')} {blas.get('version')}")
        for var in LOGGED_ENV:
            self.note(var, os.environ.get(var, "unset"))
        self.warnings = _WarningCounter()

    def note(self, key: str, value) -> None:
        self.lines.append(f"{key}\t{value}")

    def workers(self, requested: int | None) -> int:
        """One worker per CPU this process may use, or fewer if requested (a larger request is clipped, with a
        warning), noted with the OpenBLAS thread count every similarity pass runs at."""
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        threads = min(requested or cpus, cpus)
        if requested and requested > cpus:
            log.warning("--threads %d: this process may use %d CPUs, so %d workers run", requested, cpus, cpus)
        self.note("threads", threads)
        self.note("blas_threads", retrieval.blas_threads())
        return threads

    @contextlib.contextmanager
    def stage(self, name: str, **counts):
        """Log a stage as one "stage.<name>" line: wall and CPU seconds, peak RSS so far, RSS at its end, counts.

        The CPU seconds include those of the child processes reaped during the stage. The counts dict is
        yielded, so the stage can add counts it learns while running.
        """
        wall0, cpu0 = time.perf_counter(), _cpu_s()
        yield counts
        wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
        peak, current = _rss_mb()
        fields = [f"wall_s={wall:.3f}", f"cpu_s={cpu:.3f}", f"peak_rss_mb={peak:.1f}"]
        if current is not None:
            fields.append(f"rss_mb={current:.1f}")
        fields += [f"{key}={value}" for key, value in counts.items()]
        self.note(f"stage.{name}", " ".join(fields))

    def __enter__(self) -> _RunLog:
        logging.getLogger("bilex").addHandler(self.warnings)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        logging.getLogger("bilex").removeHandler(self.warnings)
        self.lines.append(f"elapsed_s\t{time.perf_counter() - self.t0:.3f}")
        self.note("warnings", self.warnings.count)
        if exc is None:
            self.note("exit_code", 0)
        else:
            failure = _failure(exc)
            self.note("exit_code", 1 if failure is None else failure[0])
            self.note("error", " ".join(f"{type(exc).__name__}: {exc}".split()))
        with corpus.atomic_writer(self.out_dir / "run.log") as fh:
            fh.write("\n".join(self.lines) + "\n")


def _write_kv(path: Path, items: list[tuple[object, object]]) -> None:
    """Write "key<TAB>value" lines; all or nothing."""
    with corpus.atomic_writer(path) as fh:
        for key, value in items:
            fh.write(f"{key}\t{value}\n")


def _load_spaces(opts: argparse.Namespace, counts: dict):
    """Both embedding spaces, unit-normalized, for the commands that compute with vectors.

    Each file is parsed by up to --threads processes. Adds each side's duplicate tokens and zero rows to the
    load stage's counts, the most processes one file took and the peak RSS of the largest child.
    """
    src = corpus.load_embeddings(opts.src_emb, opts.max_vocab, opts.threads)
    tgt = corpus.load_embeddings(opts.tgt_emb, opts.max_vocab, opts.threads)
    for side, space in (("src", src), ("tgt", tgt)):
        counts[f"{side}_duplicate_tokens"] = space.duplicate_count
        counts[f"{side}_zero_rows"] = space.zero_row_count
    counts["parse_workers"] = max(src.parse_workers, tgt.parse_workers)
    counts["children_peak_rss_mb"] = f"{_maxrss_mb(resource.RUSAGE_CHILDREN):.1f}"
    return src, tgt


def _load_vocabularies(opts: argparse.Namespace):
    """Both vocabularies, for the commands that only look words up; no vector value is parsed."""
    return corpus.load_vocabulary(opts.src_emb, opts.max_vocab), corpus.load_vocabulary(opts.tgt_emb, opts.max_vocab)


def _load_side_tables(opts: argparse.Namespace, src_vocab, tgt_vocab):
    """Frequency, POS and external-score tables; a table the command does not declare is None."""
    pos_tgt, ext_scores = getattr(opts, "pos_tgt", None), getattr(opts, "ext_scores", None)
    return (
        corpus.load_frequency_table(opts.freq_src, src_vocab),
        corpus.load_frequency_table(opts.freq_tgt, tgt_vocab),
        corpus.load_pos_table(opts.pos_src, src_vocab),
        corpus.load_pos_table(pos_tgt, tgt_vocab) if pos_tgt else None,
        features.load_external_scores(ext_scores) if ext_scores else None,
    )


def _aligned_source(src, tgt, seed):
    """The source space Procrustes-aligned on a seed dictionary; src itself without one."""
    return src if seed is None else retrieval.apply_alignment(src, retrieval.align_procrustes(src, tgt, seed))


def _read_word_list(
    path: str | Path, vocab: corpus.Vocabulary, file_of: Callable[[str], str] | None = None
) -> list[int]:
    """Vocabulary ids of a one-word-per-line file, in file order; an unknown or repeated word is an error, and so
    is, given file_of, a word whose output file file_of(word) an earlier word already names."""
    ids: dict[int, None] = {}  # an ordered set
    files: dict[str, tuple[int, str]] = {}  # output file: the line and word that named it first
    for line_no, line in corpus._data_lines(Path(path)):
        word = corpus._nfc(line.strip())
        if word not in vocab:
            raise corpus.DataFormatError(f"{path}: line {line_no}: unknown word {word!r}")
        if vocab.id(word) in ids:
            raise corpus.DataFormatError(f"{path}: line {line_no}: repeated word {word!r}")
        ids[vocab.id(word)] = None
        if file_of is not None:
            first_line, first = files.setdefault(file_of(word), (line_no, word))
            if first_line != line_no:
                raise corpus.DataFormatError(
                    f"{path}: line {line_no}: {word!r} and {first!r} on line {first_line} both write {file_of(word)}"
                )
    return list(ids)


# ---------------------------------------------------------------- synth

SYNTH_SCHEMA = {
    "out_dir": OUT_DIR,
    "n": Option(int, 2000),
    "dim": Option(int, 64),
    "noise_sigma": Option(float, 0.0),
    "hub_count": Option(int, 0),
    "zipf_exponent": Option(float, 1.0),
    "pos_match_prob": Option(float, 0.9),
    "rank_jitter": Option(float, 0.1),
    "mean_offset": Option(float, 0.0),
    "test_fraction": Option(float, 0.3),
    "seed": SEED,
}


def cmd_synth(opts: argparse.Namespace, errors: list[str]) -> int:
    cfg = synth.SynthConfig(
        vocab_n=opts.n,
        dim=opts.dim,
        noise_sigma=opts.noise_sigma,
        hub_count=opts.hub_count,
        zipf_exponent=opts.zipf_exponent,
        pos_match_prob=opts.pos_match_prob,
        rank_jitter=opts.rank_jitter,
        mean_offset=opts.mean_offset,
        seed=opts.seed,
    )
    try:
        cfg.validate()
    except ValueError as e:
        errors.append(str(e))
    if not 0.0 < opts.test_fraction < 1.0:
        errors.append(f"--test-fraction must be in (0, 1), got {opts.test_fraction}")
    out = _output_dir(opts, errors)
    with _RunLog(out, "synth") as runlog:
        world = synth.gen_bilingual_world(cfg)
        train_dict, test_dict = synth.split_gold(world, opts.test_fraction)
        corpus.write_embeddings(world.src, out / "embeddings.src.vec")
        corpus.write_embeddings(world.tgt, out / "embeddings.tgt.vec")
        corpus.write_dictionary(world.gold, world.src.vocab, world.tgt.vocab, out / "dict.full.tsv")
        corpus.write_dictionary(train_dict, world.src.vocab, world.tgt.vocab, out / "dict.train.tsv")
        corpus.write_dictionary(test_dict, world.src.vocab, world.tgt.vocab, out / "dict.test.tsv")
        corpus.write_frequency_counts(world.counts_src, out / "freq.src.tsv")
        corpus.write_frequency_counts(world.counts_tgt, out / "freq.tgt.tsv")
        corpus.write_pos_tags(world.tags_src, out / "pos.src.tsv")
        corpus.write_pos_tags(world.tags_tgt, out / "pos.tgt.tsv")
        _write_kv(out / "world.meta", [
            ("vocab_n", cfg.vocab_n),
            ("dim", cfg.dim),
            ("noise_sigma", repr(cfg.noise_sigma)),
            ("hub_count", cfg.hub_count),
            ("zipf_exponent", repr(cfg.zipf_exponent)),
            ("pos_match_prob", repr(cfg.pos_match_prob)),
            ("rank_jitter", repr(cfg.rank_jitter)),
            ("mean_offset", repr(cfg.mean_offset)),
            ("test_fraction", repr(opts.test_fraction)),
            ("seed", cfg.seed),
            ("train_pairs", train_dict.pair_count()),
            ("test_pairs", test_dict.pair_count()),
        ])
        runlog.note("vocab_n", cfg.vocab_n)
    return 0


# ---------------------------------------------------------------- retrieve

RETRIEVE_SCHEMA = {
    "out_dir": OUT_DIR,
    "src_emb": INPUT,
    "tgt_emb": INPUT,
    "seed_dict": OPTIONAL_INPUT,
    "source_words": OPTIONAL_INPUT,
    "metric": Option(str, "csls", choices=("csls", "cosine")),
    "k_csls": K_CSLS,
    "top_k": TOP_K,
    "max_vocab": MAX_VOCAB,
    "threads": THREADS,
}


def cmd_retrieve(opts: argparse.Namespace, errors: list[str]) -> int:
    out = _output_dir(opts, errors)
    with _RunLog(out, "retrieve") as runlog:
        opts.threads = runlog.workers(opts.threads)
        with runlog.stage("load", vectors_parsed=1) as counts:
            src, tgt = _load_spaces(opts, counts)
            counts["vector_rows"] = len(src) + len(tgt)
            seed = corpus.load_dictionary(opts.seed_dict, src.vocab, tgt.vocab) if opts.seed_dict else None
            rows = None if opts.source_words is None else np.array(_read_word_list(opts.source_words, src.vocab))
        with runlog.stage("align"):
            src = _aligned_source(src, tgt, seed)

        params = retrieval.SimilarityParams(k_csls=opts.k_csls, top_k=opts.top_k)
        n_queries = len(src) if rows is None else len(rows)
        with runlog.stage("retrieve", queries=n_queries, top_k=opts.top_k) as counts:
            stats = retrieval.ScanStats()
            cands, _ = retrieval.retrieve_topk(
                src, tgt, params, metric=opts.metric, n_threads=opts.threads, rows=rows, stats=stats
            )
            counts.update(stats.fields())
        with runlog.stage("write"):
            retrieval.write_candidates(cands, src.vocab, tgt.vocab, out / "candidates.tsv")

        with runlog.stage("report"):
            skew_k = min(10, opts.top_k)
            report: list[tuple[str, object]] = [
                ("n_src", n_queries),
                ("n_tgt", len(tgt)),
                ("metric", opts.metric),
                ("k_csls", opts.k_csls),
                ("top_k", opts.top_k),
                ("hubness_skew_k", skew_k),
                ("hubness_skew", f"{retrieval.hubness_skew(cands, skew_k, len(tgt)):.6f}"),
                ("src_zero_rows", src.zero_row_count),
                ("tgt_zero_rows", tgt.zero_row_count),
                ("src_duplicates", src.duplicate_count),
                ("tgt_duplicates", tgt.duplicate_count),
            ]
            if seed is not None:
                eligible = [s for s in seed.sources() if s in cands]
                missed = sum(not set(cands.for_source(s)[0].tolist()) & set(seed.entries[s]) for s in eligible)
                report.append(("dict_sources_in_scope", len(eligible)))
                report.append(("gold_missed", missed))
                if eligible:
                    report.append(("gold_missed_rate", f"{missed / len(eligible):.6f}"))
            _write_kv(out / "retrieval_report.txt", report)
        runlog.note("n_src", n_queries)
    return 0


# ---------------------------------------------------------------- mine

MINE_SCHEMA = {
    "out_dir": OUT_DIR,
    "src_emb": INPUT,
    "tgt_emb": INPUT,
    "candidates": INPUT,
    "dict": INPUT,
    "n_neg": Option(int, 20, minimum=0),
    "max_vocab": MAX_VOCAB,
}


def cmd_mine(opts: argparse.Namespace, errors: list[str]) -> int:
    out = _output_dir(opts, errors)
    with _RunLog(out, "mine") as runlog:
        with runlog.stage("load", vectors_parsed=0) as counts:
            src_vocab, tgt_vocab = _load_vocabularies(opts)
            cands = retrieval.load_candidates(opts.candidates, src_vocab, tgt_vocab)
            dic = corpus.load_dictionary(opts.dict, src_vocab, tgt_vocab)
            counts.update(
                vector_rows=len(src_vocab) + len(tgt_vocab),
                candidate_rows=cands.cand_ids.size,
                oov_pairs=dic.oov_src + dic.oov_tgt,
            )
        with runlog.stage("mine") as counts:
            pairs = retrieval.mine_hard_negatives(dic, cands, n_neg=opts.n_neg)
            counts["rows"] = len(pairs)
        with runlog.stage("write"):
            retrieval.write_labeled_pairs(pairs, src_vocab, tgt_vocab, out / "hard_negatives.tsv")
        runlog.note("rows", len(pairs))
    return 0


# ---------------------------------------------------------------- train

TRAIN_SCHEMA = {
    "out_dir": OUT_DIR,
    "src_emb": INPUT,
    "tgt_emb": INPUT,
    "candidates": INPUT,
    "dict_train": INPUT,
    "freq_src": INPUT,
    "freq_tgt": INPUT,
    "pos_src": INPUT,
    "pos_tgt": INPUT,
    "ext_scores": OPTIONAL_INPUT,
    "mode": Option(str, "supervised", choices=("supervised", "semi")),
    "n_aug": Option(int, 4000, minimum=0),
    "k_csls": K_CSLS,
    "n_trees": Option(int, 200),
    "max_depth": Option(int, 3),
    "learning_rate": Option(float, 0.1),
    "min_child_weight": Option(float, 1.0),
    "l2_leaf_reg": Option(float, 1.0),
    "sigma": Option(float, 1.0),
    "seed": SEED,
    "no_pos": Option(_as_bool, False),
    "no_freq": Option(_as_bool, False),
    "mix_search": Option(_as_bool, False),
    "dump_features": Option(_as_bool, False),
    "max_vocab": MAX_VOCAB,
    "threads": THREADS,
}


def _build_schema(opts: argparse.Namespace) -> features.FeatureSchema:
    disabled = []
    if opts.no_pos:
        disabled.append("pos")
    if opts.no_freq:
        disabled.append("freq")
    return features.FeatureSchema(disabled=tuple(disabled))


def _extend_candidates(cands, missing: list[int], src, tgt, k_csls: int, threads, means=None, stats=None):
    """Retrieve candidate lists, as wide as the loaded file's, for sources absent
    from it, scored against the neighborhood means of the whole spaces (those
    of a run over every source if given, else computed)."""
    params = retrieval.SimilarityParams(k_csls=k_csls, top_k=cands.cand_ids.shape[1])
    extra, _ = retrieval.retrieve_topk(
        src, tgt, params, n_threads=threads, rows=np.array(missing), means=means, stats=stats
    )
    return retrieval.CandidateSet.from_arrays(
        np.concatenate([cands.src_ids, np.array(missing, dtype=np.int64)]),
        np.concatenate([cands.cand_ids, extra.cand_ids]),
        np.concatenate([cands.scores, extra.scores]),
    )


def cmd_train(opts: argparse.Namespace, errors: list[str]) -> int:
    gparams = ltr.GbdtParams(
        n_trees=opts.n_trees,
        max_depth=opts.max_depth,
        learning_rate=opts.learning_rate,
        min_child_weight=opts.min_child_weight,
        l2_leaf_reg=opts.l2_leaf_reg,
        sigma=opts.sigma,
    )
    try:
        gparams.validate()
    except ValueError as e:
        errors.append(str(e))
    out = _output_dir(opts, errors)
    with _RunLog(out, "train") as runlog:
        opts.threads = runlog.workers(opts.threads)
        need_vectors = opts.mode == "semi" and opts.n_aug > 0
        with runlog.stage("load", vectors_parsed=int(need_vectors)) as counts:
            if need_vectors:
                src, tgt = _load_spaces(opts, counts)
                src_vocab, tgt_vocab = src.vocab, tgt.vocab
            else:
                src_vocab, tgt_vocab = _load_vocabularies(opts)
            dic = corpus.load_dictionary(opts.dict_train, src_vocab, tgt_vocab)
            cands = retrieval.load_candidates(opts.candidates, src_vocab, tgt_vocab)
            if not cands.src_ids.size:  # semi mode takes its list width from the file
                raise corpus.DataFormatError(f"{opts.candidates}: no candidate rows")
            freq_src, freq_tgt, pos_src, pos_tgt, ext = _load_side_tables(opts, src_vocab, tgt_vocab)
            counts.update(
                vector_rows=len(src_vocab) + len(tgt_vocab),
                candidate_rows=cands.cand_ids.size,
                oov_pairs=dic.oov_src + dic.oov_tgt,
            )

        if need_vectors:
            with runlog.stage("augment", candidate_width=cands.cand_ids.shape[1]) as counts:
                top1 = retrieval.SimilarityParams(k_csls=opts.k_csls, top_k=1)
                top1.validate(len(tgt))  # before Procrustes and the similarity passes
                # aligned in place: the unaligned matrix is freed before the similarity passes
                src = _aligned_source(src, tgt, dic)
                stats = retrieval.ScanStats()
                back = np.empty(len(tgt), dtype=np.int64)  # each target's CSLS argmax over sources
                best, means = retrieval.retrieve_topk(src, tgt, top1, n_threads=opts.threads, stats=stats, back=back)
                mined = retrieval.mutual_nn_pairs(best, back)
                dic = retrieval.augment_dictionary(dic, mined, opts.n_aug)
                missing = [s for s in dic.sources() if s not in cands]
                if missing:
                    cands = _extend_candidates(cands, missing, src, tgt, opts.k_csls, opts.threads, means, stats)
                # featurize and fit need only the vocabularies, the dictionary and the candidates
                del src, tgt, best, means, back
                counts.update(mined_pairs=len(mined), retrieved_sources=len(missing), **stats.fields())
            runlog.note("augmented_to", len(dic))

        schema = _build_schema(opts)
        with runlog.stage("featurize") as counts:
            groups = features.build_groups(
                dic.sources(), cands, freq_src, freq_tgt, pos_src, pos_tgt,
                src_vocab, tgt_vocab, dic=dic, ext=ext, schema=schema,
            )
            if opts.dump_features:
                features.write_feature_matrix(groups, src_vocab, tgt_vocab, out / "features.tsv")
            n_rows = groups.labels.size
            counts.update(groups=len(groups), rows=n_rows, gold_missed=int(groups.gold_missed.sum()))

        meta: dict = {}
        if opts.mix_search:
            with runlog.stage("mix_search"):
                meta["recommended_mix"] = _search_mix(groups, gparams, schema, opts.seed)

        positives = groups.labels.sum(axis=1)[groups.trainable]
        with runlog.stage(
            "fit", trees=gparams.n_trees, rows=n_rows,
            trainable_groups=positives.size, multi_positive_groups=int((positives > 1).sum()),
        ) as counts:
            stats = ltr.FitStats()
            model, trace = ltr.train(groups, gparams, schema, stats)
            counts.update(stats.fields())
        model.meta.update(meta)
        with runlog.stage("write"):
            ltr.save_model(model, out / "model.json")
            _write_kv(out / "train_trace.tsv", [("round", "train_map")] + [(r, f"{v:.6f}") for r, v in trace])
        runlog.note("final_train_map", f"{trace[-1][1]:.6f}")
    return 0


def _search_mix(groups, gparams, schema, seed: int) -> float:
    """Pick the blend weight on a held-out 10% slice of the training groups."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1001,)))
    perm = rng.permutation(len(groups))
    n_held = max(1, len(groups) // 10)
    held, rest = groups.take(perm[:n_held]), groups.take(perm[n_held:])
    if not rest.trainable.any():
        log.warning("mix search skipped: no trainable group outside the held-out slice")
        return 0.5
    model, _ = ltr.train(rest, gparams, schema)
    ranker = ltr.predict_groups(model, held)
    best_mix, best_p1 = 0.5, -1.0
    for mix in [x / 10 for x in range(1, 10)]:
        combined = ltr.combine_with_retriever(ranker, held.csls, mix)
        p1 = evaluation.precision_at_1(held, combined)
        if p1 > best_p1:
            best_mix, best_p1 = mix, p1
    return best_mix


# ---------------------------------------------------------------- eval

EVAL_SCHEMA = {
    "out_dir": OUT_DIR,
    "src_emb": INPUT,
    "tgt_emb": INPUT,
    "model": INPUT,
    "candidates": INPUT,
    "dict_test": INPUT,
    "freq_src": INPUT,
    "freq_tgt": INPUT,
    "pos_src": INPUT,
    "pos_tgt": INPUT,
    "ext_scores": OPTIONAL_INPUT,
    "mix": Option(float, const=0.5),
    "errors_only": Option(_as_bool, False),
    "max_vocab": MAX_VOCAB,
}


def cmd_eval(opts: argparse.Namespace, errors: list[str]) -> int:
    if opts.mix is not None and not 0.0 <= opts.mix <= 1.0:
        errors.append(f"--mix must be in [0, 1], got {opts.mix}")
    out = _output_dir(opts, errors)
    with _RunLog(out, "eval") as runlog:
        with runlog.stage("load", vectors_parsed=0) as counts:
            src_vocab, tgt_vocab = _load_vocabularies(opts)
            model = ltr.load_model(opts.model)
            dic = corpus.load_dictionary(opts.dict_test, src_vocab, tgt_vocab)
            cands = retrieval.load_candidates(opts.candidates, src_vocab, tgt_vocab)
            freq_src, freq_tgt, pos_src, pos_tgt, ext = _load_side_tables(opts, src_vocab, tgt_vocab)
            counts.update(
                vector_rows=len(src_vocab) + len(tgt_vocab),
                candidate_rows=cands.cand_ids.size,
                oov_pairs=dic.oov_src + dic.oov_tgt,
            )

        with runlog.stage("featurize") as counts:
            groups = features.build_groups(
                dic.sources(), cands, freq_src, freq_tgt, pos_src, pos_tgt,
                src_vocab, tgt_vocab, dic=dic, ext=ext, schema=model.schema,
            )
            n_rows = groups.labels.size
            counts.update(groups=len(groups), rows=n_rows, gold_missed=int(groups.gold_missed.sum()))
        with runlog.stage("predict", rows=n_rows, trees=len(model.trees)):
            scores = ltr.predict_groups(model, groups)
            if opts.mix is not None:
                scores = ltr.combine_with_retriever(scores, groups.csls, opts.mix)

        with runlog.stage("report"):
            report = evaluation.build_eval_report(groups, scores, dic, freq_src, freq_tgt, pos_src, opts.errors_only)
            _write_kv(out / "eval_report.txt", [
                ("n_eval", report.n_eval),
                ("p_at_1", f"{report.p_at_1:.6f}"),
                ("p_at_1_x100", f"{report.p_at_1 * 100:.2f}"),
                ("p_at_1_retriever", f"{report.p_at_1_retriever:.6f}"),
                ("ranker_fixed", report.ranker_fixed),
                ("ranker_broke", report.ranker_broke),
                ("gold_missed", report.gold_missed),
                ("mix", "none" if opts.mix is None else repr(opts.mix)),
                ("errors_only", int(opts.errors_only)),
                ("freq_absdiff_gold_zipf", f"{report.freq_diff.gold_zipf:.6f}"),
                ("freq_absdiff_predicted_zipf", f"{report.freq_diff.predicted_zipf:.6f}"),
                ("freq_absdiff_gold_logrank", f"{report.freq_diff.gold_logrank:.6f}"),
                ("freq_absdiff_predicted_logrank", f"{report.freq_diff.predicted_logrank:.6f}"),
            ])
            evaluation.write_per_pos(report.per_pos, out / "per_pos.tsv")
            records = evaluation.explain_predictions(groups, scores, src_vocab, tgt_vocab, freq_src, freq_tgt, pos_src, pos_tgt)
            evaluation.write_explanations(records, out / "explanations.tsv")
        runlog.note("p_at_1", f"{report.p_at_1:.6f}")
        runlog.note("p_at_1_retriever", f"{report.p_at_1_retriever:.6f}")
    return 0


# ---------------------------------------------------------------- analyze

ANALYZE_SCHEMA = {
    "out_dir": OUT_DIR,
    "src_emb": INPUT,
    "tgt_emb": INPUT,
    "dict": INPUT,
    "freq_src": INPUT,
    "freq_tgt": INPUT,
    "pos_src": INPUT,
    "seed_dict": OPTIONAL_INPUT,
    "words": OPTIONAL_INPUT,
    "pair_label": Option(str, "src-tgt"),
    "min_n": Option(int, 10, minimum=2),
    "k_csls": K_CSLS,
    "top_k": TOP_K,
    "max_vocab": MAX_VOCAB,
    "threads": THREADS,
}


def _pca_file(word: str) -> str:
    """The name of a word's PCA export: every character of the word but letters and digits becomes "_"."""
    cleaned = "".join(c if c.isalnum() else "_" for c in word)
    return f"pca_{cleaned or 'word'}.tsv"


def cmd_analyze(opts: argparse.Namespace, errors: list[str]) -> int:
    out = _output_dir(opts, errors)
    with _RunLog(out, "analyze") as runlog:
        opts.threads = runlog.workers(opts.threads)
        need_vectors = opts.words is not None
        with runlog.stage("load", vectors_parsed=int(need_vectors)) as counts:
            if need_vectors:
                src, tgt = _load_spaces(opts, counts)
                src_vocab, tgt_vocab = src.vocab, tgt.vocab
                seed = corpus.load_dictionary(opts.seed_dict, src_vocab, tgt_vocab) if opts.seed_dict else None
                word_ids = _read_word_list(opts.words, src_vocab, _pca_file)
            else:
                src_vocab, tgt_vocab = _load_vocabularies(opts)
            dic = corpus.load_dictionary(opts.dict, src_vocab, tgt_vocab)
            freq_src, freq_tgt, pos_src, _, _ = _load_side_tables(opts, src_vocab, tgt_vocab)
            counts.update(vector_rows=len(src_vocab) + len(tgt_vocab), oov_pairs=dic.oov_src + dic.oov_tgt)

        with runlog.stage("grid"):
            grid = evaluation.pos_freq_correlation(dic, freq_src, freq_tgt, pos_src, min_n=opts.min_n)
            evaluation.write_correlation_grid(grid, opts.pair_label, out / "pos_correlation.tsv")

        if need_vectors:
            with runlog.stage("pca") as counts:
                src_aligned = _aligned_source(src, tgt, seed)
                counts["words"] = len(word_ids)
                params = retrieval.SimilarityParams(k_csls=opts.k_csls, top_k=opts.top_k)
                cands, _ = retrieval.retrieve_topk(
                    src_aligned, tgt, params, n_threads=opts.threads, rows=np.array(word_ids)
                )
                for row, s in enumerate(word_ids):
                    word = src.vocab.word(s)
                    if s not in dic.entries:
                        log.warning("analyze: %r has no gold entry, skipping PCA export", word)
                        continue
                    gold = dic.entries[s][0]
                    vectors = np.vstack([
                        src_aligned.matrix[s],
                        tgt.matrix[gold],
                        tgt.matrix[cands.cand_ids[row]],
                    ])
                    coords = evaluation.pca_project(vectors)
                    rows = [(word, "source", coords[0, 0], coords[0, 1]),
                            (tgt.vocab.word(gold), "gold", coords[1, 0], coords[1, 1])]
                    rows += [
                        (tgt.vocab.word(int(c)), "candidate", coords[2 + i, 0], coords[2 + i, 1])
                        for i, c in enumerate(cands.cand_ids[row])
                    ]
                    evaluation.write_pca_coordinates(rows, out / _pca_file(word))
    return 0


# ---------------------------------------------------------------- parser

# name, help text, options, function
COMMANDS = (
    ("synth", "generate a synthetic bilingual world", SYNTH_SCHEMA, cmd_synth),
    ("retrieve", "align and retrieve top-k candidates", RETRIEVE_SCHEMA, cmd_retrieve),
    ("mine", "export hard-negative training pairs", MINE_SCHEMA, cmd_mine),
    ("train", "train the lexical-feature boosted ranker", TRAIN_SCHEMA, cmd_train),
    ("eval", "rank test groups and report accuracy", EVAL_SCHEMA, cmd_eval),
    ("analyze", "correlation grid and PCA coordinate export", ANALYZE_SCHEMA, cmd_analyze),
)
# one config file may serve every command, so a key is known if any command declares it
CONFIG_KEYS = frozenset(key for _, _, schema, _ in COMMANDS for key in schema)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bilex", description="Bilingual lexicon induction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, schema, func in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file; flags win")
        for key, opt in schema.items():
            if opt.conv is _as_bool:
                p.add_argument(_flag(key), action="store_true", default=None)
            else:
                nargs = None if opt.const is None else "?"
                p.add_argument(_flag(key), type=opt.conv, choices=opt.choices or None, nargs=nargs, const=opt.const)
        p.set_defaults(schema=schema, func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts, errors = resolve_options(args, args.schema)
        return args.func(opts, errors)
    except Exception as e:
        failure = _failure(e)
        if failure is None:
            raise
        code, prefix = failure
        for msg in e.errors if isinstance(e, ConfigError) else [e]:
            print(f"{prefix}: {msg}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
