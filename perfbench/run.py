"""bilex benchmark: the real CLI commands, one process each, on seeded worlds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

After an unmeasured warm-up process (imports only), the workload's command
sequence is repeated for about S seconds. Untraced (``--trace 0``, at least
two passes) the end-to-end metrics are per-command medians over the
passes, rescaled to a reference machine speed (calib.py). Traced
(``--trace 1``) each repetition is an untraced pass followed by a traced
one; the per-layer metrics come from the spans. The
last stdout line is one JSON object; the full record (environment, input
and output digests, every repetition, quartiles) goes to .bench_results/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calib
import inputs

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).resolve().parent / "launch.py"
CACHE = ROOT / ".bench_cache"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

MIN_REPEATS = 2          # untraced passes per run; byte-identity needs two
RUN_BUDGET_S = 165.0     # the whole run, generation included, ends before 180 s
COMMANDS = ("retrieve", "mine", "train", "eval", "analyze")

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "p_at_1": ("fraction", "higher"),
}

PER_LAYER = {
    "corpus.load_embeddings.s": ("s", "lower"),
    "corpus.load_embeddings.rows": ("count", "higher"),
    "corpus.load_embeddings.mb_per_s": ("MB/s", "higher"),
    "corpus.load_dictionary.s": ("s", "lower"),
    "corpus.load_frequency_table.s": ("s", "lower"),
    "corpus.load_pos_table.s": ("s", "lower"),
    "retrieval.load_candidates.s": ("s", "lower"),
    "retrieval.load_candidates.rows": ("count", "higher"),
    "retrieval.align_procrustes.s": ("s", "lower"),
    "retrieval.knn_mean_similarity.s": ("s", "lower"),
    "retrieval.knn_mean_similarity.cpu_s": ("s", "lower"),
    "retrieval.knn_mean_similarity.calls": ("count", "lower"),
    "retrieval.knn_mean_similarity.gflop": ("GFLOP", "lower"),
    "retrieval.retrieve_topk.self_s": ("s", "lower"),
    "retrieval.retrieve_topk.cpu_s": ("s", "lower"),
    "retrieval.retrieve_topk.gflop": ("GFLOP", "lower"),
    "retrieval.retrieve_topk.gflop_per_s": ("GFLOP/s", "higher"),
    "retrieval.mutual_nn_pairs.self_s": ("s", "lower"),
    "retrieval.mutual_nn_pairs.pairs": ("count", "higher"),
    "retrieval.mine_hard_negatives.s": ("s", "lower"),
    "retrieval.write_candidates.s": ("s", "lower"),
    "retrieval.thread_speedup": ("x", "higher"),
    "features.build_groups.s": ("s", "lower"),
    "features.build_groups.rows": ("count", "higher"),
    "features.build_groups.rows_per_s": ("rows/s", "higher"),
    "ltr.train.self_s": ("s", "lower"),
    "ltr.fit_tree.s": ("s", "lower"),
    "ltr.fit_tree.cpu_s": ("s", "lower"),
    "ltr.fit_tree.calls": ("count", "lower"),
    "ltr.tree_predict.s": ("s", "lower"),
    "ltr.tree_predict.calls": ("count", "lower"),
    "ltr.tree_predict.rows": ("count", "lower"),
    "ltr.mean_ap.s": ("s", "lower"),
    "ltr.mean_ap.calls": ("count", "lower"),
    "ltr.compute_lambdas.s": ("s", "lower"),
    "ltr.compute_lambdas.calls": ("count", "lower"),
    "ltr.predict_groups.s": ("s", "lower"),
    "ltr.save_model.s": ("s", "lower"),
    "ltr.load_model.s": ("s", "lower"),
    "evaluation.build_eval_report.s": ("s", "lower"),
    "evaluation.explain_predictions.s": ("s", "lower"),
    "evaluation.pos_freq_correlation.s": ("s", "lower"),
    **{f"cli.{c}.{q}": ("s", "lower") for c in COMMANDS for q in ("s", "cpu_s", "startup_s", "self_s")},
    "retrieve.words_per_s": ("words/s", "higher"),
    "train.row_rounds_per_s": ("row-rounds/s", "higher"),
    "eval.groups_per_s": ("groups/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

# ------------------------------------------------------------------ workloads


def _vectors(i: Path) -> list[str]:
    return ["--src-emb", str(i / "src.vec"), "--tgt-emb", str(i / "tgt.vec")]


def _tables(i: Path) -> list[str]:
    return [
        "--freq-src", str(i / "freq.src.tsv"), "--freq-tgt", str(i / "freq.tgt.tsv"),
        "--pos-src", str(i / "pos.src.tsv"), "--pos-tgt", str(i / "pos.tgt.tsv"),
    ]


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload and its deterministic outputs."""

    command: str
    extra: tuple[str, ...]       # arguments beyond the shared input files
    outputs: tuple[str, ...]
    threaded: bool = False       # takes --threads

    def argv(self, i: Path, out: dict[str, Path], threads: int) -> list[str]:
        if self.command == "retrieve":
            files = _vectors(i) + ["--seed-dict", str(i / "dict.train.tsv")]
        elif self.command == "mine":
            files = _vectors(i) + ["--candidates", str(i / "candidates.tsv"), "--dict", str(i / "dict.train.tsv")]
        elif self.command == "train":
            files = _vectors(i) + _tables(i) + [
                "--candidates", str(i / "candidates.tsv"), "--dict-train", str(i / "dict.train.tsv")]
        elif self.command == "eval":
            files = _vectors(i) + _tables(i) + [
                "--candidates", str(i / "candidates.tsv"), "--dict-test", str(i / "dict.test.tsv"),
                "--model", str(out["train"] / "model.json")]
        else:  # analyze, without --words
            files = _vectors(i) + _tables(i)[:6] + ["--dict", str(i / "dict.full.tsv")]
        return [self.command, "--out-dir", str(out[self.command]), *files, *self.extra,
                *(["--threads", str(threads)] if self.threaded else [])]


@dataclass(frozen=True)
class Workload:
    spec: inputs.WorldSpec
    steps: tuple[Step, ...]


EVAL = Step("eval", (), ("eval_report.txt", "per_pos.tsv", "explanations.tsv"))

WORKLOADS = {
    # retrieve once per language pair: full-vocabulary CSLS on a large target
    # space; features, ltr and evaluation stay idle
    "retrieve-5kx20k": Workload(
        inputs.WorldSpec(n_tgt=20_000, n_src=5_000, dim=300, sigma=0.15, n_train=2_000, n_test=3_000,
                         oracle_rows=100),
        (Step("retrieve", (), ("candidates.tsv",), threaded=True),),
    ),
    # the supervised train/eval ablation loop on a precomputed candidate file;
    # retrieval does no work, every command still parses both vector files
    "rank-3k": Workload(
        inputs.WorldSpec(n_tgt=3_000, n_src=3_000, dim=300, sigma=0.15, n_train=1_000, n_test=1_000,
                         n_align=1_000, candidates="all"),
        (
            Step("mine", (), ("hard_negatives.tsv",)),
            Step("train", ("--n-trees", "20"), ("model.json", "train_trace.tsv")),
            EVAL,
            Step("analyze", (), ("pos_correlation.tsv",)),
        ),
    ),
    # semi-supervised training: mutual-NN mining, scoped retrieval of the
    # appended sources, multi-positive groups through compute_lambdas
    "semi-6k-multi": Workload(
        inputs.WorldSpec(n_tgt=6_000, n_src=6_000, dim=300, sigma=0.09, n_train=500, n_test=1_000,
                         second_target=0.4, candidates="dict"),
        (
            Step("train", ("--mode", "semi", "--n-aug", "800", "--n-trees", "20"), ("model.json", "train_trace.tsv")),
            EVAL,
        ),
    ),
}

# ------------------------------------------------------------------ processes


@dataclass
class CommandRun:
    command: str
    rc: int
    wall_s: float
    startup_s: float
    cpu_s: float
    maxrss_mb: float
    record: dict
    ref_s: tuple[float, float]   # calib.reference_s() right before the spawn and right after the exit


def spawn(argv: list[str], mode: str, run_id: str, work: Path, deadline: float, ref_before: float) -> CommandRun:
    """Run one bilex command through launch.py; timed from spawn to exit.

    ``ref_before`` is the reference kernel's time taken just before; the
    kernel runs again right after the exit, so that the two bracket the
    machine's speed during the command.
    """
    work.mkdir(parents=True, exist_ok=True)
    record_path = work / f"{argv[0]}.{mode}.record.json"
    record_path.unlink(missing_ok=True)
    with open(work / f"{argv[0]}.{mode}.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), str(record_path), mode, run_id, "--", *argv],
            stdout=log, stderr=log, stdin=subprocess.DEVNULL, cwd=ROOT,
        )
        killer = threading.Timer(max(1.0, deadline - t_spawn), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t_exit = time.monotonic()
    ref_after = calib.reference_s()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):  # killed before the record was written
        record = {}
    return CommandRun(
        command=argv[0],
        rc=proc.returncode,
        wall_s=t_exit - t_spawn,
        startup_s=record.get("t_main", t_exit) - t_spawn,
        cpu_s=usage.ru_utime + usage.ru_stime,
        # ru_maxrss also counts this process's own memory (vfork and exec keep it)
        maxrss_mb=record.get("peak_rss_mb") or usage.ru_maxrss / 1024.0,
        record=record,
        ref_s=(ref_before, ref_after),
    )


# ------------------------------------------------------------------ checks


class Checks:
    """Operations attempted and failed: command runs and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_candidates(path: Path, oracle_words: set[str]) -> tuple[dict[str, str], dict[str, list[tuple[str, float]]]]:
    """First candidate per source, and the full rows of the oracle sources."""
    first: dict[str, str] = {}
    rows: dict[str, list[tuple[str, float]]] = {w: [] for w in oracle_words}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            src, cand, score = line.rstrip("\n").split("\t")
            first.setdefault(src, cand)
            if src in rows:
                rows[src].append((cand, float(score)))
    return first, rows


def check_retrieval(checks: Checks, path: Path, manifest: dict, n_src: int, label: str) -> dict:
    """Oracle equality on the sampled rows; returns words written and retriever P@1."""
    oracle = manifest["oracle"]
    first, rows = read_candidates(path, set(oracle))
    checks.check(len(first) == n_src, f"{label}: candidate lists for {len(first)} of {n_src} sources")
    bad = []
    for word, want in oracle.items():
        got = rows[word]
        ids_ok = [c for c, _ in got] == want["ids"]
        # the file keeps six decimals: half a unit in the last place, plus slack
        scores_ok = len(got) == len(want["scores"]) and all(
            abs(v - w) <= 5e-7 + 1e-9 for (_, v), w in zip(got, want["scores"]))
        if not (ids_ok and scores_ok):
            bad.append(word)
    checks.check(not bad, f"{label}: {len(bad)} of {len(oracle)} sampled rows differ from the CSLS oracle: {bad[:5]}")
    gold = manifest["gold"]
    hits = sum(first.get(s) in targets for s, targets in gold.items())
    return {"words": len(first), "p_at_1": hits / len(gold)}


def check_eval(checks: Checks, out: Path, manifest: dict, label: str) -> dict:
    """Cross-check eval_report.txt against explanations.tsv and the gold targets."""
    with open(out / "eval_report.txt", encoding="utf-8") as fh:
        report = dict(line.rstrip("\n").split("\t", 1) for line in fh)
    with open(out / "explanations.tsv", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        recs = [dict(zip(header, line.rstrip("\n").split("\t"))) for line in fh]
    gold = manifest["gold"]
    n_eval = int(report["n_eval"])
    p_at_1 = float(report["p_at_1"])
    checks.check(n_eval == len(gold) == len(recs), f"{label}: n_eval {n_eval}, {len(recs)} explanations, {len(gold)} test sources")
    wrong = [r["src"] for r in recs if int(r["correct"]) != int(r["pred"] in gold.get(r["src"], ()))]
    checks.check(not wrong, f"{label}: correctness flag disagrees with the gold targets for {wrong[:5]}")
    hits = sum(int(r["correct"]) for r in recs)
    checks.check(recs and abs(p_at_1 - hits / len(recs)) <= 5e-7, f"{label}: p_at_1 {p_at_1} but {hits}/{len(recs)} correct")
    return {"p_at_1": p_at_1, "groups": n_eval}


# ------------------------------------------------------------------ one pass


@dataclass
class Pass:
    mode: str
    runs: list[CommandRun]
    digests: dict[str, str]
    facts: dict
    ok: bool


def run_pass(name: str, wl: Workload, inp: Path, manifest: dict, work: Path, mode: str, tag: str,
             threads: int, deadline: float, checks: Checks) -> Pass:
    """Run the workload's commands once; ok when every command ran and its outputs parsed."""
    out = {s.command: work / tag / s.command for s in wl.steps}
    runs, digests, facts = [], {}, {}
    ref = calib.reference_s()
    for step in wl.steps:
        label = f"{tag}/{step.command}"
        run = spawn(step.argv(inp, out, threads), mode, f"{name}/{label}", work / tag, deadline, ref)
        ref = run.ref_s[1]  # the kernel after one command is the kernel before the next
        runs.append(run)
        if not checks.check(run.rc == 0, f"{label}: exit code {run.rc} (see {work / tag / step.command}.{mode}.log)"):
            return Pass(mode, runs, digests, facts, False)
        try:
            for fname in step.outputs:
                digests[f"{step.command}/{fname}"] = sha256(out[step.command] / fname)
            if step.command == "retrieve":
                facts.update(check_retrieval(checks, out["retrieve"] / "candidates.tsv", manifest, wl.spec.n_src, label))
            elif step.command == "eval":
                facts.update(check_eval(checks, out["eval"], manifest, label))
        except (OSError, ValueError, KeyError) as e:
            checks.check(False, f"{label}: unreadable output: {e!r}")
            return Pass(mode, runs, digests, facts, False)
    return Pass(mode, runs, digests, facts, True)


def command_values(run: CommandRun, rescale: bool) -> dict[str, float]:
    """Times of one command, rescaled to the reference speed unless ``rescale`` is false."""
    loader_s = sum(
        s["end"] - s["start"] for s in run.record.get("spans", ())
        if s["parent"] is None and s["name"].split(".")[-1].startswith("load_")
    )
    scale = calib.NOMINAL_S / statistics.mean(run.ref_s) if rescale else 1.0
    return {"wall_s": run.wall_s * scale, "setup_s": (run.startup_s + loader_s) * scale, "peak_rss_mb": run.maxrss_mb}


def end_to_end(passes: list[Pass], rescale: bool = True) -> dict[str, float]:
    """Times: per command the median over passes, summed over commands.

    Each command's times are rescaled by calib.NOMINAL_S over the mean
    reference kernel time just before and just after it, so that they read
    as seconds at the reference speed; ``rescale=False`` gives the measured
    seconds.

    Peak RSS is the largest of any command in any pass: with worker threads
    the peak depends on how blocks interleave, and a user provisions for
    the largest one.
    """
    per_pass = [[command_values(r, rescale) for r in p.runs] for p in passes]

    def med(key: str) -> list[float]:
        return [statistics.median(cmds[c][key] for cmds in per_pass) for c in range(len(per_pass[0]))]

    return {
        "wall_s": sum(med("wall_s")),
        "setup_s": sum(med("setup_s")),
        "peak_rss_mb": max(v["peak_rss_mb"] for cmds in per_pass for v in cmds),
        "p_at_1": passes[0].facts["p_at_1"],
    }


# ------------------------------------------------------------------ per layer


def layer_metrics(traced: Pass, plain: Pass, single: Pass | None) -> dict[str, float]:
    """PER_LAYER values of one traced pass, summed over its commands.

    Throughputs divide work counted in the traced pass by command wall
    times of the untraced pass ``plain``; ``single`` is the one-thread
    retrieval pass, if any.
    """
    m = {name: 0.0 for name in PER_LAYER}
    by_id_children: dict[tuple[int, int], float] = {}
    for k, run in enumerate(traced.runs):
        spans = run.record.get("spans", [])
        for s in spans:
            if s["parent"] is not None:
                key = (k, s["parent"])
                by_id_children[key] = by_id_children.get(key, 0.0) + s["end"] - s["start"]
        top = 0.0
        for s in spans:
            dur = s["end"] - s["start"]
            self_s = dur - by_id_children.get((k, s["id"]), 0.0) - s["aggregated_child_s"]
            base = s["name"]
            for q, v in (("s", dur), ("self_s", self_s), ("cpu_s", s["cpu_s"]), ("calls", 1)):
                if f"{base}.{q}" in m:
                    m[f"{base}.{q}"] += v
            for q, v in s.get("counts", {}).items():
                m[f"{base}.{q}"] = m.get(f"{base}.{q}", 0.0) + v
            if s["parent"] is None:
                top += dur
        for agg, a in run.record.get("aggregates", {}).items():
            for q in ("s", "calls", "rows"):
                if f"{agg}.{q}" in m:
                    m[f"{agg}.{q}"] += a[q]
        top += run.record.get("aggregated_top_s", 0.0)
        c = run.command
        m[f"cli.{c}.s"] += run.wall_s
        m[f"cli.{c}.cpu_s"] += run.cpu_s
        m[f"cli.{c}.startup_s"] += run.startup_s
        m[f"cli.{c}.self_s"] += run.wall_s - run.startup_s - top

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    m["corpus.load_embeddings.mb_per_s"] = ratio(m.pop("corpus.load_embeddings.bytes", 0.0) / 1e6, m["corpus.load_embeddings.s"])
    m["retrieval.retrieve_topk.gflop_per_s"] = ratio(m["retrieval.retrieve_topk.gflop"], m["retrieval.retrieve_topk.self_s"])
    m["features.build_groups.rows_per_s"] = ratio(m["features.build_groups.rows"], m["features.build_groups.s"])
    if single is not None:
        one = sum(s["end"] - s["start"] for r in single.runs for s in r.record.get("spans", ()) if s["name"] == "retrieval.retrieve_topk")
        many = sum(s["end"] - s["start"] for r in traced.runs for s in r.record.get("spans", ()) if s["name"] == "retrieval.retrieve_topk")
        m["retrieval.thread_speedup"] = ratio(one, many)

    wall = {r.command: r.wall_s for r in plain.runs}
    if "retrieve" in wall:
        m["retrieve.words_per_s"] = ratio(plain.facts["words"], wall["retrieve"])
    if "train" in wall:
        spans = [s for r in traced.runs if r.command == "train" for s in r.record.get("spans", ())]
        rows = sum(s.get("counts", {}).get("rows", 0) for s in spans if s["name"] == "features.build_groups")
        rounds = sum(s["name"] == "ltr.fit_tree" for s in spans)
        m["train.row_rounds_per_s"] = ratio(rows * rounds, wall["train"])
    if "eval" in wall:
        m["eval.groups_per_s"] = ratio(plain.facts["groups"], wall["eval"])
    return {k: m[k] for k in PER_LAYER}


# ------------------------------------------------------------------ records


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "BILEX_THREADS")},
        "git_commit": commit,
    }


def summarize(samples: list[float]) -> dict:
    if len(samples) >= 2:
        q1, med, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = med = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bilex" / "cli.py").is_file():
        print(f"run.py: no bilex sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("run.py: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    deadline = t_start + RUN_BUDGET_S
    name, wl = args.workload, WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))  # bilex.synth builds the vectors
    inp, manifest, gen_s, cache_hit = inputs.prepare(CACHE, name, wl.spec, args.seed)
    input_digests = {f: sha256(inp / f) for f in sorted(manifest["digests"])}  # also warms the page cache
    if input_digests != manifest["digests"]:  # a damaged cache entry is built again
        shutil.rmtree(inp)
        inp, manifest, gen_s, cache_hit = inputs.prepare(CACHE, name, wl.spec, args.seed)
        input_digests = manifest["digests"]
    shutil.rmtree(WORK, ignore_errors=True)  # outputs of the previous run
    work = WORK / f"{name}-s{args.seed}"
    threads = len(os.sched_getaffinity(0))
    checks = Checks()
    # one process that only imports fills the bytecode and file caches; a
    # whole warm-up pass would take run time better spent on measured passes
    warm = spawn(["warm"], "warm", f"{name}/warm", work, deadline, calib.reference_s())
    warm_ok = checks.check(warm.rc == 0, f"warm-up: exit code {warm.rc} (see {work}/warm.warm.log)")

    plain: list[Pass] = []
    traced: list[Pass] = []
    single: Pass | None = None
    t0 = time.monotonic()
    while warm_ok:
        k = len(plain)
        plain.append(run_pass(name, wl, inp, manifest, work, "setup", f"p{k}", threads, deadline, checks))
        if not plain[-1].ok:
            break
        if args.trace:
            traced.append(run_pass(name, wl, inp, manifest, work, "trace", f"t{k}", threads, deadline, checks))
            if not traced[-1].ok:
                break
            if single is None and any(s.command == "retrieve" for s in wl.steps):
                # worker-count baseline: the same retrieval on one thread
                single = run_pass(name, wl, inp, manifest, work, "trace", "t1thread", 1, deadline, checks)
        now = time.monotonic()
        per_repeat = (now - t0) / len(plain)
        if len(plain) >= (1 if args.trace else MIN_REPEATS) and now - t0 + per_repeat > args.seconds:
            break
        if now + per_repeat > deadline:
            break

    # every deterministic output equals its first occurrence, in every pass
    passes = plain + traced + ([single] if single else [])
    reference = dict(passes[0].digests) if passes else {}
    for p in passes[1:]:
        for key, digest in p.digests.items():
            ref = reference.setdefault(key, digest)
            checks.check(digest == ref, f"{key}: output differs between passes ({p.runs[0].record.get('run', '?')})")

    good_plain = [p for p in plain if p.ok]
    stats: dict[str, dict] = {}
    if args.trace:
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        pairs = [(p, t) for p, t in zip(good_plain, traced) if t.ok]
        per_pair = [layer_metrics(t, p, single if single and single.ok else None) for p, t in pairs]
        for (p, t), m in zip(pairs, per_pair):
            m["trace.overhead_s"] = end_to_end([t])["wall_s"] - end_to_end([p])["wall_s"]
        if per_pair:
            stats = {k: summarize([m[k] for m in per_pair]) for k in units}
    else:
        units = {k: u for k, (u, _) in END_TO_END.items()}
        if good_plain:
            # the value is the per-command median summed; quartiles are of whole passes
            per_pass = [end_to_end([p]) for p in good_plain]
            stats = {k: {**summarize([m[k] for m in per_pass]), "value": v} for k, v in end_to_end(good_plain).items()}
            stats["peak_rss_mb"]["value"] = max(r.maxrss_mb for p in good_plain for r in p.runs)
    refs = [t for p in good_plain for r in p.runs for t in r.ref_s]
    measured = {k: end_to_end(good_plain, rescale=False)[k] for k in ("wall_s", "setup_s")} if good_plain else {}
    failed = len(checks.failures)
    result = {
        "correct": failed == 0 and bool(stats),
        "attempted": max(1, checks.attempted),
        "failed": failed if stats else max(1, failed),
        "metrics": {k: {"value": stats[k]["value"], "unit": units[k]} for k in stats},
    }
    record = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "inputs": {"dir": str(inp.relative_to(ROOT)), "digests": input_digests,
                   "generated_s": gen_s, "cache_hit": cache_hit, "spec": manifest["spec"]},
        "outputs": reference,
        "checks": {"attempted": checks.attempted, "failed": failed, "failures": checks.failures},
        "passes": [{"mode": p.mode, "tag": p.runs[0].record.get("run", "") if p.runs else "",
                    "commands": [{"command": r.command, "rc": r.rc, "wall_s": r.wall_s, "startup_s": r.startup_s,
                                  "cpu_s": r.cpu_s, "maxrss_mb": r.maxrss_mb, "ref_s": r.ref_s} for r in p.runs],
                    "facts": p.facts} for p in passes],
        "metrics": stats,
        "measured_seconds": measured,
        "reference_s": {"median": statistics.median(refs) if refs else None, "nominal": calib.NOMINAL_S},
        "result": result,
    }
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out_file = RESULTS / f"{name}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"# {name} seed={args.seed} trace={args.trace} passes={len(plain)} "
          f"inputs={'cached' if cache_hit else f'generated in {gen_s:.1f} s'} record={out_file.relative_to(ROOT)}")
    env = record["environment"]
    print(f"# nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']['name']} {env['blas']['version']} env={env['env']} commit={env['git_commit']}")
    if measured:
        print(f"# measured, not rescaled: wall_s={measured['wall_s']:.6f} setup_s={measured['setup_s']:.6f}; "
              f"reference kernel {1e3 * statistics.median(refs):.2f} ms (nominal {1e3 * calib.NOMINAL_S:.0f} ms)")
    for k, s in stats.items():
        print(f"# {k:42s} {s['value']:14.6f} {units[k]:13s} q1={s['q1']:.6f} q3={s['q3']:.6f} n={s['n']}")
    for failure in checks.failures:
        print(f"# FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
