"""Run one ``bilex`` command in this process with the benchmark's probes.

    python3 perfbench/launch.py RECORD MODE RUN_ID -- <bilex arguments>

MODE selects the probes installed before ``bilex.cli.main`` is called:

- ``warm``: import the package and exit without running a command, to fill
  the bytecode and file caches before the measured passes;
- ``setup``: time only the input loaders, about ten calls per command, so
  the end-to-end runs stay untraced;
- ``trace``: record a span around every layer function in SPANNED
  and aggregate the hot ones in AGGREGATED.

Probes replace module attributes (and ``RegressionTree.predict``); the
program looks these names up at call time, so its source is not touched.
Spans stay in memory and are written to RECORD as JSON when the command
returns. Functions called thousands of times per command are aggregated
into a call count and a total time instead of one span per call.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LOADERS = [
    ("corpus", "load_embeddings"),
    ("corpus", "load_dictionary"),
    ("corpus", "load_frequency_table"),
    ("corpus", "load_pos_table"),
    ("retrieval", "load_candidates"),
    ("features", "load_external_scores"),
    ("ltr", "load_model"),
]

SPANNED = LOADERS + [
    ("retrieval", "align_procrustes"),
    ("retrieval", "knn_mean_similarity"),
    ("retrieval", "retrieve_topk"),
    ("retrieval", "mutual_nn_pairs"),
    ("retrieval", "mine_hard_negatives"),
    ("retrieval", "write_candidates"),
    ("features", "build_groups"),
    ("ltr", "train"),
    ("ltr", "fit_tree"),
    ("ltr", "mean_ap"),
    ("ltr", "predict_groups"),
    ("ltr", "save_model"),
    ("evaluation", "build_eval_report"),
    ("evaluation", "explain_predictions"),
    ("evaluation", "pos_freq_correlation"),
]

# called once per group per round or once per tree per group
AGGREGATED = [("ltr", "compute_lambdas")]


def _gflop(a, b) -> float:
    """Multiply-adds of one dense a x b^T product, computed from the shapes."""
    return 2.0 * len(a) * len(b) * a.dim / 1e9


# counts taken from a probed call's arguments (in signature order) and result
COUNTERS = {
    "corpus.load_embeddings": lambda args, out: {"rows": len(out), "bytes": os.path.getsize(args[0])},
    "retrieval.load_candidates": lambda args, out: {"rows": int(out.cand_ids.size)},
    "retrieval.knn_mean_similarity": lambda args, out: {"gflop": _gflop(args[0], args[1])},
    "retrieval.retrieve_topk": lambda args, out: {"gflop": _gflop(args[0], args[1])},
    "retrieval.mutual_nn_pairs": lambda args, out: {"pairs": len(out)},
    "features.build_groups": lambda args, out: {"rows": sum(len(g) for g in out)},
}


class Tracer:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.aggregates: dict[str, dict] = {}
        self.aggregated_top_s = 0.0  # aggregated calls made outside any span
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        def probe(*args, **kwargs):
            stack = self._stack()
            rec = {
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "id": len(self.spans),
                "run": self.run_id,
                "aggregated_child_s": 0.0,
            }
            self.spans.append(rec)
            stack.append(rec)
            cpu0 = time.process_time()
            rec["start"] = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = time.monotonic()
                rec["cpu_s"] = time.process_time() - cpu0
                stack.pop()
            if counter is not None:
                try:
                    rec["counts"] = counter(list(signature.bind(*args, **kwargs).arguments.values()), out)
                except Exception as e:  # a changed signature must not fail the command
                    rec["counter_error"] = repr(e)
            return out

        return probe

    def aggregate(self, name: str, fn, rows_of=None):
        agg = self.aggregates.setdefault(name, {"calls": 0, "s": 0.0, "rows": 0})

        def probe(*args, **kwargs):
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.monotonic() - t0
                agg["calls"] += 1
                agg["s"] += dt
                if rows_of is not None:
                    agg["rows"] += rows_of(args)
                stack = self._stack()
                if stack:
                    stack[-1]["aggregated_child_s"] += dt
                else:
                    self.aggregated_top_s += dt

        return probe


def install(tracer: Tracer, mode: str, modules: dict) -> None:
    for mod, fn in LOADERS if mode == "setup" else SPANNED:
        setattr(modules[mod], fn, tracer.span(f"{mod}.{fn}", getattr(modules[mod], fn)))
    if mode == "trace":
        for mod, fn in AGGREGATED:
            setattr(modules[mod], fn, tracer.aggregate(f"{mod}.{fn}", getattr(modules[mod], fn)))
        tree = modules["ltr"].RegressionTree
        tree.predict = tracer.aggregate("ltr.tree_predict", tree.predict, rows_of=lambda args: args[1].shape[0])


def peak_rss_mb() -> float | None:
    """VmHWM of this process.

    Unlike ``ru_maxrss``, which keeps the high-water mark of the parent's
    address space across vfork and exec, VmHWM covers only this program.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return None


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print("usage: launch.py RECORD MODE RUN_ID -- <bilex arguments>", file=sys.stderr)
        return 2
    record, mode, run_id, bilex_args = Path(argv[0]), argv[1], argv[2], argv[4:]
    if mode not in ("warm", "setup", "trace"):
        print(f"launch.py: unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bilex import cli, corpus, evaluation, features, ltr, retrieval

    if mode == "warm":
        return 0
    tracer = Tracer(run_id)
    install(tracer, mode, {
        "corpus": corpus, "retrieval": retrieval, "features": features,
        "ltr": ltr, "evaluation": evaluation,
    })
    t_main = time.monotonic()
    rc = 1
    try:
        rc = cli.main(bilex_args)
    finally:
        doc = {
            "run": run_id,
            "mode": mode,
            "rc": rc,
            "t_main": t_main,
            "peak_rss_mb": peak_rss_mb(),
            "spans": tracer.spans,
            "aggregates": tracer.aggregates,
            "aggregated_top_s": tracer.aggregated_top_s,
        }
        record.write_text(json.dumps(doc))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
