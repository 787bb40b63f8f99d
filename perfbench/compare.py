"""Compare two sets of benchmark records, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files or directories of them (run.py writes one
per run into .bench_results/). Records are matched by (workload, seed,
trace). The comparison is refused (exit 3) when a matched pair was made
from inputs with different sha256 digests. Otherwise each workload and
end-to-end metric gets the median and quartiles of both sides over the
matched runs, the change in percent, and a verdict against the bound in
BENCHMARK.json; the deterministic output digests are compared per seed.
Exit 1 when a metric is worse than its bound, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg: str) -> dict[tuple, list[dict]]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records: dict[tuple, list[dict]] = {}
    for f in files:
        rec = json.loads(f.read_text())
        records.setdefault((rec["workload"], rec["seed"], rec["trace"]), []).append(rec)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    keys = sorted(set(base) & set(new))
    if not keys:
        print("compare.py: no (workload, seed, trace) appears on both sides", file=sys.stderr)
        return 2
    for key in keys:
        digests = {json.dumps(r["inputs"]["digests"], sort_keys=True) for r in base[key] + new[key]}
        if len(digests) != 1:
            print(f"compare.py: refusing: {key[0]} seed {key[1]} was run on different inputs", file=sys.stderr)
            return 3

    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else {}
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec.get("end_to_end", [])}
    regressed = False
    for workload in sorted({k[0] for k in keys if k[2] == 0}):
        wkeys = [k for k in keys if k[0] == workload and k[2] == 0]
        print(f"{workload}: {len(wkeys)} seeds")
        names = sorted({m for k in wkeys for r in base[k] + new[k] for m in r["result"]["metrics"]})
        for name in names:
            side = [[r["result"]["metrics"][name]["value"] for k in wkeys for r in recs[k] if name in r["result"]["metrics"]]
                    for recs in (base, new)]
            if not side[0] or not side[1]:
                continue
            (b1, bm, b3), (n1, nm, n3) = quartiles(side[0]), quartiles(side[1])
            change = (nm - bm) / bm if bm else 0.0
            verdict = ""
            if name in bounds:
                better, bound = bounds[name]
                worse = change > bound if better == "lower" else -change > bound
                verdict = f"WORSE than bound {bound:.0%}" if worse else f"within {bound:.0%}"
                regressed |= worse
            print(f"  {name:14s} base {bm:12.6f} [{b1:.6f}, {b3:.6f}]  new {nm:12.6f} [{n1:.6f}, {n3:.6f}]  "
                  f"{change:+.2%}  {verdict}")
        differ = sorted({
            f"seed {k[1]}: {f}" for k in wkeys for f in set().union(*(r["outputs"] for r in base[k] + new[k]))
            if len({r["outputs"].get(f) for r in base[k] + new[k]}) != 1
        })
        print("  outputs identical" if not differ else "  outputs differ: " + "; ".join(differ))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
