#!/usr/bin/env python3
"""Compares two sets of benchmark runs, refusing to compare across hosts.

  python3 perfbench/compare.py BASE.log NEW.log

Each log is the concatenated stdout of one or more `perfbench/run.py`
invocations (one per seed, say).  Runs are grouped by workload and trace
mode; for every metric the script prints each side's median and quartiles,
the change of the medians, and, for end-to-end metrics, whether that change
is worse than the bound BENCHMARK.json fixes.

Every run carries a host fingerprint (cores, CPU crypto features, resolved
AES/SHA backends, observability state, build type).  When fingerprints
differ -- other than in the source hash and commit, which are what a
comparison is for -- the script says which fields differ, flags every row
of the comparison, and exits 2 whatever the rows say.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

VOLATILE = ("source_sha", "commit")


def load(path):
    """Returns ({(workload, trace): {metric: [values]}}, [fingerprints])."""
    groups, prints = {}, []
    fp, run = None, None
    for line in Path(path).read_text().splitlines():
        if line.startswith("# fingerprint "):
            fp = json.loads(line[len("# fingerprint "):])
        elif line.startswith("# run "):
            run = json.loads(line[len("# run "):])
        elif line.startswith("{") and run is not None:
            result = json.loads(line)
            key = (run["workload"], run["trace"])
            for name, m in result["metrics"].items():
                groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
            prints.append({k: v for k, v in (fp or {}).items() if k not in VOLATILE})
            fp, run = None, None
    return groups, prints


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()

    base, base_fp = load(args.base)
    new, new_fp = load(args.new)
    distinct = {json.dumps(f, sort_keys=True) for f in base_fp + new_fp}
    flag, mismatch = "", len(distinct) > 1
    if mismatch:
        keys = sorted({k for f in base_fp + new_fp for k in f})
        differing = [k for k in keys if len({json.dumps(f.get(k)) for f in base_fp + new_fp}) > 1]
        print(f"FINGERPRINT MISMATCH in {', '.join(differing)}: runs come from different "
              "hosts or settings; every row below is flagged")
        flag = "  [fingerprints differ]"

    spec = json.loads(Path("BENCHMARK.json").read_text()) if Path("BENCHMARK.json").exists() else {}
    e2e = {m["name"]: m for m in spec.get("end_to_end", [])}
    layer = {m["name"]: m for m in spec.get("per_layer", [])}
    status = 0
    for key in sorted(set(base) & set(new)):
        print(f"\n{key[0]} (trace {key[1]})")
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][name], new[key][name]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            meta = e2e.get(name) or layer.get(name) or {}
            worse = -change if meta.get("better") == "higher" else change
            verdict = ""
            if name in e2e:
                verdict = "REGRESSION" if worse > meta["bound"] else "ok"
                status = 1 if verdict == "REGRESSION" else status
            print(f"  {name:34s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] n={len(b)}  "
                  f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] n={len(n)}  "
                  f"{change:+.2%} {verdict}{flag}")
    return 2 if mismatch else status


if __name__ == "__main__":
    sys.exit(main())
