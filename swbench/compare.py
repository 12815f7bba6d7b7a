#!/usr/bin/env python3
"""Compare two sets of swbench runs, or derive bounds from one set.

    python3 swbench/compare.py A B       # A: parent runs, B: candidate runs
    python3 swbench/compare.py bounds A  # suggested BENCHMARK.json bounds

A and B are directories holding the output of one or more
`swbench run --out DIR` runs: every `<workload>/result.json` below them
is one run. For each end-to-end metric of BENCHMARK.json and each
workload, `compare` reports:

  better      B's median beats A's by more than A's run-to-run spread
              and B wins at least 9 of 10 run pairs;
  worse       B's median is worse than A's by more than the bound;
  unresolved  a side's spread exceeds the bound (unless every B run
              beats every A run, which counts as better);
  same        otherwise.

The spread is the interquartile range over the median, computed with
`statistics.quantiles(values, n=4)`. `setup_s` differences under
SETUP_FLOOR_S seconds are never worse: set-up times that small are
dominated by page faults and scheduling. Exit status 1 when any metric
is worse.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETUP_FLOOR_S = 0.005


def load_runs(directory):
    """{workload: [metrics dict of one run, ...]} in path order."""
    runs = {}
    for path in sorted(pathlib.Path(directory).rglob("result.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        metrics = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        runs.setdefault(record["workload"], []).append(metrics)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def compare(a_dir, b_dir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load_runs(a_dir), load_runs(b_dir)
    worse = False
    print(f"{'workload':8} {'metric':16} {'A median':>12} {'B median':>12} {'change':>8} {'spread A/B':>13}  verdict")
    for w in sorted(set(a_runs) & set(b_runs)):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r[name] for r in a_runs[w]]
            b = [r[name] for r in b_runs[w]]
            ma, mb = statistics.median(a), statistics.median(b)
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (mb - ma) / ma if ma else 0.0  # > 0 is worse
            sa, sb = spread(a), spread(b)
            b_better = [sign * (y - x) < 0 for x, y in zip(a, b)]
            if max(sa, sb) > bound:
                all_better = all(sign * (y - x) < 0 for x in a for y in b)
                verdict = "better" if all_better else "unresolved"
            elif change > bound and not (name == "setup_s" and mb - ma < SETUP_FLOOR_S):
                verdict = "worse"
            elif -change > sa and sum(b_better) >= 0.9 * len(b_better):
                verdict = "better"
            else:
                verdict = "same"
            worse |= verdict == "worse"
            print(f"{w:8} {name:16} {ma:12.4f} {mb:12.4f} {change:+8.3f} {sa:6.3f}/{sb:6.3f}  {verdict}")
    return 1 if worse else 0


def bounds(a_dir):
    """max(5%, 2 x spread of the run values), at most 25%, per metric over workloads."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = load_runs(a_dir)
    for m in spec["end_to_end"]:
        name = m["name"]
        per_workload = {w: spread([r[name] for r in rs]) for w, rs in sorted(runs.items())}
        suggested = min(0.25, max([0.05] + [2 * s for s in per_workload.values()]))
        detail = " ".join(f"{w}={s:.3f}" for w, s in per_workload.items())
        print(f"{name:16} bound={suggested:.3f} (current {m['bound']})  spread: {detail}")
    return 0


def main(argv):
    if len(argv) == 3 and argv[1] == "bounds":
        return bounds(argv[2])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
