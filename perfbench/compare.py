#!/usr/bin/env python3
"""Summarise or compare benchmark result sets.

A result set is a file holding the concatenated stdout of benchmark runs
(`python3 perfbench/run.py ... >> A.txt`). Each run contributes a
`{"perfbench": {...}}` line naming its workload and seed, then its result
line. Only untraced (`--trace 0`) runs are read.

    python3 perfbench/compare.py spread A.txt
        For each workload x end-to-end metric: median, quartiles and the
        spread (interquartile range over the median) against the metric's
        bound in BENCHMARK.json.

    python3 perfbench/compare.py compare A.txt B.txt
        One row per workload x end-to-end metric: better, worse, same or
        unresolved for B against A. Runs are paired in file order per
        workload (run them alternately, A then B then A ...). The rule:
          - unresolved: either side's spread exceeds the bound, unless
            every B run beats every A run (then better);
          - better: B wins at least 9 of 10 pairs (ties count for neither)
            and the medians differ by more than A's interquartile range;
          - worse: B's median is worse than A's by more than the bound;
          - same: anything else.
        Exits 1 if any row is worse.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bench():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def load_runs(path):
    """{workload: [ {metric: value}, ... ]} in file order."""
    runs = defaultdict(list)
    pending = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "perfbench" in obj:
                pending = obj["perfbench"]
            elif "metrics" in obj and pending is not None:
                if not pending.get("trace"):
                    values = {k: v["value"] for k, v in obj["metrics"].items()}
                    values["_correct"] = obj["correct"]
                    runs[pending["workload"]].append(values)
                pending = None
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def better(a, b, direction):
    return b < a if direction == "lower" else b > a


def verdict(a_vals, b_vals, meta):
    bound, direction = meta["bound"], meta["better"]
    med_a, q1_a, q3_a, spread_a = spread(a_vals)
    med_b, _, _, spread_b = spread(b_vals)
    pairs = list(zip(a_vals, b_vals))
    wins = sum(better(a, b, direction) for a, b in pairs)
    if spread_a > bound or spread_b > bound:
        all_better = all(better(a, b, direction) for a in a_vals for b in b_vals)
        return ("better" if all_better else "unresolved"), wins, len(pairs)
    if wins >= 0.9 * len(pairs) and abs(med_b - med_a) > (q3_a - q1_a):
        return "better", wins, len(pairs)
    worse_by = (med_b - med_a) / med_a if direction == "lower" else (med_a - med_b) / med_a
    if worse_by > bound:
        return "worse", wins, len(pairs)
    return "same", wins, len(pairs)


def cmd_spread(path):
    meta = load_bench()
    runs = load_runs(path)
    print(f"{'workload':16} {'metric':22} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6}  ok")
    bad = 0
    for workload in sorted(runs):
        rows = runs[workload]
        wrong = sum(not r["_correct"] for r in rows)
        for name, m in meta.items():
            vals = [r[name] for r in rows if name in r]
            if len(vals) < 2:
                print(f"{workload:16} {name:22} {len(vals):>3}  (too few runs)")
                continue
            med, q1, q3, s = spread(vals)
            ok = name == "setup_s" or s <= m["bound"]
            bad += not ok
            third = "" if s <= m["bound"] / 3 else "  (over a third of the bound)"
            print(f"{workload:16} {name:22} {len(vals):>3} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{s:7.3f} {m['bound']:6.2f}  {'yes' if ok else 'NO'}{third}")
        if wrong:
            print(f"{workload:16} {wrong} run(s) reported correct=false")
            bad += 1
    return 1 if bad else 0


def cmd_compare(path_a, path_b):
    meta = load_bench()
    a_runs, b_runs = load_runs(path_a), load_runs(path_b)
    print(f"{'workload':16} {'metric':22} {'median A':>14} {'median B':>14} {'B wins':>7}  verdict")
    worse = 0
    for workload in sorted(set(a_runs) & set(b_runs)):
        for name, m in meta.items():
            a = [r[name] for r in a_runs[workload] if name in r]
            b = [r[name] for r in b_runs[workload] if name in r]
            n = min(len(a), len(b))
            if n < 2:
                continue
            v, wins, pairs = verdict(a[:n], b[:n], m)
            worse += v == "worse"
            print(f"{workload:16} {name:22} {statistics.median(a[:n]):14.6g} "
                  f"{statistics.median(b[:n]):14.6g} {wins:>3}/{pairs:<3}  {v}")
    return 1 if worse else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "spread":
        return cmd_spread(argv[2])
    if len(argv) == 4 and argv[1] == "compare":
        return cmd_compare(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
