#!/usr/bin/env python3
"""Steadiness report and compare step for the layered benchmark.

Run interleaved sets (each side is a checkout; the same checkout twice
measures run-to-run noise of one commit):

    python3 perfbench/steady.py run --out a.json --seeds 1-10 \\
        --checkout A=. --checkout B=.

Report each side's median and quartiles per workload and metric, and, for
two sides, diff them against the bounds in BENCHMARK.json:

    python3 perfbench/steady.py report a.json
    python3 perfbench/steady.py compare parent.json change.json

A metric is "unresolved" when either side's spread (interquartile range over
median) exceeds its bound, a "regression" when the second side's median is
worse than the first's by more than the bound, and "ok" otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def cmd_run(args):
    spec = load_spec()
    sides = [c.split("=", 1) for c in args.checkout] or [["A", "."]]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    records = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        # Rotate the workload order and alternate which side goes first, so
        # host drift lands evenly on every workload and side.
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for workload in order:
            for name, checkout in (sides if i % 2 == 0 else sides[::-1]):
                result = run_once(checkout, workload, seed, seconds, args.trace)
                records.append({"side": name, "workload": workload,
                                "seed": seed, "result": result})
                status = "error" if result is None else (
                    "ok" if result["correct"] else "incorrect")
                print("%-3s %-12s seed %-4d %s" % (name, workload, seed, status),
                      flush=True)
                with open(args.out, "w") as f:
                    json.dump(records, f, indent=1)
    report(records, spec)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(records, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = sorted({r["side"] for r in records}, key=[r["side"] for r in
                                                      records].index)
    workloads = sorted({r["workload"] for r in records})
    for workload in workloads:
        print("\n== %s" % workload)
        stats = {}
        for side in sides:
            runs = [r["result"] for r in records
                    if r["side"] == side and r["workload"] == workload]
            ok = [r for r in runs if r is not None]
            failed = sum(r["failed"] for r in ok)
            attempted = sum(r["attempted"] for r in ok)
            print("side %s: %d runs, %d errored, %d incorrect, failed %d of %d"
                  % (side, len(runs), len(runs) - len(ok),
                     sum(not r["correct"] for r in ok), failed, attempted))
            for name in metrics:
                values = [r["metrics"][name]["value"] for r in ok
                          if name in r["metrics"]]
                if values:
                    stats[(side, name)] = quartiles(values)
        print("%-28s %-4s %12s %12s %12s %8s %6s %s" % (
            "metric", "side", "q1", "median", "q3", "spread", "bound",
            "verdict"))
        for name, m in metrics.items():
            bound = m.get("bound")
            for side in sides:
                if (side, name) not in stats:
                    continue
                q1, med, q3 = stats[(side, name)]
                spread = (q3 - q1) / abs(med) if med else 0.0
                verdict = ""
                if bound is not None and side == sides[-1] and len(sides) > 1:
                    verdict = compare_sides(stats, name, sides, m)
                print("%-28s %-4s %12.6g %12.6g %12.6g %8.3f %6s %s" % (
                    name, side, q1, med, q3, spread,
                    "" if bound is None else bound, verdict))


def compare_sides(stats, name, sides, metric):
    base, change = sides[0], sides[-1]
    if (base, name) not in stats or (change, name) not in stats:
        return "missing"
    spreads = []
    for side in (base, change):
        q1, med, q3 = stats[(side, name)]
        spreads.append((q3 - q1) / abs(med) if med else 0.0)
    b, c = stats[(base, name)][1], stats[(change, name)][1]
    worse = (c - b) / abs(b) if b else 0.0
    if metric["better"] == "higher":
        worse = -worse
    if max(spreads) > metric["bound"]:
        return "unresolved (spread %.3f > bound)" % max(spreads)
    if worse > metric["bound"]:
        return "regression (%.1f%% worse)" % (100 * worse)
    return "ok (%+.1f%% worse)" % (100 * worse)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="interleaved runs into a result file")
    run.add_argument("--out", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--workloads", default="")
    run.add_argument("--seconds", type=int, default=0)
    run.add_argument("--trace", type=int, default=0)
    run.add_argument("--checkout", action="append", default=[],
                     help="NAME=DIR; repeat for a second side")
    rep = sub.add_parser("report", help="quartiles (and compare) of one file")
    rep.add_argument("file")
    cmp_ = sub.add_parser("compare", help="diff two result files")
    cmp_.add_argument("base")
    cmp_.add_argument("change")
    args = parser.parse_args()

    if args.cmd == "run":
        cmd_run(args)
        return 0
    spec = load_spec()
    if args.cmd == "report":
        with open(args.file) as f:
            report(json.load(f), spec)
        return 0
    records = []
    for side, path in (("base", args.base), ("change", args.change)):
        with open(path) as f:
            for r in json.load(f):
                records.append(dict(r, side=side))
    report(records, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
