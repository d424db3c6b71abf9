#!/usr/bin/env python3
"""Steadiness mode: repeat the benchmark and summarise each metric.

    python3 perfbench/steady.py run [--workload NAME|all] [--runs 10]
                                    [--first-seed 1] [--trace 0|1] [--out SET.json]
    python3 perfbench/steady.py compare FIRST.json SECOND.json

`run` invokes the command named in BENCHMARK.json once per seed
(first-seed, first-seed+1, ...) with the benchmark's own run length, and
prints each metric's median, quartiles and spread: the distance between
the quartiles as a share of the median, as `statistics.quantiles(n=4)`
gives them. A spread is flagged when it reaches a third of the metric's
bound. `--out` keeps every value, so two sets of runs can be compared.

`compare` checks a second set of runs against a first: for every
end-to-end metric of every workload, the second median may be worse than
the first by at most the metric's bound. Exit status 1 if any is.

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def cmd_run(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    out = {"trace": args.trace, "workloads": {}}
    for workload in workloads:
        values = {m["name"]: [] for m in declared}
        failed = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(bench, workload, seed, args.trace)
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        print(f"\n{workload}: {args.runs} runs, failures {failed}")
        print(f"{'metric':<42} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound")
        for m in declared:
            med, q1, q3, spread = summarise(values[m["name"]])
            bound = bounds[m["name"]]
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"{m['name']:<42} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f}  {bound if bound is not None else '-'}{flag}")
        out["workloads"][workload] = values
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)


def cmd_compare(args):
    bench = load_benchmark()
    with open(args.first) as f:
        first = json.load(f)["workloads"]
    with open(args.second) as f:
        second = json.load(f)["workloads"]
    worse_any = False
    for workload in first:
        if workload not in second:
            continue
        for m in bench["end_to_end"]:
            a = statistics.median(first[workload][m["name"]])
            b = statistics.median(second[workload][m["name"]])
            if a == 0:
                worse = 0.0 if b == a else float("inf")
            elif m["better"] == "lower":
                worse = (b - a) / abs(a)
            else:
                worse = (a - b) / abs(a)
            ok = worse <= m["bound"]
            worse_any |= not ok
            print(f"{workload:<14} {m['name']:<16} first {a:<14.6g} second {b:<14.6g} "
                  f"worse by {worse:+.4f} (bound {m['bound']}) {'ok' if ok else 'WORSE'}")
    return 1 if worse_any else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", default="all")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.add_argument("--out")
    cmp = sub.add_parser("compare")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
