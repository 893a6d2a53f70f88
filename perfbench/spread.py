#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload fig2-n100 --seeds 1-10 [--seconds 30] [--trace 0]
                                [--ledger perfbench/results/ledger.json]

For every metric it prints the median, the quartiles and the spread (the
distance between the first and third quartile as a share of the median,
computed with statistics.quantiles(values, n=4)) over the seeds, next to
the metric's bound from BENCHMARK.json and whether the spread stays below
a third of it. With --ledger it appends one entry (machine, revision,
per-metric median/quartiles/spread and every run's values) to that JSON
list. Runs `bash perfbench/run.sh` from the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--ledger")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    section = "per_layer" if args.trace == "1" else "end_to_end"
    declared = {m["name"]: m for m in bench[section]}

    values = {name: [] for name in declared}
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        started = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        took = time.time() - started
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            sys.exit(f"seed {seed}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}")
        if proc.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: exit {proc.returncode}, correct={result['correct']}\n{proc.stdout}")
        for name in declared:
            values[name].append(result["metrics"][name]["value"])
        runs.append({"seed": seed, "seconds_taken": round(took, 2), "attempted": result["attempted"],
                     "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: {took:.1f} s", file=sys.stderr)

    summary = {}
    print(f"{args.workload} trace={args.trace} seeds={args.seeds[0]}..{args.seeds[-1]} seconds={seconds}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  ok")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = declared[name].get("bound")
        ok = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        summary[name] = {"unit": declared[name]["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        print(f"{name:34} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}  {ok}")

    if args.ledger:
        path = os.path.join(ROOT, args.ledger)
        entries = []
        if os.path.exists(path):
            with open(path) as f:
                entries = json.load(f)
        entries.append({
            "workload": args.workload, "trace": args.trace == "1", "seconds": seconds,
            "seeds": args.seeds, "git_rev": git_rev(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "metrics": summary, "runs": runs,
        })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(entries, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
