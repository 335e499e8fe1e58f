#!/usr/bin/env python3
"""Measures how well the benchmark repeats on this host.

    python3 perfbench/steadiness.py [--out FILE]

Runs two sets of ten runs of every workload in BENCHMARK.json, each run with
its own seed (set k uses seeds k*100+1 .. k*100+10) and the file's
run_seconds, through perfbench/run.py from the repository root. For each
set, workload and end-to-end metric it records the median and quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) as a share of the
median, and for each run the CPU steal share read from /proc/stat and the
run's host slowdowns (its `# host_slowdown` and `# setup_slowdown` lines),
so a noisy host can be told apart from a noisy metric. The second set's median is
compared with the first in the direction the metric gets worse. Prints a
table and writes the whole record as JSON to `--out`.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def cpu_times():
    """(steal, total) jiffies of the aggregate cpu line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    values = [int(x) for x in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user/nice.
    return values[7], sum(values[:8])


def run_once(workload, seed, seconds):
    steal0, total0 = cpu_times()
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    steal1, total1 = cpu_times()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    slowdown = {fields[1]: float(fields[2]) for fields in
                (line.split() for line in lines)
                if fields[:2] in (["#", "host_slowdown"],
                                  ["#", "setup_slowdown"])}
    return {
        "seed": seed,
        "wall_s": round(wall, 3),
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "host_slowdown": slowdown.get("host_slowdown"),
        "setup_slowdown": slowdown.get("setup_slowdown"),
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"]}

    record = {"run_seconds": seconds, "sets": []}
    for s in range(1, SETS + 1):
        entry = {"set": s, "workloads": {}}
        for w in workloads:
            runs = [run_once(w, s * 100 + i, seconds)
                    for i in range(1, RUNS + 1)]
            summary = {m: summarize([r["metrics"][m] for r in runs])
                       for m in specs}
            steals = [r["steal_share"] for r in runs]
            entry["workloads"][w] = {
                "runs": runs, "summary": summary,
                "steal_share": {"median": statistics.median(steals),
                                "max": max(steals)}}
            print("set %d %-13s steal median %.4f max %.4f" %
                  (s, w, statistics.median(steals), max(steals)))
            for m, st in summary.items():
                print("  %-18s median %-12.6g spread %6.2f%%  bound %s" %
                      (m, st["median"], 100 * st["spread"],
                       specs[m]["bound"]))
            sys.stdout.flush()
        record["sets"].append(entry)

    first, second = record["sets"]
    drift = {}
    for w in workloads:
        drift[w] = {}
        for m, spec in specs.items():
            a = first["workloads"][w]["summary"][m]["median"]
            b = second["workloads"][w]["summary"][m]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            drift[w][m] = worse
            print("drift %-13s %-18s %+6.2f%% (bound %s)" %
                  (w, m, 100 * worse, spec["bound"]))
    record["second_vs_first_worse_share"] = drift
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
