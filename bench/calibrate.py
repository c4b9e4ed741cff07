#!/usr/bin/env python3
"""Calibrate fmbench's regression bounds.

Runs the BENCHMARK.json command for every workload, once per seed, in one
or more sets of runs, then reports for each end-to-end metric the median,
the quartiles and the spread (inter-quartile distance over the median).
Each spread must stay under a third of the metric's bound, except setup_s,
and each later set's median must stay within the bound of the first set's.

    python3 bench/calibrate.py --runs 10 --sets 2 --out bench/BASELINE.json

Run it from the repository root on an otherwise idle machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout)
        print(f"{workload} seed {seed}: INCORRECT (exit {proc.returncode})", flush=True)
    return result, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs")
    ap.add_argument("--workloads", nargs="*", help="subset of workloads")
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    out = {"machine": {"nproc": os.cpu_count(), "platform": platform.platform()},
           "run_seconds": bench["run_seconds"], "sets": []}
    ok = True
    for s in range(args.sets):
        summary = {}
        for w in workloads:
            metrics, walls = {}, []
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                result, wall = run_once(bench["command"], w, seed, bench["run_seconds"], 0)
                walls.append(wall)
                for name, m in result["metrics"].items():
                    metrics.setdefault(name, []).append(m["value"])
            summary[w] = {name: summarize(v) for name, v in metrics.items()}
            summary[w]["wall_s"] = summarize(walls)
            for name, st in summary[w].items():
                if name not in bounds:
                    continue
                flag = ""
                if name != "setup_s" and st["spread"] >= bounds[name] / 3:
                    flag, ok = "  SPREAD >= bound/3", False
                if s > 0:
                    first = out["sets"][0][w][name]["median"]
                    better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                    worse = (st["median"] - first) / first if better == "lower" else (first - st["median"]) / first
                    if worse > bounds[name]:
                        flag, ok = flag + f"  SET {s + 1} WORSE BY {worse:.3f}", False
                print(f"set {s + 1} {w:15s} {name:13s} median {st['median']:12.6g} "
                      f"spread {st['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
        out["sets"].append(summary)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
