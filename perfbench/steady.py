#!/usr/bin/env python3
"""Steadiness mode: run every workload many times and report the spread.

    python3 perfbench/steady.py --runs 10

Runs `run.py` once per (seed, workload), seeds FIRST_SEED.., workloads
interleaved, each as its own process with the run length of BENCHMARK.json.
For every end-to-end metric it prints the median, the quartiles, the
interquartile range as a share of the median (the spread the bounds in
BENCHMARK.json are set against) and the largest deviation from the median,
plus the raw (uncorrected) pass time for comparison, and how long the runs
took from start to exit.  The summary is also written to
.perfbench_out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med,
            "max_dev": max(abs(v - med) for v in values) / med}


def raw_pass(stdout):
    for line in stdout.splitlines():
        if line.startswith("raw pass wall time: median "):
            return float(line.split()[5])
    return None


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in names:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["raw_pass_s"] = raw_pass(proc.stdout)
            res["run_wall_s"] = elapsed
            results[w].append(res)
            print(f"{w} seed {seed} ({elapsed:.1f} s): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)

    summary = {}
    for w in names:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        summary[w] = {"failed_share": shares,
                      "all_correct": all(r["correct"] for r in runs)}
        print(f"\n{w}: {len(runs)} runs, all correct {summary[w]['all_correct']}, "
              f"failed shares {shares}")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'max dev':>8} {'bound':>6}")
        series = {k: [r["metrics"][k]["value"] for r in runs]
                  for k in runs[0]["metrics"]}
        series["raw_pass_s"] = [r["raw_pass_s"] for r in runs]
        series["run_wall_s"] = [r["run_wall_s"] for r in runs]
        for k, values in series.items():
            s = stats(values)
            summary[w][k] = s
            bound = bounds.get(k)
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {k:18} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {s['max_dev']:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    walls = [r["run_wall_s"] for w in names for r in results[w]]
    print(f"\nrun time: mean {statistics.mean(walls):.1f} s, "
          f"longest {max(walls):.1f} s, over {len(walls)} runs")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(
        {"runs": args.runs, "seconds": seconds, "first_seed": args.first_seed,
         "summary": summary, "results": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
