#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                [--traced-runs 0] [--out FILE]

Run from the repository root. Each run is the command in BENCHMARK.json
with `--workload W --seed S --seconds <run_seconds> --trace 0`, one seed
per run. For every end-to-end metric the script prints the median and
the distance between the first and third quartile as a share of the
median (the spread), next to the metric's bound. `--traced-runs N` adds N
`--trace 1` runs per workload. With --out it writes every run's host stamp
and result, plus the medians and spreads, as JSON (the form of
perfbench/baseline.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    out = subprocess.run(args, capture_output=True, text=True, env=env,
                         timeout=900, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    host = next((json.loads(l[len("# host "):]) for l in lines
                 if l.startswith("# host ")), None)
    return host, json.loads(lines[-1])


def summarize(results, names, bounds):
    summary = {}
    for m in names:
        vals = [r["metrics"][m]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[m] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med if med else 0.0,
                      "bound": bounds.get(m),
                      "unit": results[0]["metrics"][m]["unit"]}
    return summary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced-runs", type=int, default=0)
    ap.add_argument("--out", default="")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = a.workloads.split(",")

    record = {"about": "Untraced runs, one seed each from --first-seed on, "
                       "with each end-to-end metric's median and quartile "
                       "spread, then --traced-runs traced runs. Each "
                       "result is the JSON object the benchmark prints "
                       "last; host is its '# host' stamp line.",
              "first_seed": a.first_seed,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for w in names:
        runs, traced = [], []
        for i in range(a.runs + a.traced_runs):
            seed, trace = a.first_seed + i, int(i >= a.runs)
            host, res = run_once(bench["command"], w, seed,
                                 bench["run_seconds"], trace)
            if not res["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result")
            (traced if trace else runs).append({"host": host, "result": res})
            if not trace:
                print(f"{w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}"
                    for k, v in res["metrics"].items()), flush=True)
        entry = {"runs": runs, "traced": traced}
        if len(runs) >= 2:
            entry["summary"] = summarize([r["result"] for r in runs],
                                         list(bounds), bounds)
            for m, s in entry["summary"].items():
                flag = ""
                if m != "setup_s" and s["spread"] > s["bound"] / 3:
                    flag = "  <-- above a third of the bound"
                print(f"  {w:24} {m:14} median {s['median']:<12.6g} "
                      f"spread {s['spread']:.4f} bound {s['bound']}{flag}",
                      flush=True)
        record["workloads"][w] = entry
    if a.out:
        with open(a.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
