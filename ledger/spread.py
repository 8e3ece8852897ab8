#!/usr/bin/env python3
"""Run-to-run spread of the e2e benchmark, the way BENCHMARK.json is judged.

For each workload, runs the benchmark command once per seed (1, 2, ...)
and reports, for every end-to-end metric, the median of the runs and the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, next to
the metric's bound. The set-up and solve times as measured, before the
host probe's scaling, follow for comparison. With --sets 2 it repeats the
whole protocol on the next seeds and also reports how far the second
set's median moved from the first's.

    python3 ledger/spread.py [--runs 10] [--sets 1]

Run it from the repository root. Prints a text table; progress goes to
standard error.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# Ledger-only metrics reported next to the end-to-end ones: the solo
# workloads' setup_s and solve_s before the host probe's scaling.
AS_MEASURED = ["setup_wall_s", "solve_wall_s"]


def run_set(bench, workloads, seeds):
    """{workload: {"values": {metric: [..]}, "walls": [..], "bad": n}}"""
    out = {}
    for w in workloads:
        values, walls, bad = {}, [], 0
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.monotonic() - t0)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                bad += 1
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
            # The times as measured, from the printed table, to compare
            # with the host-scaled end-to-end times.
            for line in lines[:-1]:
                fields = line.split()
                if fields and fields[0] in AS_MEASURED:
                    values.setdefault(fields[0], []).append(float(fields[1]))
            print(f"{w} seed {seed}: {walls[-1]:.1f} s", file=sys.stderr)
        out[w] = {"values": values, "walls": walls, "bad": bad}
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] + [
        {"name": name, "better": "lower", "bound": None} for name in AS_MEASURED
    ]

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            names = [l.split(":", 1)[1].strip() for l in f if l.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    print(f"host: {os.cpu_count()} CPUs, {cpu}")
    print("spread = (q3 - q1) / median over the runs of a set; "
          "'ok' when below a third of the bound")
    print(f"invocation: ledger/spread.py --runs {args.runs} --sets {args.sets}")
    print()

    sets = []
    for k in range(args.sets):
        seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
        sets.append((seeds, run_set(bench, workloads, seeds)))

    for k, (seeds, result) in enumerate(sets):
        print(f"set {k + 1}: seeds {seeds.start}..{seeds.stop - 1}, "
              f"{bench['run_seconds']} s per run")
        for w in workloads:
            r = result[w]
            walls = r["walls"]
            print(f"  {w}: {len(walls)} runs, {r['bad']} incorrect, wall per run "
                  f"median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
            for m in metrics:
                vals = r["values"].get(m["name"], [])
                bound = m["bound"]
                if len(vals) < 2:
                    # serve-durable reports its times as measured only.
                    if bound is not None:
                        print(f"    {m['name']:<30} missing")
                    continue
                med, s = spread(vals)
                verdict = "as measured"
                if bound is not None:
                    verdict = f"bound {bound:<5} {'ok' if s <= bound / 3 else 'WIDE'}"
                line = f"    {m['name']:<30} median {med:<12.6g} spread {s:7.2%}  {verdict}"
                if k > 0:
                    first, _ = spread(sets[0][1][w]["values"][m["name"]])
                    drift = (med - first) / abs(first) if first else float("inf")
                    if m["better"] == "higher":
                        drift = -drift
                    line += f"  worse-than-set-1 {drift:+7.2%}"
                print(line)
                print("      runs: " + " ".join(f"{v:.4g}" for v in vals))
    total = sum(sum(r[w]["walls"]) for _, r in sets for w in workloads)
    print(f"total wall {total:.0f} s")


if __name__ == "__main__":
    main()
