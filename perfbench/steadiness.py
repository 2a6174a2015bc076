#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports, for every
end-to-end metric, the median and the spread (distance between the first
and third quartile as a share of the median), plus the raw in-process rate
for comparison with the host-normalised one.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...] [--first-seed 1]

`--json FILE` also writes every run's metrics to FILE; `--bin PATH` runs an
already built benchmark binary instead of the command in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    meta = {}
    for line in lines:
        if line.startswith("meta "):
            parts = line.split(None, 2)
            if len(parts) == 3:
                meta[parts[1]] = parts[2]
    return result, meta


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json")
    ap.add_argument("--bin", help="run this built binary instead of the benchmark command")
    opts = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    record = {}
    for w in workloads:
        rows = []
        for i in range(opts.runs):
            seed = opts.first_seed + i
            command = [opts.bin] if opts.bin else bench["command"]
            result, meta = run_once(command, w, seed, opts.seconds, 0)
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: correctness checks failed")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if "raw_pts_s" in meta:
                values["raw_pts_s"] = float(meta["raw_pts_s"])
            rows.append(values)
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                  flush=True)
        record[w] = rows
        print(f"\n{w}: median and quartile spread over {len(rows)} seeds")
        for name in rows[0]:
            med, sp = spread([r[name] for r in rows])
            bound = bounds.get(name)
            note = "" if bound is None else f"bound {bound:.2f}  {'ok' if sp < bound / 3 else 'WIDE'}"
            print(f"  {name:<16} median {med:>14.6g}  spread {sp:7.2%}  {note}")
        print(flush=True)
    if opts.json:
        json.dump(record, open(opts.json, "w"), indent=1)


if __name__ == "__main__":
    main()
