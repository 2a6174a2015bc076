#!/usr/bin/env python3
"""Runs one traced run per workload and prints the per-layer breakdown as
Markdown (the content of perfbench/BREAKDOWN.md).

Run from the repository root:

    python3 perfbench/breakdown.py [--seed 1] [--bin PATH] > perfbench/BREAKDOWN.md
"""

import argparse
import json
import subprocess
import sys


def traced_run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: correctness checks failed")
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    e2e = {}
    meta = {}
    for line in lines:
        parts = line.split()
        if line.startswith("e2e "):
            e2e[parts[1]] = float(parts[2])
        elif line.startswith("meta "):
            meta[parts[1]] = " ".join(parts[2:])
    return layers, e2e, meta


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--bin", help="run this built binary instead of the benchmark command")
    opts = ap.parse_args()
    command = [opts.bin] if opts.bin else bench["command"]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    print("# Traced per-layer breakdown\n")
    print(f"One traced run per workload, seed {opts.seed}, {opts.seconds} s, made with")
    print("`python3 perfbench/breakdown.py`. Times marked *normalised* are at nominal")
    print("host speed (see README.md). Served timings are raw.\n")
    for w in [x["name"] for x in bench["workloads"]]:
        layers, e2e, meta = traced_run(command, w, opts.seed, opts.seconds)
        shard = layers["synopsis.shard_ns_per_pt"]
        sweep = layers["detector.sweep_ns_per_pt"]
        commit = layers["detector.commit_ns_per_pt"]
        total = shard + sweep + commit
        evo_ms = layers["maintenance.ms_per_evolution"] * layers["maintenance.evolutions"]
        print(f"## {w}\n")
        print(f"nproc {meta.get('nproc')}, probe {meta.get('measured_probe_ms')} ms "
              f"(nominal {meta.get('nominal_probe_ms')} ms), WAL filesystem "
              f"{meta.get('wal_fs', 'n/a')}.\n")
        print("| phase of `process_batch` | ns per point (normalised) | share |")
        print("|---|---|---|")
        for name, v in (("shard (synopsis update + query)", shard), ("sweep", sweep),
                        ("commit (maintenance included)", commit)):
            print(f"| {name} | {v:.0f} | {v / total:.1%} |")
        points = float(meta.get("stream_points", 0) or 0)
        if points and w != "served-durable":
            share = evo_ms * 1e6 / (points * total)
            print(f"\nSelf-evolution: {layers['maintenance.evolutions']:.0f} per pass at "
                  f"{layers['maintenance.ms_per_evolution']:.2f} ms each (fitted), "
                  f"about {share:.0%} of detection time.")
        if w == "served-durable":
            pts_s = e2e["pts_s"]
            ckpt_share = layers["runtime.ckpt_delta_ms"] / 1e3 / (64 * 64 / pts_s)
            detect_share = total * pts_s / 1e9
            print(f"\nClosed loop at {pts_s:.0f} pts/s, request-to-verdict p50 "
                  f"{e2e['verdict_p50_ms']:.3f} ms: ingest round trip "
                  f"{layers['runtime.ingest_rtt_ms']:.3f} ms, acknowledgement to sink "
                  f"{layers['runtime.deliver_ms']:.3f} ms (p50s). Delta checkpoints take about "
                  f"{ckpt_share:.0%} of the loop's wall time. Detection work is about "
                  f"{detect_share:.0%} of wall time on the pump thread.")
        print("\n| per-layer metric | value | unit |")
        print("|---|---|---|")
        for k, v in layers.items():
            print(f"| `{k}` | {v:.6g} | {units.get(k, '')} |")
        print()


if __name__ == "__main__":
    main()
