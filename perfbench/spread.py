#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's run-to-run spread against its bound.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads mc_lock_2c --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --heldout 9001

For every workload and metric it prints the median of the runs, the
distance between the first and third quartile as a share of the median
(quartiles as `statistics.quantiles(values, n=4)` gives them), and the
metric's bound from BENCHMARK.json. With `--heldout SEED` it runs each
workload once more on that seed and reports whether each metric lands
within its bound of the median. A summary is written to
`perfbench/out/spread.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}\n{out.stderr}")
    return result, elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--heldout", type=int, help="one more seed, run once per workload")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    summary = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in seeds:
            result, elapsed = run(bench, workload, seed, args.trace)
            walls.append(elapsed)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"{workload}: {len(seeds)} runs, {max(walls):.1f} s longest")
        rows = {}
        for m in metrics:
            name = m["name"]
            row = {"values": values[name]}
            if len(seeds) >= 2 and statistics.median(values[name]) != 0:
                med, sp = spread(values[name])
                row.update(median=med, spread=sp)
                line = f"  {name:<34} median {med:<12.6g} spread {sp:7.4f}"
                if "bound" in m:
                    row["bound"] = m["bound"]
                    line += f"  bound {m['bound']:.3f}  ({sp / m['bound']:.2f} of bound)"
                    if name != "setup_s":
                        worst = max(worst, sp / m["bound"])
                print(line)
            rows[name] = row
        if args.heldout is not None:
            result, _ = run(bench, workload, args.heldout, args.trace)
            for m in metrics:
                if "bound" not in m or "median" not in rows[m["name"]]:
                    continue
                held = result["metrics"][m["name"]]["value"]
                shift = held / rows[m["name"]]["median"] - 1
                inside = abs(shift) <= m["bound"]
                rows[m["name"]]["heldout"] = {"seed": args.heldout, "value": held,
                                              "shift": shift, "inside_bound": inside}
                print(f"  held-out seed {args.heldout}: {m['name']:<22} {held:<12.6g} "
                      f"shift {shift:+.4f}  {'inside' if inside else 'OUTSIDE'} bound")
        summary[workload] = rows
    if args.trace == 0 and len(seeds) >= 2:
        print(f"largest spread (setup_s excluded): {worst:.2f} of its bound")
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spread.json"), "w") as f:
        json.dump({"seeds": seeds, "heldout": args.heldout, "workloads": summary}, f, indent=1)


if __name__ == "__main__":
    main()
