#!/usr/bin/env python3
"""Run perfbench from two checkouts in alternating pairs and write the
before/after comparison as a BENCH_*.json file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --seconds 40 --out BENCH_16.json

Each checkout runs its own perfbench/run.py with --trace 0, from its own
directory. Pair k (k = 0, 1, ...) uses seed --first-seed + k; on odd seeds
the parent runs first, on even seeds the change does. Every run must report
`correct`; the script stops with exit 1 at the first run that does not,
after printing that run's `  FAIL ...` lines and the tail of its stderr,
where perfbench prints each failed item's traceback.

For each workload and each end-to-end metric named in the change's
BENCHMARK.json, the file gives the parent's and the change's q1, median and
q3 (statistics.quantiles, exclusive method), the median change in percent,
in how many pairs the change was better (the metric's `better` direction),
the parent's interquartile range and every pair as [parent, change]. The
file is rewritten after every pair, so an interrupted run keeps what it
measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's JSON result line for one run from checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        fails = [line for line in lines if line.startswith("  FAIL ")]
        raise SystemExit("\n".join([f"{checkout}: {workload} seed {seed} is not correct: "
                                    f"{lines[-1]}", *fails, proc.stderr[-4000:]]))
    return result


def quartiles(values: list[float]) -> list[float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return [round(q1, 4), round(median, 4), round(q3, 4)]


def summarize(metric: dict, pairs: list[tuple[dict, dict]]) -> dict:
    name = metric["name"]
    values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
    parent = quartiles([p for p, _ in values])
    change = quartiles([c for _, c in values])
    sign = 1 if metric["better"] == "higher" else -1
    better = sum(1 for p, c in values if sign * (c - p) > 0)
    return {
        "unit": metric["unit"],
        "parent_q1_median_q3": parent,
        "change_q1_median_q3": change,
        "median_change_pct": round((change[1] - parent[1]) / parent[1] * 100, 1)
        if parent[1] else None,
        "change_better_pairs": f"{better}/{len(values)}",
        "parent_iqr": round(parent[2] - parent[0], 4),
        "pairs": [[round(p, 4), round(c, 4)] for p, c in values],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workloads", default="generate_cold,score_long,build_dataset")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text("utf-8"))
    out = {
        "perfbench": {
            "command": f"python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {args.seconds:g} --trace 0",
            "protocol": "parent and change each run from their own checkout; pairs run back "
                        "to back, one pair per seed, parent first on odd seeds. Every run "
                        "is reported.",
            "workloads": {},
        }
    }
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.pairs))
        pairs = []
        for seed in seeds:
            sides = {}
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                sides[side] = run_once(getattr(args, side), workload, seed, args.seconds)
            pairs.append((sides["parent"], sides["change"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {sides[side]['metrics']['items_per_s']['value']:.4g} items/s"
                for side in order), flush=True)
            out["perfbench"]["workloads"][workload] = {
                "seeds": seeds[:len(pairs)],
                "order": "parent first on odd seeds",
                "all_correct": True,
                "failed_items": {side: sum(pair[i]["failed"] for pair in pairs)
                                 for i, side in enumerate(("parent", "change"))},
                "attempted_items": {side: sum(pair[i]["attempted"] for pair in pairs)
                                    for i, side in enumerate(("parent", "change"))},
                "metrics": {metric["name"]: summarize(metric, pairs)
                            for metric in spec["end_to_end"]},
            }
            args.out.write_text(json.dumps(out, indent=1) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
