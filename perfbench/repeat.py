"""Repeat ``run.py`` over several seeds and summarise each metric.

From the root of a checkout::

    python3 perfbench/repeat.py --workload selective_sweep --seeds 1-10 \\
        [--trace 0] [--seconds 20] [--out results.json]

For each metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, beside the metric's
bound from ``BENCHMARK.json``.  ``--out`` also keeps every run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        run["seed"] = seed
        runs.append(run)
        print(f"seed {seed}: correct={run['correct']} attempted={run['attempted']} "
              f"failed={run['failed']}", flush=True)
    summary = summarise(runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"{args.workload} trace={args.trace}: {len(runs)} runs, all correct="
          f"{all(r['correct'] for r in runs)}, failed {failed}/{attempted}")
    for name, s in summary.items():
        bound = bounds.get(name)
        print(f"  {name:32s} median {s['median']:>12.6g} {s['unit']:6s} "
              f"q1 {s['q1']:>12.6g} q3 {s['q3']:>12.6g} spread {s['spread']:7.2%}"
              + (f" (bound {bound:.0%})" if bound is not None and args.trace == 0 else ""))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "trace": args.trace, "seconds": seconds,
                       "summary": summary, "runs": runs}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
