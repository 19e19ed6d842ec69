"""Run one benchmark workload, check its outputs and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload paper_table2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, untraced and traced

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.
Every run starts in fresh interpreters (``worker.py``): a few that only
set up, for the median ``setup_s``, and one that sets up and measures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
#: Set-up-only interpreters started before the measured one; setup_s is
#: the median over these and the measured run's own set-up.
SETUP_PROBES = 4
DEADLINE_S = 170.0
#: Every workload of worker.py.  BENCHMARK.json declares the ones whose
#: figures hold still enough on the reference machine to gate a change;
#: served_mix is run by hand (perfbench/README.md says why).
WORKLOADS = ("paper_table2", "selective_sweep", "served_mix")


class BenchmarkError(Exception):
    pass


def worker(args: argparse.Namespace, timeout: float, *extra: str) -> tuple[dict, float]:
    """Run worker.py in its own process group; returns its result and
    the seconds from just before its start to its first timed request."""
    command = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        out, err = "", f"worker exceeded {timeout:.0f} s"
    finally:
        try:  # nothing the worker started may outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{args.workload} worker failed:\n{err[-3000:]}")
    result = json.loads(lines[-1])
    return result, result["ready_at"] - started


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_once(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(worker(args, 60.0, "--setup-only")[1])
    result, setup = worker(args, deadline - time.monotonic())
    setups.append(setup)
    values = dict(result["metrics"])
    values["setup_s"] = [statistics.median(setups), "s"]
    metrics = {}
    for name, unit in declared_metrics()[args.trace].items():
        if name not in values:
            raise BenchmarkError(f"{args.workload} did not report {name}")
        value, got_unit = values[name]
        if got_unit != unit:
            raise BenchmarkError(f"{name} reported in {got_unit}, declared {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for line in result["problems"]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for line in result["failures"]:
        print(f"REQUEST FAILED: {line}", file=sys.stderr)
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--all", action="store_true", help="every workload, trace 0 and 1")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # Byte-compile first, so a fresh checkout's .pyc writes are not set-up.
    for tree in ("src", "perfbench"):
        compileall.compile_dir(os.path.join(ROOT, tree), quiet=2)
    try:
        if not args.all:
            print(json.dumps(run_once(args)))
            return 0
        everything = {}
        for name in WORKLOADS:
            for trace in (0, 1):
                args.workload, args.trace = name, trace
                result = run_once(args)
                everything[f"{name}/trace{trace}"] = result
                print(f"== {name} trace={trace} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                for metric, entry in result["metrics"].items():
                    print(f"   {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
        print(json.dumps(everything))
    except BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
