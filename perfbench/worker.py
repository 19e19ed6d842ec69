"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this file as a child process and reads the JSON object
it prints last.  The child builds its inputs (set-up), prints nothing
until the end, times the workload, then checks the outputs::

    python3 perfbench/worker.py --workload paper_table2 --seed 1 \\
        --seconds 20 --trace 0 [--setup-only]

``ready_at`` in the result is ``time.monotonic()`` just before the first
timed request, so the parent can measure set-up from before the
interpreter started.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402  (perfbench/ is sys.path[0])
from layers import LayerTracer, effort_metrics  # noqa: E402

#: Each workload's input is sized for about this many seconds of timed
#: work on the reference machine (README); ``--seconds`` scales the
#: input by ``max(1, round(seconds / ROUND_SECONDS))``.
ROUND_SECONDS = 20
SWEEP_LOOPS = 1000
SERVED_LOOPS = 200
SERVED_STRATEGIES = ("baseline", "full", "selective")
#: A warm read of a unique request is sent after the cold pairs of this
#: many later requests.
WARM_LAG = 16
EXECUTION_SAMPLE = 40
OUT_DIR = os.path.join(ROOT, ".perfbench_run")

SERVE_METRICS = {
    "serve.compiles": "count",
    "serve.dedup_hits": "count",
    "serve.cache_hits": "count",
    "serve.batches": "count",
    "serve.batch_size_mean": "count",
    "serve.rejected": "count",
    "serve.cold_p50_ms": "ms",
    "serve.dedup_p50_ms": "ms",
    "serve.warm_p50_ms": "ms",
    "serve.wait_p50_ms": "ms",
    "store.key_ms": "ms",
    "store.get_ms": "ms",
}


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: at p99 of n >= 1000 values, at least
    ten lie above it."""
    ordered = sorted(values)
    return ordered[max(1, -(-pct * len(ordered) // 100)) - 1]


def peak_rss_mb() -> float:
    """Largest resident set so far of this process or any child it
    waited for; read right after the timed phase, before the checks."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def compile_requests(requests):
    """Compile each request in turn; returns (compiled or None per
    request, latencies in ms of the answered ones, failure messages)."""
    from repro.compiler import service

    compiled, latencies, failures = [], [], []
    clock = time.perf_counter
    for request in requests:
        start = clock()
        try:
            payload = service.compile_one(request)
        except Exception as exc:  # counted as a failed request
            compiled.append(None)
            failures.append(f"{request.loop.name}/{request.strategy.value}: "
                            f"{type(exc).__name__}: {exc}")
            continue
        latencies.append((clock() - start) * 1e3)
        compiled.append(payload.compiled)
    return compiled, latencies, failures


class Run:
    """Observations of one run, turned into the worker's result."""

    def __init__(self, args) -> None:
        self.args = args
        self.scale = max(1, round(args.seconds / ROUND_SECONDS))
        self.ready_at = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}

    def start_timing(self) -> None:
        self.ready_at = time.monotonic()

    def e2e(self, answered: int, wall_s: float, cpu_s: float, latencies, ii_sum: float) -> None:
        self.metrics.update(
            requests_per_s=(answered / wall_s, "1/s"),
            cpu_s=(cpu_s, "s"),
            p50_ms=(percentile(latencies, 50), "ms"),
            p99_ms=(percentile(latencies, 99), "ms"),
            ii_sum=(ii_sum, "cycles"),
        )

    def traced(self, requests, untraced_wall_s: float, untraced) -> None:
        """Compile ``requests`` again with the layer wrappers installed."""
        tracer = LayerTracer()
        tracer.install()
        try:
            start = time.perf_counter()
            compiled, latencies, _ = compile_requests(requests)
            wall_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        if [c and c.ii_per_iteration() for c in compiled] != [
            c and c.ii_per_iteration() for c in untraced
        ]:
            self.problems.append("traced compiles reached other IIs than untraced ones")
        covered = tracer.total_s() * 1e3
        if abs(covered - sum(latencies)) > 0.01 * sum(latencies):
            self.problems.append(
                f"layer self times add up to {covered:.0f} ms, compile_one took "
                f"{sum(latencies):.0f} ms"
            )
        self.metrics.update(tracer.metrics())
        self.metrics.update(effort_metrics([c for c in compiled if c], tracer))
        self.metrics["trace.overhead_s"] = (wall_s - untraced_wall_s, "s")

    def check_compiled(self, pairs) -> None:
        """Schedule checks on every compiled loop, execution on a sample,
        and Figure 1."""
        for _, compiled in pairs:
            self.problems += checks.check_schedules(compiled)
        self.problems += checks.check_execution_sample(pairs, self.args.seed, EXECUTION_SAMPLE)
        self.problems += checks.check_figure1(checks.figure1_iis())

    def result(self) -> dict:
        return {
            "ready_at": self.ready_at,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:5],
            "problems": self.problems[:20],
            "metrics": {k: [v, unit] for k, (v, unit) in self.metrics.items()},
        }


def in_process(run: Run, requests, rounds: int):
    """Shared body of the two serial, in-process workloads: compile
    ``rounds`` times over ``requests``, check, and trace if asked.
    Returns the compiled loops of the first round."""
    if run.args.setup_only:
        run.start_timing()
        return None
    cpu0 = time.process_time()
    run.start_timing()
    start = time.perf_counter()
    compiled, latencies, failures = compile_requests(requests * rounds)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    run.metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    run.attempted = len(compiled)
    run.failures = failures
    iis = [c and c.ii_per_iteration() for c in compiled]
    if iis != iis[: len(requests)] * rounds:
        run.problems.append("a repeated round reached other IIs")
    first = compiled[: len(requests)]
    run.e2e(len(latencies), wall_s, cpu_s, latencies, sum(c.ii_per_iteration() for c in first if c))
    run.check_compiled([(r.loop, c) for r, c in zip(requests, first) if c])
    if run.args.trace:
        run.traced(requests * rounds, wall_s, compiled)
        run.metrics.update({k: (0, unit) for k, unit in SERVE_METRICS.items()})
    return first


def paper_table2(run: Run) -> None:
    """The nine synthetic SPEC benchmarks under the four Table 2
    strategies on the paper machine, in the evaluator's order (benchmark,
    strategy, loop).  The suite is fixed; the seed picks the loops and
    memory contents of the execution check."""
    from repro.compiler.service import CompileRequest
    from repro.compiler.strategies import Strategy
    from repro.machine.configs import paper_machine
    from repro.workloads.spec import build_suite

    suite = build_suite()
    machine = paper_machine()
    jobs = [
        ((bench.name, strategy.value, index), CompileRequest(wl.loop, machine, strategy))
        for bench in suite
        for strategy in Strategy
        for index, wl in enumerate(bench.loops)
    ]
    labels, requests = zip(*jobs)
    first = in_process(run, list(requests), run.scale)
    if first is None:
        return
    if None in first:
        run.problems.append("Table 2 is incomplete: some compiles failed")
        return
    run.problems += checks.check_table2(checks.table2_speedups(suite, dict(zip(labels, first))))


def stratified_plan(loops: int, seed: int):
    """A seeded corpus with an equal share of every archetype: one
    CorpusSpec draw per archetype, interleaved.  Fixing the mix keeps
    the per-seed spread down to the spread of loops within an archetype."""
    from repro.workloads.generator import GENERATORS, CorpusSpec, corpus_plan

    per = -(-loops // len(GENERATORS))
    draws = [
        corpus_plan(CorpusSpec(size=per, seed=seed, archetypes=(name,), name_prefix=f"{name}."))
        for name in GENERATORS
    ]
    return [item for row in zip(*draws) for item in row][:loops]


def selective_sweep(run: Run) -> None:
    """A seeded corpus over every archetype, selective strategy only."""
    from repro.compiler.service import CompileRequest
    from repro.compiler.strategies import Strategy
    from repro.machine.configs import paper_machine

    machine = paper_machine()
    plan = stratified_plan(SWEEP_LOOPS * run.scale, run.args.seed)
    requests = [
        CompileRequest(item.materialize(), machine, Strategy.SELECTIVE) for item in plan
    ]
    in_process(run, requests, rounds=1)


def served_bodies(plan) -> tuple[list[dict], list[int]]:
    """Unique request bodies and the send order: each unique request as
    an adjacent pair, then once more WARM_LAG pairs later."""
    unique = [
        {
            "loop": {"generator": {"archetype": item.archetype, "seed": item.loop_seed, "name": item.name}},
            "machine": "paper",
            "strategy": label,
        }
        for item in plan
        for label in SERVED_STRATEGIES
    ]
    order: list[int] = []
    for index in range(len(unique)):
        order += [index, index]
        if index >= WARM_LAG:
            order.append(index - WARM_LAG)
    order += range(max(0, len(unique) - WARM_LAG), len(unique))
    return unique, order


def served_mix(run: Run) -> None:
    """A spawned compile server, pool sized to the CPUs, cold store;
    one client, two keep-alive connections in a closed loop."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="store-") as store_dir:
        serve_through(run, store_dir)


def serve_through(run: Run, store_dir: str) -> None:
    from repro.compiler import service
    from repro.compiler.strategies import Strategy
    from repro.machine.configs import machine_by_name
    from repro.serve import ArtifactStore
    from repro.workloads.generator import generate

    from served import Server, drive

    plan = stratified_plan(SERVED_LOOPS * run.scale, run.args.seed)
    unique, order = served_bodies(plan)
    bodies = [unique[i] for i in order]
    server = Server(ROOT, store_dir, len(os.sched_getaffinity(0)))
    try:
        # One compile outside the corpus starts the pool workers.
        warm_up = {"loop": {"generator": {"archetype": "fp_chain", "seed": 0, "name": "perfbench.warmup"}}}
        conn = server.connect()
        server.call(conn, "POST", "/compile", warm_up)
        conn.close()
        if run.args.setup_only:
            run.start_timing()
            return
        stats0, cpu0 = server.stats(), server.cpu_s()
        client_cpu0 = time.process_time()
        run.start_timing()
        start = time.perf_counter()
        records = drive(server, bodies, connections=2)
        wall_s = time.perf_counter() - start
        client_cpu = time.process_time() - client_cpu0
        cpu1, stats1 = server.cpu_s(), server.stats()
    finally:
        server.stop()
    run.metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    run.attempted = len(records)
    server_cpu = sum(c - cpu0.get(pid, 0.0) for pid, c in cpu1.items())

    # In-process reference: the same requests built here, untraced.
    machine = machine_by_name("paper")
    requests, keys, key_ms = [], [], []
    for body in unique:
        draw = body["loop"]["generator"]
        request = service.CompileRequest(
            generate(draw["archetype"], draw["seed"], draw["name"]), machine, Strategy(body["strategy"])
        )
        start = time.perf_counter()
        keys.append(request.cache_key())
        key_ms.append((time.perf_counter() - start) * 1e3)
        requests.append(request)
    ref_start = time.perf_counter()
    compiled, ref_ms, failures = compile_requests(requests)
    ref_wall_s = time.perf_counter() - ref_start
    if failures:
        run.problems.append(f"in-process reference compile failed: {failures[0]}")
        ref_ms = [0.0] * len(requests)
    summaries = [service.CompiledLoopPayload(r, c).summary() if c else {} for r, c in zip(requests, compiled)]

    by_tag: dict[str, list[float]] = {"compiled": [], "dedup": [], "cache": []}
    waits = []
    for index, record in zip(order, records):
        if record["status"] != 200:
            run.failures.append(f"HTTP {record['status']}: {record['answer']}")
            continue
        wrong = checks.check_served(keys[index], summaries[index], record["answer"])
        if wrong:
            run.failures += wrong
            continue
        tag = record["answer"]["served"]
        by_tag.setdefault(tag, []).append(record["ms"])
        if tag == "compiled":
            waits.append(record["ms"] - ref_ms[index])
    answered = [r["ms"] for r in records if r["status"] == 200]

    store = ArtifactStore(store_dir)
    get_ms = []
    for key, request in zip(keys, requests):
        start = time.perf_counter()
        store.get_summary(key, request)
        get_ms.append((time.perf_counter() - start) * 1e3)

    run.e2e(
        len(answered),
        wall_s,
        client_cpu + server_cpu,
        answered,
        sum(s["ii"] for s in summaries if s),
    )
    pairs = [(r.loop, c) for r, c in zip(requests, compiled) if c]
    run.check_compiled(pairs)
    if not run.args.trace:
        return

    def delta(name: str) -> int:
        return stats1.get(name, 0) - stats0.get(name, 0)

    sizes = {int(k): v - stats0["batches"].get(k, 0) for k, v in stats1["batches"].items()}
    batches = sum(sizes.values())

    def median(values):
        return statistics.median(values) if values else 0.0

    run.metrics.update(
        {
            "serve.compiles": (delta("compiles"), "count"),
            "serve.dedup_hits": (delta("dedup_hits"), "count"),
            "serve.cache_hits": (delta("cache_hits"), "count"),
            "serve.batches": (batches, "count"),
            "serve.batch_size_mean": (sum(k * v for k, v in sizes.items()) / max(1, batches), "count"),
            "serve.rejected": (delta("rejected"), "count"),
            "serve.cold_p50_ms": (median(by_tag["compiled"]), "ms"),
            "serve.dedup_p50_ms": (median(by_tag["dedup"]), "ms"),
            "serve.warm_p50_ms": (median(by_tag["cache"]), "ms"),
            "serve.wait_p50_ms": (median(waits), "ms"),
            "store.key_ms": (median(key_ms), "ms"),
            "store.get_ms": (median(get_ms), "ms"),
        }
    )
    run.traced(requests, ref_wall_s, compiled)


WORKLOADS = {
    "paper_table2": paper_table2,
    "selective_sweep": selective_sweep,
    "served_mix": served_mix,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    run = Run(args)
    WORKLOADS[args.workload](run)
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
