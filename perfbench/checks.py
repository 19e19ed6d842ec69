"""Output checks that do not trust the compiler's own bookkeeping.

Each check compares against something computed apart from the compiler
(the paper's published numbers, the IR interpreter, a per-resource
lower bound worked out here, an in-process compile of the same request)
or against a property every correct modulo schedule has.  A check
returns a list of problem strings; an empty list means it passed.
``selftest.py`` feeds each one a corrupted output and shows that it
fails.
"""

from __future__ import annotations

import json
import math
import random

#: Figure 1 of the paper: II per source iteration of the dot product on
#: the toy machine under modulo scheduling, traditional, full and
#: selective vectorization.
PAPER_FIGURE1 = {"baseline": 2.0, "traditional": 3.0, "full": 1.5, "selective": 1.0}

#: Table 2 of the paper: mean selective speedup over modulo scheduling.
PAPER_TABLE2_SELECTIVE_MEAN = 1.11
#: Accepted distance from the paper's mean (the reproduction reads 1.12).
TABLE2_TOLERANCE = 0.02


def figure1_iis() -> dict[str, float]:
    """Compile the Figure 1 dot product under every strategy."""
    from repro.compiler.service import CompileRequest, compile_one
    from repro.compiler.strategies import Strategy
    from repro.machine.configs import figure1_machine
    from repro.workloads.kernels import dot_product

    machine = figure1_machine()
    loop = dot_product()
    iis = {}
    for strategy in Strategy:
        request = CompileRequest(
            loop,
            machine,
            strategy,
            baseline_unroll=1 if strategy is Strategy.BASELINE else None,
        )
        iis[strategy.value] = compile_one(request).compiled.ii_per_iteration()
    return iis


def check_figure1(iis: dict[str, float]) -> list[str]:
    return [
        f"Figure 1 {label}: II {iis.get(label)} != paper {want}"
        for label, want in PAPER_FIGURE1.items()
        if iis.get(label) != want
    ]


def table2_speedups(suite, compiled: dict[tuple[str, str, int], object]) -> dict:
    """Per-benchmark speedup over modulo scheduling, as the paper
    defines it: weighted loop cycles plus a serial part that is the same
    under every strategy.  ``compiled`` maps (benchmark, strategy, loop
    index) to a CompiledLoop."""
    speedups = {}
    for bench in suite:
        totals = {}
        for strategy in ("baseline", "traditional", "full", "selective"):
            totals[strategy] = sum(
                compiled[bench.name, strategy, i].invocation_cycles(wl.trip_count)
                * wl.invocations
                for i, wl in enumerate(bench.loops)
            )
        frac = bench.serial_fraction
        serial = round(totals["baseline"] * frac / (1.0 - frac))
        speedups[bench.name] = {
            s: (totals["baseline"] + serial) / (totals[s] + serial)
            for s in ("traditional", "full", "selective")
        }
    return speedups


def check_table2(speedups: dict) -> list[str]:
    mean = sum(r["selective"] for r in speedups.values()) / len(speedups)
    if abs(mean - PAPER_TABLE2_SELECTIVE_MEAN) > TABLE2_TOLERANCE:
        return [
            f"Table 2 selective mean {mean:.4f} is more than "
            f"{TABLE2_TOLERANCE} from the paper's {PAPER_TABLE2_SELECTIVE_MEAN}"
        ]
    return []


def resource_bound(loop, machine) -> int:
    """A lower bound on any legal II, worked out here: for each resource
    class, the cycles its units are busy per iteration divided by how
    many units it has."""
    busy: dict[str, int] = {}
    for op in loop.body:
        for use in machine.opcode_info(op).uses:
            busy[use.resource] = busy.get(use.resource, 0) + use.cycles
    counts = {rc.name: rc.count for rc in machine.resources}
    return max([1] + [math.ceil(c / counts[r]) for r, c in busy.items()])


def check_schedules(compiled) -> list[str]:
    """II >= max(ResMII, RecMII) on every unit, II at least the
    per-class resource bound, and zero ERROR findings from the
    translation validators of ``repro.check``."""
    from repro.check import run_all_checks

    problems = []
    name = f"{compiled.source.name}/{compiled.strategy.value}"
    for unit in compiled.units:
        schedule = unit.schedule
        floor = max(schedule.res_mii, schedule.rec_mii)
        floor = max(floor, resource_bound(schedule.loop, compiled.machine))
        if schedule.ii < floor:
            problems.append(f"{name}: unit II {schedule.ii} below bound {floor}")
    errors = run_all_checks(compiled).errors()
    if errors:
        problems.append(f"{name}: {len(errors)} ERROR finding(s): {errors[0].render()}")
    return problems


def execution_trip(compiled, rng: random.Random) -> int:
    """A trip count that leaves a cleanup remainder in every vector unit."""
    factors = [u.factor for u in compiled.units if u.factor > 1] or [2]
    trip = rng.randrange(17, 48)
    while any(trip % f == 0 for f in factors):
        trip += 1
    return trip


def check_execution(source, compiled, trip: int, memory_seed: int) -> list[str]:
    """Run the compiled loop on seeded memory and compare it with the
    interpreter's run of the source loop."""
    from repro.interp.interpreter import run_loop
    from repro.interp.memory import memory_for_loop

    want_memory = memory_for_loop(source, seed=memory_seed)
    want = run_loop(source, want_memory, 0, trip)
    got_memory = memory_for_loop(source, seed=memory_seed)
    name = f"{source.name}/{compiled.strategy.value} at trip {trip}"
    try:
        got = compiled.execute(got_memory, trip)
    except Exception as exc:  # a compiled loop that cannot run is wrong
        return [f"{name}: execution raised {type(exc).__name__}: {exc}"]
    if got_memory.snapshot_user_arrays() != want_memory.snapshot_user_arrays():
        return [f"{name}: memory differs from the interpreter"]
    for reg, value in want.carried.items():
        other = got.carried.get(reg)
        if other is None or not math.isclose(other, value, rel_tol=1e-9, abs_tol=1e-12):
            return [f"{name}: carried {reg} = {other}, interpreter {value}"]
    return []


def check_execution_sample(pairs, seed: int, size: int) -> list[str]:
    """``check_execution`` on a seeded sample of (source, compiled) pairs."""
    rng = random.Random(seed)
    problems = []
    for index in sorted(rng.sample(range(len(pairs)), min(size, len(pairs)))):
        source, compiled = pairs[index]
        trip = execution_trip(compiled, rng)
        problems += check_execution(source, compiled, trip, rng.randrange(1 << 20))
    return problems


def check_served(expected_key: str, reference: dict, response: dict) -> list[str]:
    """A served answer carries the locally computed key and equals the
    in-process summary of the same request (compared in wire form)."""
    if response.get("key") != expected_key:
        return [f"served key {response.get('key')!r} != local key {expected_key!r}"]
    if response.get("result") != json.loads(json.dumps(reference)):
        return [f"served summary for {expected_key[:12]} differs from compile_one"]
    return []
