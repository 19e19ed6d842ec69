"""Show that every output check passes on genuine output and fails on a
deliberately corrupted one.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402


def compile_sample(strategy_name: str = "selective"):
    from repro.compiler.service import CompileRequest, compile_one
    from repro.compiler.strategies import Strategy
    from repro.machine.configs import paper_machine
    from repro.workloads.generator import generate

    request = CompileRequest(generate("fp_chain", 7), paper_machine(), Strategy(strategy_name))
    return request, compile_one(request)


def with_unit(compiled, **changes):
    """A copy of ``compiled`` whose first unit has ``changes`` applied
    to its schedule (``ii``, ``times``) or transform (``transform``)."""
    unit = compiled.units[0]
    transform = changes.pop("transform", unit.transform)
    schedule = dataclasses.replace(unit.schedule, **changes)
    bad = copy.copy(compiled)
    bad.units = [dataclasses.replace(unit, schedule=schedule, transform=transform)] + compiled.units[1:]
    return bad


def cases():
    request, payload = compile_sample()
    compiled = payload.compiled
    source = request.loop
    trip = checks.execution_trip(compiled, random.Random(3))

    figure1 = checks.figure1_iis()
    yield "figure1", checks.check_figure1(figure1), checks.check_figure1({**figure1, "selective": 1.5})

    paper_like = {f"b{i}": {"selective": 1.11} for i in range(9)}
    drifted = {f"b{i}": {"selective": 1.20} for i in range(9)}
    yield "table2", checks.check_table2(paper_like), checks.check_table2(drifted)

    schedule = compiled.units[0].schedule
    below = with_unit(compiled, ii=max(schedule.res_mii, schedule.rec_mii) - 1)
    yield "ii_bound", checks.check_schedules(compiled), checks.check_schedules(below)

    # Every operation issued in cycle 0 breaks dependences and resource
    # limits at an unchanged II: only the translation validators see it.
    crowded = with_unit(compiled, times=dict.fromkeys(schedule.times, 0))
    yield (
        "repro_check",
        checks.check_schedules(compiled),
        [p for p in checks.check_schedules(crowded) if "ERROR" in p],
    )

    # A kernel that lost its last store computes something else.
    transform = compiled.units[0].transform
    body = list(transform.loop.body)
    last_store = max(i for i, op in enumerate(body) if op.kind.is_memory and op.dest is None)
    del body[last_store]
    lossy = dataclasses.replace(transform, loop=dataclasses.replace(transform.loop, body=tuple(body)))
    yield (
        "execution",
        checks.check_execution(source, compiled, trip, 5),
        checks.check_execution(source, with_unit(compiled, transform=lossy), trip, 5),
    )

    key = request.cache_key()
    summary = payload.summary()
    answer = {"key": key, "served": "compiled", "result": summary}
    yield "served_key", checks.check_served(key, summary, answer), checks.check_served(
        key, summary, {**answer, "key": "0" * len(key)}
    )
    yield "served_summary", checks.check_served(key, summary, answer), checks.check_served(
        key, summary, {**answer, "result": {**summary, "ii": summary["ii"] + 1}}
    )


def main() -> int:
    status = 0
    for name, genuine, corrupted in cases():
        ok = not genuine and bool(corrupted)
        status |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: genuine {genuine or 'passes'}; "
              f"corrupted -> {corrupted[:1] or 'NOT DETECTED'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
