"""Effort counters are defined once, and compiles never alias op uids.

Every list of the deterministic effort counters is derived from
``repro.observability.effort.EFFORT_COUNTERS``; the display orderings
that stay explicit must name only counters of that table.  The uid
tests compile a loop whose uids lie ahead of the process's counter, as
a forked compile-server worker receives it.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest

from repro.analysis.runner import EFFORT_FIELDS
from repro.compiler.service import CompileRequest, compile_one, effort_counters
from repro.compiler.strategies import Strategy
from repro.dashboard.render import TREND_COUNTERS
from repro.evaluation.bench_io import compile_perf_payload, telemetry_payload
from repro.evaluation.experiments import LOOP_EFFORT_COUNTERS, CompileTelemetry
from repro.ir import operations
from repro.machine.configs import paper_machine
from repro.observability.effort import EFFORT_COUNTERS, EFFORT_NAMES
from repro.profiling.history import HISTORY_COUNTERS
from repro.profiling.profile import EFFORT_COUNTER_MAP
from repro.serve.loadgen import build_record
from repro.workloads.generator import GENERATORS, CorpusSpec, generate

MACHINE = paper_machine()


def _compiled(strategy: Strategy, archetype: str = "mixed", seed: int = 5):
    request = CompileRequest(
        loop=generate(archetype, seed), machine=MACHINE, strategy=strategy
    )
    return compile_one(request)


def test_table_names_are_unique():
    assert len(set(EFFORT_NAMES)) == len(EFFORT_NAMES)
    assert len({c.trace for c in EFFORT_COUNTERS}) == len(EFFORT_COUNTERS)
    assert {c.phase for c in EFFORT_COUNTERS} == {"partition", "modulo_schedule"}


def test_every_derived_counter_list_equals_the_table():
    selective = _compiled(Strategy.SELECTIVE)
    baseline = _compiled(Strategy.BASELINE)
    assert list(effort_counters(selective.compiled)) == list(EFFORT_NAMES)
    assert list(effort_counters(baseline.compiled)) == [
        c.name for c in EFFORT_COUNTERS if c.phase != "partition"
    ]

    telemetry = CompileTelemetry()
    telemetry.absorb(selective.compiled)
    telemetry.absorb(baseline.compiled)
    assert list(telemetry.effort) == list(EFFORT_NAMES)
    # The analyzer watches stores to the telemetry fields holding effort.
    assert EFFORT_FIELDS == ("effort",)
    assert list(getattr(CompileTelemetry(), EFFORT_FIELDS[0])) == list(EFFORT_NAMES)

    evaluator = SimpleNamespace(
        jobs=1,
        compile_cache=None,
        telemetry_rows=lambda names: {"b": {"selective": telemetry}},
    )
    row = telemetry_payload(evaluator, ("b",))["b"]["selective"]
    assert [key for key in row if key in telemetry.effort] == list(EFFORT_NAMES)
    perf = compile_perf_payload(evaluator, ("b",))
    assert list(perf["effort"]) == list(EFFORT_NAMES)

    assert EFFORT_COUNTER_MAP == {c.name: c.trace for c in EFFORT_COUNTERS}

    record = build_record(
        CorpusSpec(size=1, seed=0),
        ["selective"],
        MACHINE.name,
        {"key": selective.summary()},
        wall_s=0.0,
        label="",
        jobs=1,
        cache_info={},
    )
    assert list(record.effort) == list(EFFORT_NAMES)


def test_display_orderings_are_subsets_of_the_table():
    for ordering in (HISTORY_COUNTERS, TREND_COUNTERS, LOOP_EFFORT_COUNTERS):
        assert set(ordering) <= set(EFFORT_NAMES), ordering


@pytest.mark.parametrize("archetype", sorted(GENERATORS))
def test_compile_mints_no_uid_the_loop_carries(archetype, monkeypatch):
    """A compile-server worker forked before a loop was built receives
    the loop with uids its own counter has not reached.  Rewinding the
    counter to the loop's first uid reproduces that in one process:
    traditional vectorization then mints uids the loop already holds
    unless the compile skips past them."""
    for seed in range(15):
        loop = generate(archetype, seed)
        first = min(op.uid for op in loop.body)
        monkeypatch.setattr(operations, "_op_ids", itertools.count(first))
        compile_one(
            CompileRequest(loop=loop, machine=MACHINE, strategy=Strategy.TRADITIONAL)
        )


def test_uid_reservation_is_a_no_op_in_process():
    loop = generate("interleaved", 1)
    before = operations._next_op_id()
    operations.reserve_op_ids_through(max(op.uid for op in loop.body))
    assert operations._next_op_id() == before + 1
