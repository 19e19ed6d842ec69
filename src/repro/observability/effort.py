"""The deterministic compile-effort counters, each defined once.

Every compiled loop carries how much search its compile took.  These
counters are pure functions of (loop, machine, strategy, compiler
version), so they are identical in-process, in a pool worker, behind
the compile server and from the artifact store, and the effort gate
can require that they do not grow.  Everything that lists them -- the
served summary, the evaluator telemetry, the BENCH payloads, the
profile, the sweep and serve ledger records -- derives its list from
:data:`EFFORT_COUNTERS`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EffortCounter:
    """One effort counter.

    ``name`` is its spelling in BENCH JSON, ledger records and served
    summaries; ``trace`` the recorder counter that carries the same
    effort in traces and profiles.  ``phase`` names the compiler phase
    that owns it and so where a compiled loop keeps it: ``partition``
    counters are attribute ``source`` of the loop's ``PartitionResult``
    (absent when the strategy does not partition); ``modulo_schedule``
    counters are attribute ``source`` of each unit's schedule, summed.
    """

    name: str
    trace: str
    phase: str
    source: str


EFFORT_COUNTERS = (
    EffortCounter("kl_iterations", "kl.iterations", "partition", "iterations"),
    EffortCounter("kl_probes", "kl.moves_evaluated", "partition", "n_probes"),
    EffortCounter("kl_bin_packs", "kl.bin_packs", "partition", "n_bin_packs"),
    EffortCounter("kl_repacks", "kl.repacks", "partition", "n_repacks"),
    EffortCounter("kl_pack_steps", "kl.pack_steps", "partition", "n_pack_steps"),
    EffortCounter("sched_attempts", "sched.ii_attempts", "modulo_schedule", "attempts"),
)

#: The counter names, in table order.
EFFORT_NAMES = tuple(counter.name for counter in EFFORT_COUNTERS)


def zero_effort() -> dict[str, int]:
    """Every counter at zero, in table order."""
    return dict.fromkeys(EFFORT_NAMES, 0)
