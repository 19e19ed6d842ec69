"""Per-layer tracing from outside the program.

``LayerTracer.install`` wraps ``compile_one`` and the public functions
that ``repro.compiler.driver`` and the partitioner call, in every
``repro`` module that imported them, and ``uninstall`` puts the
originals back.  Spans nest on one stack: a layer's self time is its
wrapped duration minus the wrapped calls made inside it, so the self
times of all layers plus ``compile.other_s`` add up to the wall time of
the traced ``compile_one`` calls.  Calls made outside ``compile_one``
are not recorded.
"""

from __future__ import annotations

import importlib
import sys
import time

#: (layer, module, attribute) of every wrapped function.  The layer
#: named ``compile`` is the root; its self time is ``compile.other_s``.
TARGETS = (
    ("compile", "repro.compiler.service", "compile_one"),
    ("dependence", "repro.dependence.analysis", "analyze_loop"),
    ("partition", "repro.vectorize.partition", "partition_operations"),
    ("transform", "repro.vectorize.transform", "transform_loop"),
    ("transform", "repro.vectorize.traditional", "distribute_loop"),
    ("modulo_schedule", "repro.pipeline.scheduler", "modulo_schedule"),
    ("regalloc", "repro.regalloc.allocator", "allocate_kernel"),
    ("spill", "repro.regalloc.spill", "spill_for_pressure"),
    ("cleanup_schedule", "repro.pipeline.list_schedule", "list_schedule_length"),
    ("bins.reserve_least_used", "repro.vectorize.bins", "Bins.reserve_least_used"),
    ("mii.rec_mii", "repro.pipeline.mii", "rec_mii"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS if layer != "compile"))

#: Effort counters carried by each compiled loop (repro.compiler.service
#: spelling -> metric name).
EFFORT = {
    "kl_iterations": "kl.iterations",
    "kl_probes": "kl.probes",
    "kl_probe_cache_hits": "kl.probe_cache_hits",
    "kl_bin_packs": "kl.bin_packs",
    "kl_repacks": "kl.repacks",
    "kl_pack_steps": "kl.pack_steps",
    "sched_attempts": "sched.attempts",
}


class LayerTracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        root = layer == "compile"
        self_s.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)

        def traced(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = getattr(owner, method)
                self._patch(owner, method, original, self._wrap(layer, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if name.startswith("repro") and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s.get(layer, 0.0), "s")
            out[f"{layer}.calls"] = (self.calls.get(layer, 0), "count")
        out["compile.other_s"] = (self.self_s.get("compile", 0.0), "s")
        return out

    def total_s(self) -> float:
        """Sum of all self times: the wall time of the traced compiles."""
        return sum(self.self_s.values())


def effort_metrics(compiled_loops, tracer: LayerTracer) -> dict[str, tuple[float, str]]:
    """Effort counters summed over the compiled loops, plus the ratios
    derived from them and from the layer call counts."""
    from repro.compiler.service import effort_counters

    totals = dict.fromkeys(EFFORT, 0)
    units = 0
    for compiled in compiled_loops:
        for key, value in effort_counters(compiled).items():
            totals[key] += value
        units += len(compiled.units)
    out = {EFFORT[k]: (v, "count") for k, v in totals.items()}
    probes = totals["kl_probes"]
    out["kl.probe_cache_hit_ratio"] = (
        totals["kl_probe_cache_hits"] / probes if probes else 0.0,
        "ratio",
    )
    out["sched.attempts_per_unit"] = (totals["sched_attempts"] / max(1, units), "ratio")
    out["regalloc.retries"] = (tracer.calls.get("modulo_schedule", 0) - units, "count")
    return out
