"""In-memory span recorder that times the program's layers from outside.

Nothing inside ``src/repro`` reads a clock.  The benchmark instead
replaces each layer's entry point with a wrapper that records a span
(layer, start, end, parent) around the original call.  A function is
wrapped at the name its caller looks up: ``from … import`` copies a
module-level binding into the importing module, so a plain function is
patched in every module that calls it, and a method is patched on its
class.  Wrappers exist only while a :class:`Tracer` is installed, so
untraced runs execute the unmodified program.

A span's self time is its duration minus the durations of its direct
child spans; summed per layer, self times partition the traced interval
without double counting, however the layers nest.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: counter hook: called with the tracer's counters, the call's
#: arguments and its return value
Counter = Callable[[dict[str, float], tuple, Any], None]


def _count_cache_get(counters: dict[str, float], args: tuple, result: Any) -> None:
    # ResultCache.get_many(self, keys) -> {key: value} of the hits
    counters["harness.result_cache.lookups"] += len(args[1])
    counters["harness.result_cache.hits"] += len(result)


def _count_compress(counters: dict[str, float], args: tuple, result: Any) -> None:
    counters["compression.blocks"] += int(result.success.size)
    counters["compression.compressed"] += int(result.success.sum())


def _count_store_get(counters: dict[str, float], args: tuple, result: Any) -> None:
    counters["trace.store.lookups"] += 1
    counters["trace.store.hits"] += result is not None


def _count_accesses(counters: dict[str, float], args: tuple, result: Any) -> None:
    # TimingSystem.run(self, trace, ...): every simulated access
    counters["system.accesses"] += sum(len(core) for core in args[1].cores)


#: (module, attribute path, layer, counter).  A dotted attribute path
#: names a method, patched on its class; a bare name is a module-level
#: binding, patched in that module only.
LAYER_BINDINGS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("repro.harness.sweep", "run_sweep", "harness.sweep", None),
    ("repro.harness.sweep", "run_functional_job", "workloads", None),
    ("repro.harness.sweep", "SweepPoint.make", "workloads", None),
    ("repro.approx.approximators", "AVRApproximator.apply", "approx.avr", None),
    ("repro.approx.approximators", "TruncateApproximator.apply",
     "approx.truncate", None),
    ("repro.approx.approximators", "DoppelgangerApproximator.apply",
     "approx.dganger", None),
    ("repro.compression.compressor", "AVRCompressor.compress_blocks",
     "compression", _count_compress),
    ("repro.harness.sweep", "run_timing_job", "system", None),
    ("repro.harness.sweep", "build_system", "system", None),
    ("repro.system.simulator", "TimingSystem.run", "system", _count_accesses),
    ("repro.cache.array_lru", "BatchedPrivateFilter.filter",
     "cache.private_filter", None),
    ("repro.cache.llc_avr", "AVRLLC.replay_batch", "cache.llc_avr", None),
    ("repro.cache.llc_baseline", "BaselineLLC.replay_batch",
     "cache.llc_baseline", None),
    ("repro.memory.dram", "DRAM.access_batch", "memory.dram", None),
    ("repro.memory.dram", "DRAM.replay_transfers", "memory.dram", None),
    ("repro.cpu.interval", "IntervalCore.replay_batch", "cpu.interval", None),
    ("repro.harness.scenario", "generate_trace", "trace.generate", None),
    ("repro.harness.scenario", "compose_traces", "trace.generate", None),
    ("repro.trace.store", "TraceStore.get", "trace.store", _count_store_get),
    ("repro.trace.store", "TraceStore.put", "trace.store", None),
    ("repro.trace.store", "TraceStore.contains", "trace.store", None),
    ("repro.trace.store", "TraceHandle.load", "trace.store", None),
    ("repro.harness.sweep", "content_key", "harness.content_key", None),
    ("repro.harness.scenario", "content_key", "harness.content_key", None),
    ("repro.harness.cache", "ResultCache.get_many", "harness.result_cache.get",
     _count_cache_get),
    ("repro.harness.cache", "ResultCache.put_many", "harness.result_cache.put",
     None),
)

#: every layer, in report order
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(b[2] for b in LAYER_BINDINGS))


class Tracer:
    """Records spans around the wrapped layer entry points."""

    def __init__(self) -> None:
        #: (layer, start_ns, end_ns, parent index or -1)
        self.spans: list[tuple[str, int, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: (module, attribute path) of every wrapped binding that ran
        self.binding_calls: set[tuple[str, str]] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((layer, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        layer, start, _, parent = self.spans[index]
        self.spans[index] = (layer, start, time.perf_counter_ns(), parent)
        self._stack.pop()

    def _wrapper(self, original: Any, binding: tuple[str, str], layer: str,
                 counter: Counter | None) -> Any:
        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.binding_calls.add(binding)
            index = self._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                counter(self.counters, args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every binding in :data:`LAYER_BINDINGS`."""
        if self._patches:
            return
        for module_name, path, layer, counter in LAYER_BINDINGS:
            owner: Any = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrapper(original, (module_name, path), layer, counter))

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def rollup(self) -> dict[str, dict[str, float]]:
        """``{layer: {"self_s", "calls"}}`` over every recorded span."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for index, (layer, start, end, _) in enumerate(self.spans):
            out[layer]["self_s"] += (end - start - child_ns[index]) / 1e9
            out[layer]["calls"] += 1
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """Write every span as Chrome trace-event JSON (``chrome://tracing``)."""
        origin = self.spans[0][1] if self.spans else 0
        events = [
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
            }
            for layer, start, end, _ in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))

