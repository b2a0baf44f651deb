"""In-memory spans for the traced benchmark run.

The benchmark opens a span around every public call it makes into the
program (``datasets.load``, ``core.assign``, ``sql.execute`` ...).  While a
:class:`Spans` recorder is attached to the program's phase profiler
(:func:`capture_phases`), every ``PROFILER.phase(...)`` block the program
already has (``cluster.plan``, ``sql.parse``, ``minimax.weights`` ...)
becomes a child span of whichever span is open, so one public call that
crosses two layers splits into them without touching the program.

A span's self time is its duration minus the time its children cover; a
layer's self time is the sum of the self times of its spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

# Span name prefix -> layer.  Benchmark spans name the public call; program
# phases keep the name ``PROFILER.phase`` gave them.  Longest prefix wins.
LAYER_PREFIXES = {
    "datasets.": "datasets",
    "gridfile.": "gridfile",
    "core.": "core",
    "assign.": "core",
    "minimax.": "core",
    "sim.": "sim",
    "resolve_query_buckets": "sim",
    "response_times": "sim",
    "evaluate_queries": "sim",
    "parallel.deploy": "parallel.coordinator",
    "cluster.plan": "parallel.coordinator",
    "parallel.run_queries": "parallel.engine",
    "cluster.run": "parallel.engine",
    "online.run": "parallel.online",
    "storage.": "storage",
    "sql.": "sql",
    "bench.": "bench",
}

#: Every layer the per-layer report names, in report order.
LAYERS = (
    "datasets",
    "gridfile",
    "core",
    "sim",
    "parallel.coordinator",
    "parallel.engine",
    "parallel.online",
    "storage",
    "sql",
)


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``"bench"`` for the harness)."""
    best = ""
    for prefix in LAYER_PREFIXES:
        if name.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    if not best:
        raise KeyError(f"span {name!r} maps to no layer")
    return LAYER_PREFIXES[best]


@dataclass
class Span:
    """One closed span: ``[start, end)`` seconds on the host clock."""

    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    group: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


_NULL = nullcontext()


class Spans:
    """Span recorder; a disabled one costs one attribute check per span."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, group: "str | None" = None):
        """Context manager recording ``name`` as a child of the open span.

        ``group`` ties the spans of one statement, query batch or set-up
        together; children inherit their parent's group.
        """
        if not self.enabled:
            return _NULL
        return self._open(name, group)

    @contextmanager
    def paused(self):
        """Record nothing inside the block: the harness's own checks call the
        program too, and that work belongs to no measured layer."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    @contextmanager
    def _open(self, name: str, group: "str | None"):
        parent = self._stack[-1] if self._stack else None
        if group is None:
            group = parent.group if parent is not None else ""
        sp = Span(
            id=len(self.records),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.id if parent is not None else None,
            group=group,
        )
        self.records.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like :attr:`records`."""
        child = [0.0] * len(self.records)
        for sp in self.records:
            if sp.parent is not None:
                child[sp.parent] += sp.seconds
        return [sp.seconds - c for sp, c in zip(self.records, child)]

    def inclusive(self, prefix: str) -> float:
        """Total duration of the spans whose name starts with ``prefix``.

        Spans nested inside another span of the same prefix count once.
        """
        total = 0.0
        for sp in self.records:
            if sp.name.startswith(prefix) and not self._under(sp, prefix):
                total += sp.seconds
        return total

    def self_time(self, prefix: str) -> float:
        """Summed self time of the spans whose name starts with ``prefix``."""
        st = self.self_times()
        return sum(st[sp.id] for sp in self.records if sp.name.startswith(prefix))

    def layer_self_times(self) -> dict:
        """``layer -> self seconds`` over every recorded span."""
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for sp, st in zip(self.records, self.self_times()):
            out[layer_of(sp.name)] += st
        return out

    def write_jsonl(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        t0 = self.records[0].start if self.records else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.records:
                fh.write(json.dumps({
                    "id": sp.id, "name": sp.name, "layer": layer_of(sp.name),
                    "start": sp.start - t0, "end": sp.end - t0,
                    "parent": sp.parent, "group": sp.group,
                }) + "\n")

    def _under(self, sp: Span, prefix: str) -> bool:
        p = sp.parent
        while p is not None:
            if self.records[p].name.startswith(prefix):
                return True
            p = self.records[p].parent
        return False


@contextmanager
def capture_phases(spans: Spans):
    """Turn the program's phase profiler into child spans of ``spans``.

    The profiler's public ``phase(name)`` is shadowed on the instance for
    the duration of the block and restored afterwards, so the program's
    default (disabled, no-op) profiler is untouched outside it.
    """
    from repro.obs import PROFILER

    was_enabled = PROFILER.enabled
    PROFILER.enabled = True
    PROFILER.phase = spans.span
    try:
        yield
    finally:
        del PROFILER.phase
        PROFILER.enabled = was_enabled
