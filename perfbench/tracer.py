"""Span tracer for the benchmark's traced runs.

Spans are recorded by wrappers that the benchmark installs around public
functions of the package, never by code inside the package. A span knows
its name, start, end and the span that was open when it began; a layer's
self time is its span's duration minus the time its child spans cover.
Spans stay in memory until the run is aggregated.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


class Tracer:
    """Collects spans from the wrappers made by `wrap` while `enabled`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.enabled = False
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(Span(name, self.clock(), 0.0, parent))
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx].end = self.clock()

        return traced


@dataclass
class LayerStats:
    calls: int
    self_s: float
    ms_p50: float  # median duration of one call, children included


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so children of one parent never overlap.
    """
    child_total = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_total[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - child_total[i] for i, sp in enumerate(spans)]


def aggregate(spans: list[Span], names) -> dict[str, LayerStats]:
    """Per-name call count, total self time and median call duration.

    Every name in `names` gets an entry, with zeros when it was never called.
    """
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {n: [] for n in names}
    self_sum = dict.fromkeys(names, 0.0)
    for sp, st in zip(spans, selfs):
        durations.setdefault(sp.name, []).append(sp.end - sp.start)
        self_sum[sp.name] = self_sum.get(sp.name, 0.0) + st
    return {
        name: LayerStats(
            calls=len(d),
            self_s=self_sum[name],
            ms_p50=1e3 * statistics.median(d) if d else 0.0,
        )
        for name, d in durations.items()
    }


def install(tracer: Tracer, targets, package: str = "kstensor", modules=None) -> list[str]:
    """Wrap each target function in every module of `package` that binds it.

    A target is a dotted name relative to the package, such as
    "potential.solve_potential_fast" or "matrixflux.FluxTensor.from_matrix".
    A module that imported a function by name holds its own binding, so every
    attribute in the package's modules that is the same function object is
    replaced. Returns the targets that could not be found; each is logged.
    """
    if modules is None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
    by_name = {m.__name__: m for m in modules}
    missing = []
    for target in targets:
        mod_name, *path = target.split(".")
        owner = by_name.get(f"{package}.{mod_name}")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        attr = path[-1]
        if isinstance(owner, type) and attr in owner.__dict__:
            method = owner.__dict__[attr]  # one class object, shared by every module
            if isinstance(method, (classmethod, staticmethod)):
                setattr(owner, attr, type(method)(tracer.wrap(target, method.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(target, method))
            continue
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            print(f"trace: {package}.{target} not found; its metrics read 0", file=sys.stderr)
            missing.append(target)
            continue
        wrapped = tracer.wrap(target, original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
    return missing
