"""Spans around calls into the program's layers, for the traced run.

``Tracer.install`` replaces each listed public function of ``repro`` with a
wrapper, in every ``repro`` module that holds a reference to it, so calls
made between the program's own modules are seen too.  A span records wall
time, its parent span and the op it belongs to.  It tags its Spark jobs with
a job group of its own; the number of jobs of every span is read from
``statusTracker().getJobIdsForGroup`` once the run is over, after the
listener bus has delivered every job event.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: layer name -> the repro functions whose calls make up its spans
WRAPPED: dict[str, list[tuple[str, str]]] = {
    "core.discovery": [("repro.core.discovery", "discover")],
    "core.discovery.select": [("repro.core.discovery", "eligible_partition_attrs")],
    "core.gram.scan": [
        ("repro.core.gram", "augmented_gram"),
        ("repro.core.gram", "grouped_augmented_gram"),
    ],
    "core.projections.eigh": [("repro.core.projections", "derive_projections")],
    "explain.extune": [("repro.explain.extune", "responsibilities")],
}


@dataclass
class Span:
    name: str
    op: int | None  # index of the timed op, or None outside the timed loop
    parent: int | None
    group: str
    start: float = 0.0
    end: float = 0.0
    jobs: int = 0  # jobs tagged with this span's own group (not its children's)
    children: list[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory for one run; ``enabled=False`` records nothing."""

    def __init__(self, sc, enabled: bool):
        self.sc = sc
        self.enabled = enabled
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self.op, parent, f"perfbench-{next(self._ids)}")
        idx = len(self.spans)
        self.spans.append(s)
        if parent is not None:
            self.spans[parent].children.append(idx)
        # the program sets no job groups, so the enclosing span's is the outer one
        self.sc.setJobGroup(s.group, name)
        self._stack.append(idx)
        s.start = time.perf_counter()
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
            else:
                self.sc.setJobGroup(self.spans[parent].group, self.spans[parent].name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every function of ``WRAPPED`` where ``repro`` refers to it."""
        if not self.enabled:
            return
        for name, targets in WRAPPED.items():
            for module, attr in targets:
                original = getattr(importlib.import_module(module), attr)
                traced = self.wrap(name, original)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro") and getattr(
                        mod, attr, None
                    ) is original:
                        self._originals.append((mod, attr, original))
                        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def resolve_jobs(self) -> None:
        """Fill in each span's job count once every job event is processed."""
        if not self.enabled:
            return
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        for s in self.spans:
            s.jobs = len(tracker.getJobIdsForGroup(s.group))

    # --- per-op aggregation ---------------------------------------------------

    def inclusive_jobs(self, idx: int) -> int:
        s = self.spans[idx]
        return s.jobs + sum(self.inclusive_jobs(c) for c in s.children)

    def self_seconds(self, idx: int) -> float:
        s = self.spans[idx]
        return s.seconds - sum(self.spans[c].seconds for c in s.children)

    def per_op(self, n_ops: int, names: set[str], value: Callable[[int], float]) -> list[float]:
        """For each timed op, the sum of ``value(span)`` over its spans named
        in ``names`` (outermost only, so a recursive layer counts once)."""
        totals = [0.0] * n_ops
        for idx, s in enumerate(self.spans):
            if s.op is None or s.name not in names:
                continue
            if s.parent is not None and self.spans[s.parent].name in names:
                continue
            totals[s.op] += value(idx)
        return totals
