"""Spans around the program's own calls, installed from outside.

Nothing here changes a file of the program, and the benchmark runs the
program's own entry points: ``run_app_study(..., use_cache=False)`` for
a study, ``ClusterService(..., prefetch_jobs=1).run`` for a cluster run.
In a traced run, :func:`instrument` replaces, for the length of the
run, the entry points in :data:`WRAPPED` where the program looks them
up by wrappers that open a span and call the original.  Calls the
benchmark makes itself (``ClusterService.run``, ``StudyCache.put`` /
``get``, ``save``, ``load``, ``replay``, ``verify_replay``,
``generate_trace``) are spanned at the call site.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

import repro.core.experiment as experiment
from repro.apps.base import BenchmarkApp
from repro.cluster import CostModel
from repro.cluster.record import ClusterRunResult
from repro.sim.system import SystemSimulator

#: (owner, attribute, span name) of each entry point a traced run wraps.
#: Module attributes are the names ``run_app_study`` looks up in its own
#: module; class attributes cover every caller.
WRAPPED = (
    (BenchmarkApp, "run", "apps.run"),
    (experiment, "design_vfi", "core.design_flow.design_vfi"),
    (experiment, "build_nvfi_mesh", "core.platforms.build_mesh"),
    (experiment, "build_vfi_mesh", "core.platforms.build_mesh"),
    (experiment, "build_vfi_winoc", "core.platforms.build_winoc"),
    (SystemSimulator, "__init__", "sim.construct"),
    (SystemSimulator, "run", "sim.run"),
    (CostModel, "prefetch", "cluster.costmodel.prefetch"),
    (ClusterRunResult, "to_dict", "cluster.record.to_dict"),
    (ClusterRunResult, "replay_digest", "cluster.record.digest"),
)


class Spans:
    """In-memory span recorder; a no-op when *enabled* is false.

    A span is ``[name, start, end, parent index, unit id]``.  Spans of
    one study or one cluster run share the unit id set by :meth:`unit`;
    the unit's root spans are its timed phases (serve, record, replay)
    and their children are the layer calls.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._unit: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), 0.0, parent, self._unit]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* in a span named *name*, opened only inside another span,
        so calls the benchmark makes to check outputs stay untimed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def unit(self, unit_id: int) -> Iterator[None]:
        """Spans opened inside carry *unit_id* (one study or cluster run)."""
        previous, self._unit = self._unit, unit_id
        try:
            yield
        finally:
            self._unit = previous

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_s[index]
        return totals

    def coverage(self) -> float:
        """Lowest share, over units, of the unit's wall time (its root
        spans) that its layer spans (their children) cover."""
        wall: Dict[int, float] = {}
        covered: Dict[int, float] = {}
        for name, start, end, parent, unit in self.spans:
            if unit is None:
                continue
            if parent is None:
                wall[unit] = wall.get(unit, 0.0) + (end - start)
            elif self.spans[parent][3] is None:
                covered[unit] = covered.get(unit, 0.0) + (end - start)
        shares = [covered.get(unit, 0.0) / s for unit, s in wall.items() if s > 0]
        return min(shares) if shares else 0.0

    @staticmethod
    def span_cost_s() -> float:
        """Host seconds one wrapped call adds (median of five batches)."""
        costs = []
        samples = 2000
        for _ in range(5):
            probe = Spans(True)
            noop = probe.wrap("probe", lambda: None)
            with probe.span("outer"):
                start = time.perf_counter()
                for _ in range(samples):
                    noop()
                costs.append((time.perf_counter() - start) / samples)
        costs.sort()
        return costs[2]

    def to_dict(self) -> Dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent", "unit"],
            "spans": self.spans,
        }


@contextmanager
def instrument(spans: Spans) -> Iterator[None]:
    """Wrap the :data:`WRAPPED` entry points in spans while inside; a
    no-op when *spans* is disabled, so untraced runs time the program
    unchanged."""
    if not spans.enabled:
        yield
        return
    originals = []
    try:
        for owner, attribute, name in WRAPPED:
            original = vars(owner)[attribute]
            if isinstance(original, property):
                wrapped = property(spans.wrap(name, original.fget))
            else:
                wrapped = spans.wrap(name, original)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
