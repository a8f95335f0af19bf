"""In-memory spans around calls into the program's layers.

The benchmark never edits the program: it replaces public functions and
methods with timing wrappers (:meth:`Tracer.trace`).  Methods are
patched on their class, before any machine is built, so hot loops that
bind ``obj.method`` to a local still call the wrapper.

Each span records its name, start, end, parent span and run id.  Spans
are aggregated as they close (count, total time, self time) and the first
``keep`` of them are kept for a Chrome trace-event file, written once when
the run ends (:meth:`Tracer.write_chrome`), which Perfetto and
``chrome://tracing`` open.  A span's self time is its duration minus the
durations of the spans nested directly inside it, minus the wrapper's
own bookkeeping for each of them (:meth:`Tracer.calibrate`), which runs
outside the child's clock readings and so inside the parent's.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept for the trace file; later spans are aggregated only.
DEFAULT_KEEP = 50_000

Span = Tuple[int, int, str, float, float, str]  # id, parent id, name, start, end, run


class Tracer:
    """A span stack plus per-(name, tag) aggregates."""

    def __init__(self, keep: int = DEFAULT_KEEP, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.keep = keep
        #: Identifies the unit of work the current spans belong to (one
        #: simulated cell, one service run).
        self.run_id = ""
        #: Splits aggregates by a label such as the configuration name.
        self.tag = ""
        self.spans: List[Span] = []
        self.dropped = 0
        #: Wrapper bookkeeping charged to a parent per child span; set by
        #: :meth:`calibrate`, subtracted from the parent's self time.
        self.per_child_s = 0.0
        self._stack: List[list] = []  # [child seconds, span id, children]
        self._next_id = 1
        self._agg: Dict[Tuple[str, str], list] = {}  # -> [count, total, self]
        self._patches: List[tuple] = []
        self._origin = clock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self) -> list:
        frame = [0.0, self._next_id, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[0] += duration
            parent[2] += 1
            parent_id = parent[1]
        key = (name, self.tag)
        agg = self._agg.get(key)
        if agg is None:
            agg = self._agg[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[0] - frame[2] * self.per_child_s
        if len(self.spans) < self.keep:
            self.spans.append((frame[1], parent_id, name, start, end, self.run_id))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the body as one span named ``name``."""
        frame = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(name, frame, start, self.clock())

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        tracer = self
        clock = self.clock

        def traced(*args, **kwargs):
            frame = tracer._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, start, clock())

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def calibrate(self, calls: int = 20_000, trials: int = 5) -> float:
        """Measure the per-child bookkeeping into :attr:`per_child_s`.

        A parent span calls a wrapped no-op ``calls`` times; its self time
        less the same loop calling a bare no-op is the bookkeeping
        charged to it per child.  The least of ``trials`` is kept.
        """
        clock = self.clock

        def noop():
            return None

        costs = []
        for __ in range(trials):
            probe = Tracer(keep=0, clock=clock)
            traced = probe.wrap("child", noop)
            with probe.span("parent"):
                for __ in range(calls):
                    traced()
            start = clock()
            for __ in range(calls):
                noop()
            bare_s = clock() - start
            costs.append((probe.self_s("parent") - bare_s) / calls)
        self.per_child_s = max(0.0, min(costs))
        return self.per_child_s

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` (a module function or a plain method) to
        ``replacement`` until :meth:`unpatch_all`."""
        own = vars(owner).get(attr)
        if isinstance(own, (staticmethod, classmethod, property)):
            raise TypeError(f"cannot patch {owner!r}.{attr}: {type(own).__name__}")
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, own))

    def trace(self, owner: object, attr: str, name: str) -> None:
        """Record every call of ``owner.attr`` as a span named ``name``."""
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _sum(self, name: str, tag: Optional[str], field: int) -> float:
        return sum(
            agg[field]
            for (span_name, span_tag), agg in self._agg.items()
            if span_name == name and (tag is None or span_tag == tag)
        )

    def count(self, name: str, tag: Optional[str] = None) -> int:
        return int(self._sum(name, tag, 0))

    def total_s(self, name: str, tag: Optional[str] = None) -> float:
        return self._sum(name, tag, 1)

    def self_s(self, name: str, tag: Optional[str] = None) -> float:
        return self._sum(name, tag, 2)

    def write_chrome(self, path: str, metadata: Optional[dict] = None) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - self._origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent_id, "run": run_id},
            }
            for span_id, parent_id, name, start, end, run_id in self.spans
        ]
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}, spans_dropped=self.dropped),
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
