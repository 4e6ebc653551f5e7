"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around each call it
makes into a layer of the package.  Each span has a name, a layer, a
start, an end and the span that caused it.  Nothing is written until
:meth:`Tracer.write_chrome` exports every span at once as Chrome
trace-event JSON, which Perfetto and ``chrome://tracing`` open.

Span names follow the layer vocabulary the package's own tracing is meant
to adopt (``compile``, ``static.build``, ``pass.<name>``, ``sim.good``,
``sim.detect.walk|batch``, ``sched.chunks``, ``store.read|write``,
``atpg.fault``, ``service.queue|run``), so captures taken now stay
comparable with spans emitted from inside the program later.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

#: The layers of the package, one per module under ``src/repro``.
LAYERS = ("soc", "netlist", "faults", "pipeline", "core", "store", "sbst",
          "simulation", "runtime", "analysis", "atpg", "service")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    thread: int = 0
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; a disabled tracer records nothing.

    The current span is tracked per thread, so spans opened by client
    threads nest under their own thread's spans only.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **args) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(Span(span_id, name, layer, start, end, parent,
                          threading.get_ident(), dict(args)))

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, layer: str, start: float, end: float, *,
               parent: Optional[int] = None, thread: int = 0,
               **args) -> int:
        """Add a span measured elsewhere (a program timestamp or runtime)."""
        if not self.enabled:
            return 0
        span_id = next(self._ids)
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        self.add(Span(span_id, name, layer, start, end, parent,
                      thread or threading.get_ident(), dict(args)))
        return span_id

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: each span's duration minus the part of its
        interval its child spans cover, summed by layer."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            if span.layer not in totals:
                continue  # the benchmark's own bookkeeping spans
            covered = _covered(span, children.get(span.id, ()))
            totals[span.layer] += max(0.0, span.duration - covered)
        return totals

    def chrome_events(self) -> List[Dict[str, object]]:
        origin = min((s.start for s in self.spans), default=0.0)
        tids: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            tid = tids.setdefault(span.thread, len(tids) + 1)
            args = {"id": span.id, "parent": span.parent}
            args.update(span.args)
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1, "tid": tid, "args": args,
            })
        return events

    def write_chrome(self, path: Path) -> None:
        payload = {"traceEvents": self.chrome_events(),
                   "displayTimeUnit": "ms"}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _covered(span: Span, children) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered
