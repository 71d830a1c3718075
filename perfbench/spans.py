"""In-memory spans around calls into the program's public functions.

A :class:`Tracer` records ``(name, start, end, parent, run id)`` spans
in a list; nothing is written until the benchmark ends.  Spans come
from two places, both in the benchmark's own code:

* ``with tracer.span(name):`` around a call the benchmark makes;
* :meth:`Tracer.wrap`, which replaces a module attribute with a
  function that opens a span and calls the original, so calls the
  program makes internally through that name are recorded too.
  :meth:`Tracer.restore` puts the originals back.

A disabled tracer hands out one shared ``nullcontext`` and wraps
nothing, so the untraced path runs the same benchmark code at no cost.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Optional

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool, run_id: str = "run"):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        index = len(self.spans)
        parent: Optional[int] = self._stack[-1] if self._stack else None
        record = {"name": name, "parent": parent, "run": self.run_id,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        """Record a span around every call made through ``module.attr``."""
        if not self.enabled:
            return
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self._span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Seconds per span name, each span minus the time its children cover.

    Spans of one run nest strictly (one thread), so the children's
    covered time is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = {}
    for span, children in zip(spans, child_time):
        own = span["end"] - span["start"] - children
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def chrome_trace(runs: Dict[str, List[dict]]) -> dict:
    """Chrome trace-event JSON (viewable in Perfetto or chrome://tracing):
    one process per run, complete ("X") events in microseconds."""
    events = []
    for pid, (run_id, spans) in enumerate(sorted(runs.items()), 1):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
                       "args": {"name": run_id}})
        origin = min((span["start"] for span in spans), default=0.0)
        for index, span in enumerate(spans):
            events.append({
                "name": span["name"], "ph": "X", "pid": pid, "tid": 1,
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"index": index, "parent": span["parent"],
                         "run": run_id},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
