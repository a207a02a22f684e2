"""In-memory spans recorded around calls into the program's public functions.

A :class:`SpanRecorder` replaces a function by a wrapper that records one span
per call: ``(span_id, name, start, end, parent_id, context)``.  The parent is
the innermost wrapped call still open on the same thread, and ``context`` is
the request or batch id the benchmark last set on that thread.  Spans stay in
memory until the run ends; :func:`summarize` then turns them into per-name
call counts, total time and self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, int, object]


class SpanRecorder:
    """Wraps functions and keeps one span per call while ``enabled``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ context
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_context(self, context: object) -> None:
        """Tag the spans this thread records from now on with ``context``."""
        self._local.context = context

    def context(self) -> object:
        return getattr(self._local, "context", None)

    # ------------------------------------------------------------------ wrapping
    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        ``after(args, result, start, end)`` runs once a call returns, before
        its span is stored, so it may set the context the span is tagged with.
        It returns the start the span is stored with, or ``None`` to store no
        span for the call.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            returned = False
            start = recorder.clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = recorder.clock()
                stack.pop()
                if returned and after is not None:
                    start = after(args, result, start, end)
                if start is not None:
                    recorder.spans.append((span_id, name, start, end, parent,
                                           recorder.context()))
            return result

        return traced

    def install(self, module: str, attribute: str, name: str, after: Optional[Callable] = None):
        """Wrap ``module.attribute`` (``Class.method`` allowed) where callers look it up."""
        owner = importlib.import_module(module)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        setattr(owner, leaf, self.wrap(name, original, after))
        self._installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)


# ---------------------------------------------------------------------- analysis
def covered_length(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, low), min(end, high)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered_length(children.get(span_id, ()), start, end)
        for span_id, _, start, end, _, _ in spans
    }


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_ms`` and ``self_ms``."""
    own = self_times(spans)
    summary: Dict[str, Dict[str, float]] = {}
    for span_id, name, start, end, _, _ in spans:
        entry = summary.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += (end - start) * 1e3
        entry["self_ms"] += own[span_id] * 1e3
    return summary


def write_spans(path, spans: Sequence[Span]) -> None:
    """Write spans as gzipped JSON: a name table plus one row per span (µs)."""
    names: Dict[str, int] = {}
    rows = []
    for span_id, name, start, end, parent, context in spans:
        index = names.setdefault(name, len(names))
        context = context if isinstance(context, (int, str)) or context is None else str(context)
        rows.append([span_id, index, round(start * 1e6, 1), round(end * 1e6, 1), parent, context])
    with gzip.open(path, "wt") as handle:
        json.dump({"names": list(names), "columns": ["id", "name", "start_us", "end_us",
                                                    "parent", "context"], "spans": rows}, handle)
