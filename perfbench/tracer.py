"""In-memory span tracer that wraps the program's public calls from outside.

Nothing under ``src/`` knows about it: :class:`Tracer.patch` replaces a
function or method attribute with a wrapper that records a span around the
original call and restores the attribute on :meth:`Tracer.restore`.  Spans
are kept in a list while the run is measured and written out once at the
end; per-layer self times are derived from them afterwards.

A span is ``(name, start, end, parent, thread, tag)``: ``parent`` is the
index of the enclosing span on the same thread (``-1`` at top level) and
``tag`` is an optional request or batch identifier.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, int, Optional[str]]


class Tracer:
    """Records nested spans per thread; off until :meth:`enable` is called."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self.window: Tuple[float, float] = (0.0, 0.0)

    # ------------------------------------------------------------------ #
    # Recording.
    # ------------------------------------------------------------------ #
    def enable(self) -> None:
        self.spans = []
        self.enabled = True
        self.window = (time.perf_counter(), 0.0)

    def disable(self) -> None:
        self.enabled = False
        self.window = (self.window[0], time.perf_counter())

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, tag: Optional[str] = None):
        """Runs ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        # Reserve the slot first so children recorded during the call point
        # at a valid parent index; the lock keeps two threads off one slot.
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, threading.get_ident(), tag))
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, threading.get_ident(), tag)

    def record(self, name: str, start: float, end: float, tag: Optional[str] = None) -> None:
        """Adds a finished top-level span measured by the caller."""
        if self.enabled:
            with self._lock:
                self.spans.append((name, start, end, -1, threading.get_ident(), tag))

    # ------------------------------------------------------------------ #
    # Patching.
    # ------------------------------------------------------------------ #
    def patch(
        self,
        owner: object,
        attribute: str,
        namer: Callable[..., Optional[str]],
        on_result: Optional[Callable] = None,
        static: bool = False,
    ) -> None:
        """Wraps ``owner.attribute`` so each call runs inside a span.

        ``namer(*args, **kwargs)`` returns the span name, or ``None`` to
        call through untraced (used to trace only some instances of a
        class).  ``on_result(span_name, args, kwargs, result)`` may record
        counts at the same boundary.
        """
        own = attribute in vars(owner)
        original = vars(owner)[attribute] if own else getattr(owner, attribute)
        function = original.__func__ if isinstance(original, staticmethod) else original
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            name = namer(*args, **kwargs)
            if name is None:
                return function(*args, **kwargs)
            result = tracer.call(name, function, args, kwargs)
            if on_result is not None:
                on_result(name, args, kwargs, result)
            return result

        traced.__wrapped__ = function
        setattr(owner, attribute, staticmethod(traced) if static else traced)
        self._patches.append((owner, attribute, original if own else None))

    def restore(self) -> None:
        """Puts every patched attribute back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Analysis.
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0 and end > 0.0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _, _) in enumerate(spans):
            if end > 0.0:
                totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def inclusive(self, name: str) -> List[float]:
        """Durations (seconds) of every span called ``name``."""
        return [end - start for span_name, start, end, _, _, _ in self.spans
                if span_name == name and end > 0.0]

    def covered_seconds(self) -> float:
        """Wall time during which at least one top-level span was open."""
        intervals = sorted(
            (start, end) for _, start, end, parent, _, _ in self.spans
            if parent < 0 and end > 0.0
        )
        covered = 0.0
        current_start, current_end = None, None
        for start, end in intervals:
            if current_end is None or start > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_end is not None:
            covered += current_end - current_start
        return covered

    def write(self, path: str) -> None:
        """Writes every span as one JSON line (times relative to the window)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.window[0]
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, thread, tag) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_s": start - origin,
                    "end_s": end - origin, "parent": parent, "thread": thread,
                    "tag": tag,
                }) + "\n")
