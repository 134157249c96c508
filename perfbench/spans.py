"""In-memory span recorder and the self-time arithmetic of the traced run.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
span that was open when this one started (``None`` at the top level) and
``op`` the id of the benchmark operation it belongs to.  Spans are kept in a
list and reduced once the run ends; nothing is written while measuring.

This module imports nothing from the program under test, so the arithmetic
can be unit-tested on synthetic spans (``test_spans.py``).
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(
        self,
        name: str,
        start: float,
        end: Optional[float] = None,
        parent: Optional[int] = None,
        op: Optional[int] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans and counters from the thread and process that made it.

    Calls arriving from another thread, or from a forked worker that inherited
    the patched functions, pass straight through unrecorded: spans inside
    workers are out of scope, pooled work shows up as the parent's wait.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._tid = threading.get_ident()

    def recording(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._tid

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), None, parent, self.op))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed while span {top} was open")

    def count(self, counts: Optional[Dict[str, float]]) -> None:
        if counts:
            for key, value in counts.items():
                self.counts[key] += value

    def wrap(
        self,
        name: str,
        fn: Callable,
        pre: Optional[Callable[..., Dict[str, float]]] = None,
        post: Optional[Callable[..., Dict[str, float]]] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``pre(*args, **kwargs)`` and ``post(result, *args, **kwargs)`` may
        return counters to add; ``pre`` sees the state before the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording():
                return fn(*args, **kwargs)
            if pre is not None:
                self.count(pre(*args, **kwargs))
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if post is not None:
                self.count(post(result, *args, **kwargs))
            return result

        return traced


def _covered(interval: Tuple[float, float], children: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - _covered((span.start, span.end), children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def summarise(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total duration and total self time."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, selfs):
        row = out.setdefault(span.name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += span.duration
        row["self"] += own
    return out
