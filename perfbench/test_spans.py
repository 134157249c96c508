"""Self-time arithmetic of the span recorder.

Run with ``python -m pytest perfbench``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder, Span, self_times, summarise  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("op", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_children_are_counted_once():
    spans = [
        Span("op", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_children_are_clipped_to_the_parent():
    spans = [Span("op", 2.0, 6.0, None), Span("late", 5.0, 9.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_recorder_nests_and_summarises():
    ticks = iter(float(i) for i in range(100))
    rec = Recorder(clock=lambda: next(ticks))

    def leaf():
        return 7

    traced_leaf = rec.wrap("leaf", leaf, post=lambda result: {"leaf.rows": result})

    def middle():
        traced_leaf()
        return traced_leaf()

    traced_middle = rec.wrap("middle", middle)
    rec.op = 0
    outer = rec.open("op")
    assert traced_middle() == 7
    rec.close(outer)
    # op [0, 7], middle [1, 6], leaf [2, 3] and [4, 5].
    summary = summarise(rec.spans)
    assert summary["op"] == {"calls": 1, "total": 7.0, "self": 2.0}
    assert summary["middle"] == {"calls": 1, "total": 5.0, "self": 3.0}
    assert summary["leaf"] == {"calls": 2, "total": 2.0, "self": 2.0}
    assert rec.counts["leaf.rows"] == 14
    assert all(span.op == 0 for span in rec.spans)


def test_recorder_closes_span_when_the_call_raises():
    rec = Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert rec.spans[0].end is not None
    assert rec._stack == []
