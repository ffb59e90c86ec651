"""Span bookkeeping: parents, repeats and self-time arithmetic."""

import pytest

from bench.spans import Spans, self_times


def _record(name, start, end, parent=None, **extra):
    return dict({"name": name, "start": start, "end": end, "parent": parent}, **extra)


def test_self_time_is_duration_minus_direct_children():
    records = [
        _record("job", 0.0, 10.0),
        _record("build", 0.0, 1.0, parent=0),
        _record("run", 1.0, 9.0, parent=0),
        _record("inner", 2.0, 5.0, parent=2),
        _record("collect", 9.0, 9.5, parent=0),
    ]
    own = self_times(records)
    assert own == pytest.approx([0.5, 1.0, 5.0, 3.0, 0.5])
    # Self times of a tree add up to the root's duration.
    assert sum(own) == pytest.approx(10.0)


def test_external_spans_are_not_subtracted_from_their_parent():
    records = [
        _record("run", 0.0, 2.0),
        _record("service.job_run", 1.0, 1.5, parent=0, external=True),
    ]
    assert self_times(records) == pytest.approx([2.0, 0.5])


def test_spans_nest_and_carry_workload_and_repeat():
    spans = Spans("bulk_share")
    spans.repeat = 3
    with spans.span("outer") as outer:
        with spans.span("inner"):
            pass
        spans.add("reported", 0.25)
    assert [record["parent"] for record in spans.records] == [None, 0, 0]
    assert all(record["workload"] == "bulk_share" and record["repeat"] == 3
               for record in spans.records)
    assert outer["end"] >= spans.records[1]["end"]
    assert spans.durations("reported") == pytest.approx([0.25])
    own = self_times(spans.records)
    assert own[0] == pytest.approx(spans.durations("outer")[0] - spans.durations("inner")[0])


def test_a_span_is_closed_when_its_block_raises():
    spans = Spans("w")
    with pytest.raises(ValueError):
        with spans.span("boom"):
            raise ValueError("x")
    assert spans.records[0]["end"] is not None
    with spans.span("next"):
        pass
    assert spans.records[1]["parent"] is None
