"""Phase spans: the driver's record of every call it makes into ``repro``.

A span is ``{name, start, end, parent, workload, repeat}``; spans are kept in
memory and written to ``bench/out/trace.<workload>.json`` when the traced
pass ends.  A span's *self time* is its duration minus the part of it its
child spans cover, so the self times of a tree add up to the root's duration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Spans", "self_times"]


class Spans:
    """An in-memory span log for one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.records: List[Dict[str, Any]] = []
        self.repeat: Optional[int] = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """Time the enclosed block; the yielded record gains ``end`` on exit."""
        record: Dict[str, Any] = {
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload, "repeat": self.repeat,
        }
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, duration: float) -> None:
        """Record a span measured elsewhere (server-side job timestamps)."""
        parent = self._stack[-1] if self._stack else None
        now = time.perf_counter()
        self.records.append({"name": name, "start": now - duration, "end": now,
                             "parent": parent, "workload": self.workload,
                             "repeat": self.repeat, "external": True})

    def durations(self, name: str) -> List[float]:
        """Durations of every finished span called ``name``."""
        return [record["end"] - record["start"] for record in self.records
                if record["name"] == name and record["end"] is not None]


def self_times(records: List[Dict[str, Any]]) -> List[float]:
    """Self time of each record: duration minus its direct children's durations.

    ``external`` spans (clock readings taken in another process) describe
    where a parent's time went but were not timed inside it, so they are not
    subtracted.
    """
    own = [record["end"] - record["start"] for record in records]
    for record in records:
        parent = record["parent"]
        if parent is not None and not record.get("external"):
            own[parent] -= record["end"] - record["start"]
    return own
