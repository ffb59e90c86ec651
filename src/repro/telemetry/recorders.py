"""Bounded recorders: where probe events and periodic samples end up.

Every recorder in this module holds **bounded** memory no matter how many
observations are pushed through it — the property that lets a probes-on
simulation process millions of packet events without unbounded-list
growth.
Four shapes cover the telemetry layer's needs:

* :class:`FixedBinAccumulator` — sums values into fixed-width time bins,
  capped at ``max_bins`` distinct bins (rate/throughput series);
* :class:`RingRecorder` — keeps the **last** ``capacity`` records (event
  logs where the recent tail matters most);
* :class:`ReservoirRecorder` — keeps a seeded uniform random sample of
  ``capacity`` records over the whole stream (Vitter's Algorithm R, so the
  kept set is deterministic per seed);
* :class:`SeriesRecorder` — keeps the **first** ``max_samples`` points of a
  periodic time series (sampling cadence is known, so the cap is a horizon);
* :class:`JsonlSink` — streams every record to a JSON-lines file, holding
  O(1) memory; the canonical rendering (sorted keys, compact separators)
  makes the file byte-identical for identical simulations.

Every bounded recorder counts what it could not keep (``dropped`` /
``clipped``) instead of silently losing it.
"""

from __future__ import annotations

import json
import random
from collections import deque
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = [
    "FixedBinAccumulator",
    "RingRecorder",
    "ReservoirRecorder",
    "SeriesRecorder",
    "JsonlSink",
]

#: The canonical rendering of a trace value: what :class:`JsonlSink` falls
#: back on for anything its line templates do not encode themselves.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
_float_repr = float.__repr__
_int_repr = int.__repr__


class FixedBinAccumulator:
    """Sum values into fixed-width time bins with a cap on distinct bins.

    Bins are sparse (a dict keyed by bin index), so memory is bounded by the
    number of *distinct* bins touched, never by the number of observations.
    Once ``max_bins`` distinct bins exist, values falling into new bins are
    folded into the nearest existing edge bin and counted in
    :attr:`clipped` — the series stays well-formed, the overflow is visible.
    """

    __slots__ = ("bin_width", "max_bins", "clipped", "total", "count", "_bins",
                 "_lo", "_hi")

    def __init__(self, bin_width: float = 0.5, max_bins: int = 8192):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if max_bins < 1:
            raise ValueError("max_bins must be >= 1")
        self.bin_width = float(bin_width)
        self.max_bins = int(max_bins)
        #: Observations that landed outside the bounded bin range.
        self.clipped = 0
        #: Sum of every value ever added (clipped ones included).
        self.total = 0.0
        #: Number of observations.
        self.count = 0
        self._bins: Dict[int, float] = {}
        # Cached lowest/highest allocated bin index, so the clip path stays
        # O(1) instead of scanning the whole dict once the cap is reached.
        self._lo: Optional[int] = None
        self._hi: Optional[int] = None

    def add(self, time: float, value: float) -> None:
        """Account ``value`` observed at simulated ``time``."""
        bins = self._bins
        index = int(time // self.bin_width)
        self.total += value
        self.count += 1
        if index not in bins:
            if len(bins) >= self.max_bins:
                # Fold into the nearest existing edge so the series shape
                # is preserved; the clipped counter keeps it honest.
                self.clipped += 1
                index = self._hi if index > self._hi else self._lo
            else:
                if self._lo is None:
                    self._lo = self._hi = index
                elif index < self._lo:
                    self._lo = index
                elif index > self._hi:
                    self._hi = index
        bins[index] = bins.get(index, 0.0) + value

    @property
    def bins_used(self) -> int:
        """Distinct bins currently allocated (``<= max_bins`` always)."""
        return len(self._bins)

    def bin_series(self) -> List[Tuple[float, float]]:
        """``(bin_start_time, value_sum)`` points, zero-filled between the
        first and last touched bin so plots show stalls rather than
        interpolating over them."""
        bins = self._bins
        if not bins:
            return []
        width = self.bin_width
        get = bins.get
        return [(index * width, get(index, 0.0)) for index in range(self._lo, self._hi + 1)]


class RingRecorder:
    """Keep the last ``capacity`` records pushed into it."""

    __slots__ = ("capacity", "seen", "_buffer")

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        #: Total records offered (kept or since overwritten).
        self.seen = 0
        self._buffer: Deque[Any] = deque(maxlen=self.capacity)

    def append(self, record: Any) -> None:
        self.seen += 1
        self._buffer.append(record)

    def record_event(self, event: str, time: float, fields: Dict[str, Any]) -> None:
        """:meth:`append` in the shape of a probe sink: keeps ``(time, event, fields)``."""
        self.seen += 1
        self._buffer.append((time, event, fields))

    @property
    def dropped(self) -> int:
        """Records overwritten because the ring was full."""
        return max(0, self.seen - self.capacity)

    def __len__(self) -> int:
        return len(self._buffer)

    def items(self) -> List[Any]:
        """Records in arrival order (oldest kept first)."""
        return list(self._buffer)


class ReservoirRecorder:
    """Seeded uniform sample of ``capacity`` records over the whole stream.

    Vitter's Algorithm R with a private :class:`random.Random`, so two runs
    that push the same record stream through a reservoir built with the same
    seed keep exactly the same records (the determinism contract every
    telemetry artifact follows).
    """

    __slots__ = ("capacity", "seen", "_rng", "_kept")

    def __init__(self, capacity: int = 1024, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        #: Total records offered (kept or not).
        self.seen = 0
        self._rng = random.Random(seed)
        self._kept: List[Tuple[int, Any]] = []

    def append(self, record: Any) -> None:
        index = self.seen
        self.seen = index + 1
        kept = self._kept
        if len(kept) < self.capacity:
            kept.append((index, record))
            return
        slot = self._rng.randint(0, index)
        if slot < self.capacity:
            kept[slot] = (index, record)

    def record_event(self, event: str, time: float, fields: Dict[str, Any]) -> None:
        """:meth:`append` in the shape of a probe sink: offers ``(time, event, fields)``."""
        self.append((time, event, fields))

    @property
    def dropped(self) -> int:
        """Records not retained in the reservoir."""
        return self.seen - len(self._kept)

    def __len__(self) -> int:
        return len(self._kept)

    def items(self) -> List[Any]:
        """Kept records in original stream order."""
        return [record for _index, record in sorted(self._kept, key=lambda kv: kv[0])]


class SeriesRecorder:
    """A ``(time, value)`` series capped at ``max_samples`` points.

    Periodic samplers have a known cadence, so the cap acts as a horizon:
    the first ``max_samples`` points are kept and later ones only counted.
    """

    __slots__ = ("max_samples", "dropped", "_points")

    def __init__(self, max_samples: int = 4096):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.max_samples = int(max_samples)
        self.dropped = 0
        self._points: List[Tuple[float, float]] = []

    def append(self, time: float, value: float) -> None:
        points = self._points
        if len(points) < self.max_samples:
            points.append((time, value))
        else:
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._points)

    def points(self) -> List[Tuple[float, float]]:
        """The recorded (time, value) points in sample order."""
        return list(self._points)


class JsonlSink:
    """Stream records to a JSON-lines file with canonical formatting.

    Usable directly as a probe sink (``sink(event, time, fields)``) and as a
    sample sink (:meth:`write_sample`).  Lines are canonical JSON — sorted
    keys, compact separators, ``allow_nan=False`` — so identical simulations
    produce byte-identical trace files (the CI determinism check ``cmp``\\ s
    two of them).  Memory is O(1); the bound is the file system's problem.

    A line is rendered from a *template* compiled once per record shape
    ``(event, field names)``: the keys sorted and quoted, the event's value
    rendered, one ``%s`` per remaining value.  Per record only the values
    are encoded — every line equals, byte for byte, what
    ``json.dumps({"t": time, "event": event, **fields}, sort_keys=True,
    separators=(",", ":"), allow_nan=False)`` gives.  ``t`` and ``event``
    are the record's own keys: a field of either name is a ``ValueError``.
    Lines go through the file object's buffer as they are produced (nothing
    is held back here), which is what lets the service tail a live trace.
    """

    def __init__(self, path: str):
        self.path = path
        self.lines_written = 0
        self._handle = open(path, "w", encoding="utf-8")
        self._write = self._handle.write
        #: ``(event, *field names)`` -> ``(line template, value order)``; one
        #: entry per shape ever written, a handful for the in-tree probes.
        self._templates: Dict[Tuple[str, ...], Tuple[str, Tuple[Optional[str], ...]]] = {}

    def __call__(self, event: str, time: float, fields: Dict[str, Any]) -> None:
        shape = self._templates.get((event, *fields))
        if shape is None:
            shape = self._compile(event, tuple(fields))
        template, order = shape
        encoded = []
        append = encoded.append
        for name in order:
            value = time if name is None else fields[name]
            kind = type(value)
            if kind is float and isfinite(value):
                append(_float_repr(value))
            elif kind is int:
                append(_int_repr(value))
            elif kind is str:
                append(_quote(value))
            elif value is True:
                append("true")
            elif value is False:
                append("false")
            elif value is None:
                append("null")
            else:
                # Containers, subclasses of the types above, and nan/inf
                # (a ValueError, raised before anything is written).
                append(_canonical(value))
        self._write(template % tuple(encoded))
        self.lines_written += 1

    def write_sample(self, time: float, series: str, value: float) -> None:
        self("sample", time, {"series": series, "value": value})

    def _compile(self, event: str, names: Tuple[str, ...]):
        """Build and cache the line template of one record shape.

        The template holds one ``%s`` per value, in sorted-key order;
        ``order`` names the field each one takes (``None``: the time).
        """
        for name in names:
            if type(name) is not str:
                raise TypeError(f"telemetry event {event!r}: field name {name!r} is not a str")
            if name in ("t", "event"):
                raise ValueError(
                    f"telemetry event {event!r}: field {name!r} would overwrite "
                    "the record's own key")
        members, order = [], []
        for key in sorted([*names, "t", "event"]):
            if key == "event":
                members.append(f'"event":{_quote(event)}'.replace("%", "%%"))
            else:
                members.append(_quote(key).replace("%", "%%") + ":%s")
                order.append(None if key == "t" else key)
        shape = ("{" + ",".join(members) + "}\n", tuple(order))
        self._templates[(event, *names)] = shape
        return shape

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = self._write = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *_exc) -> Optional[bool]:
        self.close()
        return None
