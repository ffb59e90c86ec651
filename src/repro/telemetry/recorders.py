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
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "FixedBinAccumulator",
    "RingRecorder",
    "ReservoirRecorder",
    "SeriesRecorder",
    "JsonlSink",
]


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

    __slots__ = ("capacity", "dropped", "_buffer", "_next")

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        #: Records overwritten because the ring was full.
        self.dropped = 0
        self._buffer: List[Any] = []
        self._next = 0

    def append(self, record: Any) -> None:
        buffer = self._buffer
        if len(buffer) < self.capacity:
            buffer.append(record)
        else:
            buffer[self._next] = record
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._buffer)

    def items(self) -> List[Any]:
        """Records in arrival order (oldest kept first)."""
        buffer = self._buffer
        if len(buffer) < self.capacity:
            return list(buffer)
        return buffer[self._next:] + buffer[: self._next]


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
    """

    def __init__(self, path: str):
        self.path = path
        self.lines_written = 0
        self._handle = open(path, "w", encoding="utf-8")

    def __call__(self, event: str, time: float, fields: Dict[str, Any]) -> None:
        payload = {"t": time, "event": event}
        payload.update(fields)
        self._write(payload)

    def write_sample(self, time: float, series: str, value: float) -> None:
        self._write({"t": time, "event": "sample", "series": series, "value": value})

    def _write(self, payload: Dict[str, Any]) -> None:
        self._handle.write(
            json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
        )
        self.lines_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *_exc) -> Optional[bool]:
        self.close()
        return None
