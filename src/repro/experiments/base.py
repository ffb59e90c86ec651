"""Common result container and table formatting for the experiment harness."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["ExperimentResult", "format_table"]


def format_table(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render rows as a plain-text table with aligned columns."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    lines = [header, separator]
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Tabular and time-series output of one reproduced table or figure."""

    name: str
    title: str
    columns: List[str]
    rows: List[List] = field(default_factory=list)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Run metadata (seeds, jobs, git rev, wall clock, trial count).  It is
    #: deliberately *excluded* from :meth:`payload`/:meth:`to_json` so the
    #: main JSON artifact stays byte-identical across job counts and re-runs;
    #: the artifacts module writes it to a ``.meta.json`` sidecar instead.
    provenance: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, *values) -> None:
        """Append one row of tabular output."""
        self.rows.append(list(values))

    def add_series(self, label: str, points: List[Tuple[float, float]]) -> None:
        """Attach a named (time, value) series (used by the figure-style results)."""
        self.series[label] = list(points)

    def column(self, name: str) -> List:
        """Extract one column of the tabular output by header name."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def payload(self) -> Dict[str, Any]:
        """The deterministic, JSON-able content of the result (no provenance)."""
        return {
            "name": self.name,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "series": {label: [list(point) for point in points] for label, points in self.series.items()},
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        """Canonical JSON rendering: sorted keys, 2-space indent, one trailing newline.

        Two results with equal payloads serialize to byte-identical strings,
        which is the property the determinism tests and the artifact pins
        rely on.
        """
        return json.dumps(self.payload(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output (series points become tuples)."""
        payload = json.loads(text)
        result = cls(
            name=payload["name"],
            title=payload["title"],
            columns=list(payload["columns"]),
            rows=[list(row) for row in payload["rows"]],
            notes=list(payload["notes"]),
        )
        for label, points in payload["series"].items():
            result.series[label] = [tuple(point) for point in points]
        return result

    def to_text(self) -> str:
        """Human-readable rendering used by the CLI runner."""
        parts = [f"== {self.name}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.columns, self.rows))
        for label, points in self.series.items():
            parts.append(f"-- series: {label} ({len(points)} points) --")
            preview = ", ".join(f"({t:.1f}s, {v:.0f})" for t, v in points[:8])
            parts.append(f"   {preview}{' ...' if len(points) > 8 else ''}")
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)
