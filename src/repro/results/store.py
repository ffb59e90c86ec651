"""sqlite-backed result store: ingest every measurement artifact the repo emits.

One :class:`ResultStore` holds four artifact families in one indexed schema:

* **bench** — ``BENCH_*.json`` reports (one ``bench_rows`` row per
  benchmark, keyed by label + name), the checked-in ``BENCH_PR1..8.json``
  history among them;
* **experiment** — experiment JSON artifacts plus their ``.meta.json``
  provenance sidecars (seeds, jobs, git revision, cache counters);
* **scenario** — per-seed ``ScenarioResult`` JSON files, with every numeric
  app/link/host/workload metric flattened into a queryable ``metrics`` table
  keyed by ``spec_digest``;
* **trace** — JSON-lines telemetry files produced by
  :class:`repro.telemetry.recorders.JsonlSink`.

Ingestion is idempotent: every run row carries a sha256 content digest and
re-ingesting identical content is counted as a dedup, not a duplicate row.
Corrupt or truncated files are tolerated — they increment
:attr:`IngestReport.skipped` with a recorded reason instead of aborting a
batch (fleet ingestion must survive one torn artifact).

An experiment, scenario or trace ingested without an explicit ``label`` is
labelled ``$REPRO_RESULT_LABEL``, or ``"local"`` when that is unset.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["ResultStore", "IngestReport", "SchemaVersionError", "classify_payload"]

#: Schema version recorded in ``store_meta``; bump on incompatible changes.
SCHEMA_VERSION = 1

_SCHEMA = """
PRAGMA foreign_keys = ON;

CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS runs (
    id             INTEGER PRIMARY KEY,
    kind           TEXT NOT NULL CHECK (kind IN ('bench', 'experiment', 'scenario', 'trace')),
    label          TEXT NOT NULL,
    name           TEXT NOT NULL,
    git_revision   TEXT,
    python         TEXT,
    implementation TEXT,
    platform       TEXT,
    quick          INTEGER,
    timestamp      TEXT,
    source         TEXT,
    digest         TEXT NOT NULL,
    meta           TEXT NOT NULL DEFAULT '{}',
    ingested_at    TEXT NOT NULL,
    UNIQUE (kind, label, name, digest)
);
CREATE INDEX IF NOT EXISTS idx_runs_kind_label ON runs (kind, label);

CREATE TABLE IF NOT EXISTS bench_rows (
    run_id               INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    label                TEXT NOT NULL,
    name                 TEXT NOT NULL,
    ops                  INTEGER,
    wall_s               REAL,
    ops_per_sec          REAL,
    baseline_wall_s      REAL,
    baseline_ops_per_sec REAL,
    speedup              REAL,
    notes                TEXT NOT NULL DEFAULT '',
    extra                TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (run_id, name)
);
CREATE INDEX IF NOT EXISTS idx_bench_rows_name ON bench_rows (name, label);

CREATE TABLE IF NOT EXISTS experiment_results (
    run_id            INTEGER PRIMARY KEY REFERENCES runs (id) ON DELETE CASCADE,
    name              TEXT NOT NULL,
    title             TEXT NOT NULL,
    payload_digest    TEXT NOT NULL,
    columns           TEXT NOT NULL,
    rows              TEXT NOT NULL,
    series            TEXT NOT NULL,
    notes             TEXT NOT NULL,
    seeds             TEXT,
    jobs              INTEGER,
    trials            INTEGER,
    trials_from_cache INTEGER,
    wall_clock_s      REAL
);
CREATE INDEX IF NOT EXISTS idx_experiment_results_name ON experiment_results (name);

CREATE TABLE IF NOT EXISTS scenario_results (
    run_id      INTEGER PRIMARY KEY REFERENCES runs (id) ON DELETE CASCADE,
    name        TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    spec_digest TEXT NOT NULL,
    duration_s  REAL NOT NULL,
    payload     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_scenario_results_key ON scenario_results (name, seed, spec_digest);

CREATE TABLE IF NOT EXISTS metrics (
    run_id      INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    label       TEXT NOT NULL,
    scenario    TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    spec_digest TEXT NOT NULL,
    scope       TEXT NOT NULL,
    entity      TEXT NOT NULL,
    metric      TEXT NOT NULL,
    value       REAL NOT NULL,
    PRIMARY KEY (run_id, scope, entity, metric)
);
CREATE INDEX IF NOT EXISTS idx_metrics_lookup ON metrics (scenario, scope, metric, label);

CREATE TABLE IF NOT EXISTS trace_events (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    line   INTEGER NOT NULL,
    t      REAL,
    event  TEXT NOT NULL,
    series TEXT,
    value  REAL,
    fields TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (run_id, line)
);
CREATE INDEX IF NOT EXISTS idx_trace_events_event ON trace_events (event, series);
"""


@dataclass
class IngestReport:
    """Counters for one ingest batch; addable so batches fold together."""

    ingested: int = 0
    deduped: int = 0
    skipped: int = 0
    rows: int = 0
    errors: List[str] = field(default_factory=list)

    def merge(self, other: "IngestReport") -> "IngestReport":
        self.ingested += other.ingested
        self.deduped += other.deduped
        self.skipped += other.skipped
        self.rows += other.rows
        self.errors.extend(other.errors)
        return self

    def summary(self) -> str:
        text = (
            f"ingested {self.ingested} run(s) ({self.rows} row(s)), "
            f"{self.deduped} duplicate(s), {self.skipped} skipped"
        )
        if self.errors:
            text += ":\n" + "\n".join(f"  - {error}" for error in self.errors)
        return text


def _sha256_of(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _default_label(label: Optional[str]) -> str:
    return label or os.environ.get("REPRO_RESULT_LABEL") or "local"


def classify_payload(payload: Any) -> Optional[str]:
    """Which artifact family a deserialized JSON document belongs to.

    Returns ``'bench'``, ``'scenario'``, ``'experiment'``, ``'experiment-meta'``
    (a provenance sidecar, ingested with its payload rather than alone) or
    ``None`` for shapes the store does not understand.
    """
    if not isinstance(payload, dict):
        return None
    if isinstance(payload.get("benchmarks"), dict) and isinstance(payload.get("meta"), dict):
        return "bench"
    if {"name", "seed", "spec_digest", "duration_s", "apps"}.issubset(payload):
        return "scenario"
    if {"name", "title", "columns", "rows"}.issubset(payload):
        return "experiment"
    if {"experiment", "trials"}.issubset(payload):
        return "experiment-meta"
    return None


class SchemaVersionError(RuntimeError):
    """A store was stamped with a schema version this code does not write."""


class ResultStore:
    """One sqlite database aggregating benches, experiments, scenarios, traces.

    ``path`` may be a filesystem path (created on first use) or ``":memory:"``
    for an ephemeral store (the ``query`` CLI default).  Usable as
    a context manager; :meth:`close` is idempotent.  A store stamped with
    another ``schema_version`` is refused with :class:`SchemaVersionError`.
    """

    def __init__(self, path: str = "results.sqlite"):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path)) if path != ":memory:" else None
        if directory:
            os.makedirs(directory, exist_ok=True)
        # The store does no locking of its own either way; a caller that
        # shares one across threads (the service's job manager) serialises.
        self._db = sqlite3.connect(path, check_same_thread=False)
        self._db.row_factory = sqlite3.Row
        self._in_transaction = False
        self._db.executescript(_SCHEMA)
        self._db.execute(
            "INSERT OR IGNORE INTO store_meta (key, value) VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
        self._db.commit()
        (found,) = self._db.execute(
            "SELECT value FROM store_meta WHERE key = 'schema_version'").fetchone()
        if found != str(SCHEMA_VERSION):
            self.close()
            raise SchemaVersionError(
                f"{path}: result store schema version {found}, expected {SCHEMA_VERSION}")

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._db is not None:
            self._db.close()
            self._db = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _commit(self) -> None:
        if not self._in_transaction:
            self._db.commit()

    @contextlib.contextmanager
    def transaction(self) -> Iterator["ResultStore"]:
        """Make the ingests inside one commit (one fsync), or none of them."""
        self._in_transaction = True
        try:
            yield self
        except BaseException:
            self._db.rollback()
            raise
        else:
            self._db.commit()
        finally:
            self._in_transaction = False

    # ------------------------------------------------------------------ #
    # ingestion                                                          #
    # ------------------------------------------------------------------ #
    def _insert_run(
        self,
        kind: str,
        label: str,
        name: str,
        digest: str,
        *,
        git_revision: Optional[str] = None,
        python: Optional[str] = None,
        implementation: Optional[str] = None,
        platform: Optional[str] = None,
        quick: Optional[bool] = None,
        timestamp: Optional[str] = None,
        source: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Optional[int]:
        """Insert a run row; ``None`` means identical content already exists."""
        try:
            cursor = self._db.execute(
                "INSERT INTO runs (kind, label, name, git_revision, python, implementation,"
                " platform, quick, timestamp, source, digest, meta, ingested_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    kind, label, name, git_revision, python, implementation, platform,
                    None if quick is None else int(quick), timestamp, source, digest,
                    json.dumps(meta or {}, sort_keys=True), _now(),
                ),
            )
        except sqlite3.IntegrityError:
            return None
        return cursor.lastrowid

    def ingest_bench_report(
        self, report: Dict[str, Any], source: Optional[str] = None, label: Optional[str] = None
    ) -> IngestReport:
        """Ingest one benchmark report dict (the ``BENCH_*.json`` shape)."""
        outcome = IngestReport()
        meta = report.get("meta")
        benchmarks = report.get("benchmarks")
        if not isinstance(meta, dict) or not isinstance(benchmarks, dict):
            outcome.skipped += 1
            outcome.errors.append(f"{source or 'bench report'}: missing 'meta'/'benchmarks'")
            return outcome
        label = label or str(meta.get("label") or "unlabelled")
        run_id = self._insert_run(
            "bench", label, label, _sha256_of(report),
            git_revision=meta.get("git_revision"),
            python=meta.get("python"),
            implementation=meta.get("implementation"),
            platform=meta.get("platform"),
            quick=bool(meta.get("quick", False)),
            timestamp=meta.get("timestamp"),
            source=source,
            meta={k: v for k, v in meta.items() if k not in
                  ("label", "python", "implementation", "platform", "quick", "timestamp")},
        )
        if run_id is None:
            outcome.deduped += 1
            return outcome
        known = ("ops", "wall_s", "ops_per_sec", "baseline_wall_s",
                 "baseline_ops_per_sec", "speedup", "notes")
        for name in sorted(benchmarks):
            payload = benchmarks[name]
            if not isinstance(payload, dict):
                outcome.errors.append(f"{source or label}: benchmark {name!r} is not an object")
                outcome.skipped += 1
                continue
            extra = {k: v for k, v in payload.items() if k not in known}
            self._db.execute(
                "INSERT INTO bench_rows (run_id, label, name, ops, wall_s, ops_per_sec,"
                " baseline_wall_s, baseline_ops_per_sec, speedup, notes, extra)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id, label, name, payload.get("ops"), payload.get("wall_s"),
                    payload.get("ops_per_sec"), payload.get("baseline_wall_s"),
                    payload.get("baseline_ops_per_sec"), payload.get("speedup"),
                    str(payload.get("notes", "")), json.dumps(extra, sort_keys=True),
                ),
            )
            outcome.rows += 1
        self._commit()
        outcome.ingested += 1
        return outcome

    def ingest_experiment_payload(
        self,
        payload: Dict[str, Any],
        provenance: Optional[Dict[str, Any]] = None,
        source: Optional[str] = None,
        label: Optional[str] = None,
    ) -> IngestReport:
        """Ingest one experiment artifact payload plus its optional sidecar."""
        outcome = IngestReport()
        provenance = provenance or {}
        name = str(payload.get("name") or "unknown")
        label = _default_label(label)
        seeds = provenance.get("seeds")
        run_id = self._insert_run(
            "experiment", label, name, _sha256_of(payload),
            git_revision=provenance.get("git_revision"),
            python=provenance.get("python"),
            timestamp=provenance.get("timestamp"),
            source=source,
            meta={"jobs": provenance.get("jobs"), "seeds": seeds},
        )
        if run_id is None:
            outcome.deduped += 1
            return outcome
        self._db.execute(
            "INSERT INTO experiment_results (run_id, name, title, payload_digest, columns,"
            " rows, series, notes, seeds, jobs, trials, trials_from_cache, wall_clock_s)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                run_id, name, str(payload.get("title", "")), _sha256_of(payload),
                json.dumps(payload.get("columns", []), sort_keys=True),
                json.dumps(payload.get("rows", []), sort_keys=True),
                json.dumps(payload.get("series", {}), sort_keys=True),
                json.dumps(payload.get("notes", []), sort_keys=True),
                None if seeds is None else json.dumps(seeds),
                provenance.get("jobs"), provenance.get("trials"),
                provenance.get("trials_from_cache"), provenance.get("wall_clock_s"),
            ),
        )
        self._commit()
        outcome.ingested += 1
        outcome.rows += len(payload.get("rows") or [])
        return outcome

    def ingest_scenario_payload(
        self, payload: Dict[str, Any], source: Optional[str] = None, label: Optional[str] = None
    ) -> IngestReport:
        """Ingest one per-seed ScenarioResult payload, flattening its metrics."""
        outcome = IngestReport()
        name = str(payload.get("name") or "unknown")
        seed = int(payload.get("seed") or 0)
        spec_digest = str(payload.get("spec_digest") or "")
        label = _default_label(label)
        run_id = self._insert_run(
            "scenario", label, f"{name}.seed{seed}", _sha256_of(payload),
            source=source, meta={"spec_digest": spec_digest},
        )
        if run_id is None:
            outcome.deduped += 1
            return outcome
        self._db.execute(
            "INSERT INTO scenario_results (run_id, name, seed, spec_digest, duration_s, payload)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (
                run_id, name, seed, spec_digest, float(payload.get("duration_s") or 0.0),
                json.dumps(payload, sort_keys=True, separators=(",", ":")),
            ),
        )
        for scope, entity_key, entries in (
            ("app", "label", payload.get("apps")),
            ("link", "link", payload.get("links")),
            ("host", "host", payload.get("hosts")),
            ("workload", "label", payload.get("workloads")),
        ):
            if not isinstance(entries, list):
                continue
            for entry in entries:
                if not isinstance(entry, dict):
                    continue
                entity = str(entry.get(entity_key, ""))
                values = entry.get("metrics") if isinstance(entry.get("metrics"), dict) else entry
                for metric, value in values.items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        self._db.execute(
                            "INSERT OR REPLACE INTO metrics (run_id, label, scenario, seed,"
                            " spec_digest, scope, entity, metric, value)"
                            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                            (run_id, label, name, seed, spec_digest, scope, entity,
                             str(metric), float(value)),
                        )
                        outcome.rows += 1
        self._commit()
        outcome.ingested += 1
        return outcome

    def ingest_trace(
        self, path: str, source: Optional[str] = None, label: Optional[str] = None
    ) -> IngestReport:
        """Ingest a JSON-lines telemetry trace (the :class:`JsonlSink` format).

        Torn trailing lines (a simulation killed mid-write) are tolerated:
        each bad line is counted, good lines around it still land.
        """
        outcome = IngestReport()
        label = _default_label(label)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            outcome.skipped += 1
            outcome.errors.append(f"{path}: {exc}")
            return outcome
        name = os.path.basename(path)
        run_id = self._insert_run(
            "trace", label, name, hashlib.sha256(blob).hexdigest(),
            source=source or path,
        )
        if run_id is None:
            outcome.deduped += 1
            return outcome
        bad_lines = 0
        for index, raw in enumerate(blob.splitlines()):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
                if not isinstance(record, dict):
                    raise ValueError("not an object")
                event = str(record.pop("event"))
            except (ValueError, KeyError):
                bad_lines += 1
                continue
            t = record.pop("t", None)
            series = record.pop("series", None)
            value = record.pop("value", None)
            self._db.execute(
                "INSERT INTO trace_events (run_id, line, t, event, series, value, fields)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id, index, None if t is None else float(t), event,
                    None if series is None else str(series),
                    None if value is None else float(value),
                    json.dumps(record, sort_keys=True, separators=(",", ":")),
                ),
            )
            outcome.rows += 1
        if bad_lines:
            self._db.execute(
                "UPDATE runs SET meta = ? WHERE id = ?",
                (json.dumps({"bad_lines": bad_lines}), run_id),
            )
            outcome.errors.append(f"{path}: {bad_lines} unparseable line(s) skipped")
        self._commit()
        outcome.ingested += 1
        return outcome

    def ingest_file(self, path: str, label: Optional[str] = None) -> IngestReport:
        """Ingest one artifact file, dispatching on its content shape.

        ``*.jsonl`` files are telemetry traces; ``*.meta.json`` sidecars are
        picked up with their payload file and skipped when passed alone;
        everything else is classified by :func:`classify_payload`.  Corrupt
        JSON is a counted skip, never an exception.
        """
        outcome = IngestReport()
        if path.endswith(".jsonl"):
            return self.ingest_trace(path, source=os.path.basename(path), label=label)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            outcome.skipped += 1
            outcome.errors.append(f"{path}: unreadable or corrupt JSON ({exc})")
            return outcome
        kind = classify_payload(payload)
        source = os.path.basename(path)
        if kind == "bench":
            return self.ingest_bench_report(payload, source=source, label=label)
        if kind == "scenario":
            return self.ingest_scenario_payload(payload, source=source, label=label)
        if kind == "experiment":
            provenance = None
            base, ext = os.path.splitext(path)
            meta_path = base + ".meta" + ext
            if os.path.exists(meta_path):
                try:
                    with open(meta_path, "r", encoding="utf-8") as handle:
                        sidecar = json.load(handle)
                    if isinstance(sidecar, dict):
                        provenance = sidecar
                except (OSError, ValueError) as exc:
                    outcome.errors.append(f"{meta_path}: sidecar ignored ({exc})")
            return outcome.merge(self.ingest_experiment_payload(
                payload, provenance=provenance, source=source, label=label))
        if kind == "experiment-meta":
            outcome.skipped += 1
            outcome.errors.append(f"{path}: provenance sidecar (ingested with its payload file)")
            return outcome
        outcome.skipped += 1
        outcome.errors.append(f"{path}: unrecognized artifact shape")
        return outcome

    def ingest_path(self, path: str, label: Optional[str] = None) -> IngestReport:
        """Ingest a file, or every ``*.json`` / ``*.jsonl`` under a directory."""
        if not os.path.isdir(path):
            return self.ingest_file(path, label=label)
        outcome = IngestReport()
        for dirpath, _dirnames, filenames in sorted(os.walk(path)):
            for filename in sorted(filenames):
                if filename.endswith(".meta.json"):
                    continue
                if filename.endswith(".json") or filename.endswith(".jsonl"):
                    outcome.merge(self.ingest_file(os.path.join(dirpath, filename), label=label))
        return outcome

    # ------------------------------------------------------------------ #
    # queries                                                            #
    # ------------------------------------------------------------------ #
    def runs(self, kind: Optional[str] = None, label: Optional[str] = None) -> List[Dict[str, Any]]:
        """Run rows (most recent last), optionally filtered by kind/label."""
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if label is not None:
            clauses.append("label = ?")
            params.append(label)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        cursor = self._db.execute(f"SELECT * FROM runs{where} ORDER BY id", params)
        return [dict(row) for row in cursor.fetchall()]

    def bench_rows(
        self, label: Optional[str] = None, name: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Benchmark rows joined with their run context.

        When the same ``(label, name)`` was ingested more than once (a label
        regenerated with different content), only the **most recently
        ingested** run per label is reported — the store keeps the history,
        queries see the latest word.
        """
        clauses, params = [], []
        if label is not None:
            clauses.append("b.label = ?")
            params.append(label)
        if name is not None:
            clauses.append("b.name = ?")
            params.append(name)
        where = f" AND {' AND '.join(clauses)}" if clauses else ""
        cursor = self._db.execute(
            "SELECT b.*, r.git_revision, r.python, r.implementation, r.platform, r.quick,"
            " r.timestamp, r.source"
            " FROM bench_rows b JOIN runs r ON r.id = b.run_id"
            " WHERE r.id IN (SELECT MAX(id) FROM runs WHERE kind = 'bench' GROUP BY label)"
            f"{where} ORDER BY b.name, b.label",
            params,
        )
        return [dict(row) for row in cursor.fetchall()]

    def experiment_results(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Experiment artifact rows (columns/rows/series decoded from JSON)."""
        clauses = " WHERE e.name = ?" if name is not None else ""
        cursor = self._db.execute(
            "SELECT e.*, r.label, r.git_revision, r.timestamp, r.source"
            " FROM experiment_results e JOIN runs r ON r.id = e.run_id"
            f"{clauses} ORDER BY e.run_id",
            [name] if name is not None else [],
        )
        decoded = []
        for row in cursor.fetchall():
            entry = dict(row)
            for key in ("columns", "rows", "series", "notes"):
                entry[key] = json.loads(entry[key])
            entry["seeds"] = json.loads(entry["seeds"]) if entry["seeds"] else None
            decoded.append(entry)
        return decoded

    def scenario_results(
        self, name: Optional[str] = None, seed: Optional[int] = None,
        source: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Scenario result rows; ``payload`` is the decoded result document."""
        clauses, params = [], []
        if source is not None:
            clauses.append("r.source = ?")
            params.append(source)
        if name is not None:
            clauses.append("s.name = ?")
            params.append(name)
        if seed is not None:
            clauses.append("s.seed = ?")
            params.append(seed)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        cursor = self._db.execute(
            "SELECT s.*, r.label, r.timestamp, r.source"
            " FROM scenario_results s JOIN runs r ON r.id = s.run_id"
            f"{where} ORDER BY s.name, s.seed, s.run_id",
            params,
        )
        decoded = []
        for row in cursor.fetchall():
            entry = dict(row)
            entry["payload"] = json.loads(entry["payload"])
            decoded.append(entry)
        return decoded

    def metrics(
        self,
        scenario: Optional[str] = None,
        scope: Optional[str] = None,
        metric: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Flattened numeric scenario metrics, filterable by name/scope/metric."""
        clauses, params = [], []
        for column, value in (("scenario", scenario), ("scope", scope), ("metric", metric)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        cursor = self._db.execute(
            f"SELECT * FROM metrics{where} ORDER BY scenario, seed, scope, entity, metric",
            params,
        )
        return [dict(row) for row in cursor.fetchall()]

    def trace_summary(self) -> List[Dict[str, Any]]:
        """Per-trace event counts: ``(label, name, event, n, t_min, t_max)``."""
        cursor = self._db.execute(
            "SELECT r.label, r.name, e.event, COUNT(*) AS n, MIN(e.t) AS t_min, MAX(e.t) AS t_max"
            " FROM trace_events e JOIN runs r ON r.id = e.run_id"
            " GROUP BY r.id, e.event ORDER BY r.id, e.event"
        )
        return [dict(row) for row in cursor.fetchall()]

    def counts(self) -> Dict[str, int]:
        """Row counts per table — the ``query`` CLI's one-line health check."""
        out = {}
        for table in ("runs", "bench_rows", "experiment_results", "scenario_results",
                      "metrics", "trace_events"):
            cursor = self._db.execute(f"SELECT COUNT(*) AS n FROM {table}")  # noqa: S608
            out[table] = cursor.fetchone()["n"]
        return out
