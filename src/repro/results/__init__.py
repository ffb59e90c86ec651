"""Fleet-scale result store: one indexed home for every measurement artifact.

The repository produces measurement files — ``BENCH_*.json`` reports,
experiment JSON artifacts with ``.meta.json`` provenance sidecars, per-seed
scenario results and JSON-lines telemetry traces.  This package aggregates
all of them into a single sqlite database (stdlib :mod:`sqlite3`, no
dependencies) keyed by ``(label, git revision, benchmark/experiment name,
spec_digest)``:

* :class:`~repro.results.store.ResultStore` — ingest + query;
* ``python -m repro.results`` — the ``ingest`` / ``query`` CLI over it.

See ``docs/result_store.md`` for the schema.
"""

from .store import IngestReport, ResultStore, SchemaVersionError

__all__ = ["ResultStore", "IngestReport", "SchemaVersionError"]
