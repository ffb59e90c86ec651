"""JSON artifacts and provenance sidecars for experiment results.

Each experiment run can be persisted as two files in a ``--json-dir``:

* ``<name>.json`` — the deterministic payload (``ExperimentResult.to_json``):
  columns, rows, series, notes.  Byte-identical for identical inputs
  regardless of ``--jobs``, so it can be diffed, hashed and used as a
  golden trace.
* ``<name>.meta.json`` — the provenance sidecar: seeds, jobs, git revision,
  wall clock, trial count, python version, timestamp.  Everything
  that varies between equivalent runs lives here, never in the payload.

Since PR 6 every write can also *register* the artifact in the shared
result store (:mod:`repro.results`): pass ``store=`` explicitly (a path or
an open :class:`~repro.results.ResultStore`) or set the
``REPRO_RESULT_STORE`` environment variable to a database path and every
artifact written anywhere in the process lands in the store too.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from .base import ExperimentResult

__all__ = ["git_revision", "build_provenance", "write_artifacts", "register_artifact", "read_artifact"]


def git_revision() -> str:
    """The repository HEAD revision, or "unknown" outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip() or "unknown"


def build_provenance(
    experiment: str,
    seeds: Optional[Sequence[int]],
    jobs: int,
    wall_clock_s: float,
    n_trials: int,
) -> Dict[str, Any]:
    """Assemble the provenance dict recorded alongside a result."""
    return {
        "experiment": experiment,
        "seeds": list(seeds) if seeds is not None else None,
        "jobs": jobs,
        "git_revision": git_revision(),
        "wall_clock_s": wall_clock_s,
        "trials": n_trials,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def write_artifacts(result: ExperimentResult, json_dir: str, store=None) -> Tuple[str, str]:
    """Write ``<name>.json`` + ``<name>.meta.json`` under ``json_dir``.

    ``store`` (a path, an open :class:`repro.results.ResultStore`, or the
    ``REPRO_RESULT_STORE`` environment variable as the fallback) registers
    the payload + provenance in the shared result store after the files
    land.  Registration is strictly additive: the artifact bytes on disk
    are written first and never depend on the store.
    """
    os.makedirs(json_dir, exist_ok=True)
    payload_path = os.path.join(json_dir, f"{result.name}.json")
    meta_path = os.path.join(json_dir, f"{result.name}.meta.json")
    with open(payload_path, "w", encoding="utf-8") as handle:
        handle.write(result.to_json())
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(result.provenance, handle, indent=2, sort_keys=True)
        handle.write("\n")
    register_artifact(result, source=os.path.basename(payload_path), store=store)
    return payload_path, meta_path


def register_artifact(result: ExperimentResult, source: Optional[str] = None, store=None):
    """Record an experiment result in the shared result store, if one is wired.

    Resolution order: an explicit ``store`` (path or open store), then the
    ``REPRO_RESULT_STORE`` environment variable, else a no-op.  Returns the
    :class:`repro.results.IngestReport` or ``None`` when no store is wired.
    """
    from ..results.store import ResultStore

    opened = None
    if store is None:
        path = os.environ.get("REPRO_RESULT_STORE")
        if not path:
            return None
        store = opened = ResultStore(path)
    elif isinstance(store, str):
        store = opened = ResultStore(store)
    try:
        return store.ingest_experiment_payload(
            result.payload(), provenance=result.provenance or None, source=source
        )
    finally:
        if opened is not None:
            opened.close()


def read_artifact(payload_path: str) -> ExperimentResult:
    """Load a result from its payload file, restoring provenance if the sidecar exists."""
    with open(payload_path, "r", encoding="utf-8") as handle:
        result = ExperimentResult.from_json(handle.read())
    base, ext = os.path.splitext(payload_path)
    meta_path = base + ".meta" + ext
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as handle:
            result.provenance = json.load(handle)
    return result
