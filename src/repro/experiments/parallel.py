"""Sharded trial execution for the experiment harness.

Every experiment is decomposed into independent *trials* (one figure point x
one seed, one API variant, one layered-streaming run ...).  A trial is fully
described by a :class:`TrialSpec` — the experiment name plus a JSON-able
parameter dict — and executed by the experiment's registered ``trial``
function, which must be a pure function of those parameters.  That contract
buys three things at once:

* **parallelism** — trials shard across a ``multiprocessing`` pool
  (:func:`run_trials` with ``jobs > 1``) because workers rebuild everything
  from the picklable spec;
* **determinism** — results are merged back in spec order (not completion
  order), so ``reduce()`` sees the same sequence no matter how many workers
  ran or how the OS scheduled them, and the serialized artifact is
  byte-identical across job counts;
* **caching** — the spec's canonical JSON is a content address, so a trial
  result can be stored on disk (:class:`TrialCache`) and re-runs only pay
  for cache misses.

Trial return values must survive a JSON round-trip; :func:`run_trials`
normalizes every freshly computed value through ``json.dumps``/``loads`` so
cold (computed) and warm (cached) runs hand ``reduce()`` bit-identical
structures.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "TrialSpec",
    "TrialOutcome",
    "TrialCache",
    "canonical_json",
    "code_fingerprint",
    "run_trials",
]

#: Bump whenever the meaning of a trial's parameters or return value changes;
#: it is part of every cache key, so old on-disk entries simply stop matching.
CACHE_SCHEMA_VERSION = 1


def canonical_json(value: Any) -> str:
    """Deterministic compact JSON used for shard keys and cache addresses."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _json_normalize(value: Any) -> Any:
    """Round-trip a value through JSON so tuples/ints/floats are canonical."""
    return json.loads(json.dumps(value))


_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """sha256 over every ``repro`` source file, computed once per process.

    Folding this into every cache key makes the trial cache self-invalidating:
    any edit to the simulator, transports, or experiment code changes the
    fingerprint, so stale entries computed under old physics simply stop
    matching — no manual ``CACHE_SCHEMA_VERSION`` bump required (that constant
    remains for semantic changes that live outside the package, e.g. a new
    JSON normalization rule in the harness driver).
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(package_root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, package_root).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


@dataclass
class TrialSpec:
    """One independent unit of experiment work.

    ``experiment`` names the registered experiment whose ``trial`` function
    executes the spec; ``params`` must contain only JSON-able values and must
    fully determine the trial's result.
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)

    def cache_key(self) -> str:
        """Content address of this trial: sha256 over experiment + params +
        the ``repro`` source fingerprint, so code changes invalidate entries."""
        payload = canonical_json(
            {
                "experiment": self.experiment,
                "params": self.params,
                "version": CACHE_SCHEMA_VERSION,
                "code": code_fingerprint(),
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label for progress messages."""
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.experiment}({inner})"


@dataclass
class TrialOutcome:
    """A trial spec paired with its (JSON-normalized) result."""

    spec: TrialSpec
    value: Any
    cached: bool = False


class TrialCache:
    """Content-addressed on-disk store of trial results.

    Layout: ``<root>/<first two hex chars>/<sha256>.json`` holding
    ``{"value": <result>}``.  Writes are atomic (tempfile + rename) so a
    killed run never leaves a truncated entry, and corrupt entries are
    treated as misses.
    """

    def __init__(self, root: str):
        self.root = str(root)
        self.hits = 0
        self.misses = 0

    def _path(self, spec: TrialSpec) -> str:
        digest = spec.cache_key()
        return os.path.join(self.root, digest[:2], digest + ".json")

    def lookup(self, spec: TrialSpec) -> Tuple[bool, Any]:
        """Return (hit, value); counts the lookup in hits/misses."""
        path = self._path(spec)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            value = entry["value"]
        except (OSError, ValueError, KeyError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def store(self, spec: TrialSpec, value: Any) -> None:
        path = self._path(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump({"value": value}, handle)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise


def _execute_spec(spec: TrialSpec) -> Any:
    """Run one trial in the current process via the experiment registry."""
    from .registry import get_spec

    return get_spec(spec.experiment).trial(dict(spec.params))


def _pool_worker(item: Tuple[int, TrialSpec]) -> Tuple[int, Any]:
    index, spec = item
    return index, _execute_spec(spec)


def run_trials(
    specs: Iterable[TrialSpec],
    jobs: int = 1,
    cache: Optional[TrialCache] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[TrialOutcome]:
    """Execute trials, possibly across a process pool, in deterministic order.

    The returned outcomes are in ``specs`` order regardless of ``jobs`` or
    worker scheduling; with a cache, hits are served from disk and only
    misses are executed (and then stored).
    """
    specs = list(specs)
    total = len(specs)
    values: List[Any] = [None] * total
    cached_flags = [False] * total
    pending: List[int] = []

    for index, spec in enumerate(specs):
        if cache is not None:
            hit, value = cache.lookup(spec)
            if hit:
                values[index] = value
                cached_flags[index] = True
                continue
        pending.append(index)

    done = total - len(pending)
    if progress is not None and done:
        progress(f"{done}/{total} trials served from cache")

    def record(index: int, value: Any) -> None:
        nonlocal done
        value = _json_normalize(value)
        values[index] = value
        if cache is not None:
            cache.store(specs[index], value)
        done += 1
        if progress is not None:
            progress(f"[{done}/{total}] {specs[index].describe()}")

    if pending:
        if jobs > 1 and len(pending) > 1:
            workers = min(jobs, len(pending))
            with multiprocessing.Pool(processes=workers) as pool:
                items = [(index, specs[index]) for index in pending]
                for index, value in pool.imap_unordered(_pool_worker, items, chunksize=1):
                    record(index, value)
        else:
            for index in pending:
                record(index, _execute_spec(specs[index]))

    return [
        TrialOutcome(spec=spec, value=values[index], cached=cached_flags[index])
        for index, spec in enumerate(specs)
    ]
