"""Experiments as parameter sweeps, and the worker processes that run their trials.

Every experiment is a :class:`Sweep`: an ordered list of axes whose product
is its trial list, the params every trial shares, the ``trial`` function
that runs one param dict, and the ``reduce`` that turns the outcomes into
an :class:`~.base.ExperimentResult`.  A trial is fully described by a
:class:`TrialSpec` — the name of the sweep whose ``trial`` runs it plus a
JSON-able param dict — and ``trial`` must be a pure function of the params.
That contract buys two things:

* **parallelism** — :func:`run_trials` with ``jobs > 1`` hands trial
  indices to forked :class:`~repro.netsim.parallel.workers.Worker`\\ s over
  their own pipes; a worker rebuilds everything from the spec it inherited;
* **determinism** — outcomes are merged back in spec order (not completion
  order), so ``reduce()`` sees the same sequence however many workers ran,
  and the serialized artifact is byte-identical across job counts.

Every trial value is normalized through ``json.dumps``/``loads``, so serial
and pooled runs hand ``reduce()`` bit-identical structures.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import threading
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..netsim.parallel.workers import PEER_GONE, Worker, WorkerDied
from .base import ExperimentResult

__all__ = ["Sweep", "TrialSpec", "TrialOutcome", "canonical_json", "run_trials"]


def canonical_json(value: Any) -> str:
    """Deterministic compact JSON: the identity of a trial list."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _json_normalize(value: Any) -> Any:
    """Round-trip a value through JSON so tuples/ints/floats are canonical."""
    return json.loads(json.dumps(value))


@dataclass
class TrialSpec:
    """One independent unit of experiment work.

    ``experiment`` names the sweep whose ``trial`` function executes the
    spec; ``params`` must contain only JSON-able values and must fully
    determine the trial's result.
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Short human-readable label for progress messages."""
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.experiment}({inner})"


@dataclass
class TrialOutcome:
    """A trial spec paired with its (JSON-normalized) result."""

    spec: TrialSpec
    value: Any


@dataclass(frozen=True)
class Sweep:
    """One experiment: the product of ``axes`` over ``fixed`` params, run and reduced.

    ``axes`` is an ordered list of ``(param, values)``; the trial list walks
    their product with the last axis fastest.  ``trial`` runs one param
    dict, or is another sweep whose trials this one reads with its own
    ``reduce`` (Figure 5 reads Figure 4's).  ``smoke`` holds the overrides
    of a reduced CI workload.
    """

    name: str
    axes: Sequence[Tuple[str, Sequence[Any]]]
    fixed: Dict[str, Any]
    trial: Union[Callable[[dict], Any], "Sweep"]
    reduce: Callable[[Sequence[TrialOutcome]], ExperimentResult]
    smoke: Dict[str, Any] = field(default_factory=dict)

    @property
    def source(self) -> "Sweep":
        """The sweep whose trials this one runs: the one it reads, or itself."""
        return self.trial if isinstance(self.trial, Sweep) else self

    def varies(self, param: str) -> bool:
        """Is ``param`` one of the axes of the trials this sweep runs?"""
        return param in dict(self.source.axes)

    def trials(self, smoke: bool = False, **overrides) -> List[TrialSpec]:
        """The trial list, in axis-product order.

        ``smoke`` applies :attr:`smoke` first; each override then replaces
        an axis's values or a fixed param's value, by param name.
        """
        source = self.source
        settings = {**dict(source.axes), **source.fixed}
        chosen = {**(source.smoke if smoke else {}), **overrides}
        unknown = sorted(set(chosen) - set(settings))
        if unknown:
            raise TypeError(f"{source.name} has no param {unknown[0]!r}; choose from {sorted(settings)}")
        settings.update(chosen)
        names = [name for name, _values in source.axes]
        fixed = {name: settings[name] for name in source.fixed}
        return [
            TrialSpec(source.name, _json_normalize({**fixed, **dict(zip(names, point))}))
            for point in itertools.product(*(settings[name] for name in names))
        ]


def _execute(spec: TrialSpec) -> Any:
    """Run one trial in the current process via the experiment registry."""
    from .registry import get_sweep

    return get_sweep(spec.experiment).trial(dict(spec.params))


def _serve(conn, specs: List[TrialSpec]) -> None:
    """Trial worker: run each index the coordinator sends until ``None``.

    A listener thread owns the reads, so the coordinator's death — an
    end-of-file on the pipe — ends the worker even in the middle of a
    trial: nobody is left to want its result.
    """
    indices: "queue.SimpleQueue[Optional[int]]" = queue.SimpleQueue()

    def listen() -> None:
        try:
            while True:
                indices.put(conn.recv())
        except PEER_GONE:
            os._exit(0)

    threading.Thread(target=listen, daemon=True).start()
    for index in iter(indices.get, None):
        try:
            reply = ("ok", _execute(specs[index]))
        except Exception as exc:  # the parent re-raises it
            reply = ("error", (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except PEER_GONE:
            return
        except Exception:  # the reply does not pickle: its text still travels
            text = (reply[1][1] if reply[0] == "error" else "") + traceback.format_exc()
            conn.send(("error", (RuntimeError(text), text)))


class _RemoteTraceback(Exception):
    """Carries a trial worker's traceback text as the cause of the re-raised error."""


def run_trials(
    specs: Sequence[TrialSpec],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> List[TrialOutcome]:
    """Execute trials, possibly on forked workers, in deterministic order.

    The returned outcomes are in ``specs`` order regardless of ``jobs`` or
    worker scheduling.  A trial that raises raises its own exception type
    here; a worker process that dies is one :class:`WorkerDied` naming the
    trial it took down, after every other worker is reaped.
    """
    specs = list(specs)
    values: List[Any] = [None] * len(specs)
    done = 0

    def record(index: int, value: Any) -> None:
        nonlocal done
        values[index] = _json_normalize(value)
        done += 1
        if progress is not None:
            progress(f"[{done}/{len(specs)}] {specs[index].describe()}")

    if jobs > 1 and len(specs) > 1:
        _run_on_workers(specs, min(jobs, len(specs)), record)
    else:
        for index, spec in enumerate(specs):
            record(index, _execute(spec))
    return [TrialOutcome(spec=spec, value=values[index]) for index, spec in enumerate(specs)]


def _run_on_workers(specs: List[TrialSpec], jobs: int, record: Callable[[int, Any], None]) -> None:
    """Feed trial indices to ``jobs`` workers, one at a time each, recording every reply."""
    workers: List[Worker] = []
    unsent = iter(range(len(specs)))
    running: Dict[Any, Tuple[Worker, int]] = {}  # conn -> (worker, index it runs)

    def feed(worker: Worker) -> None:
        index = next(unsent, None)
        if index is not None:
            worker.send(index)
            running[worker.conn] = (worker, index)

    try:
        for k in range(jobs):  # a partial start is reaped below
            workers.append(Worker(f"trial worker {k}", _serve, (specs,)))
        for worker in workers:
            feed(worker)
        while running:
            for conn in wait(list(running)):
                worker, index = running.pop(conn)
                try:
                    status, value = worker.recv()
                except WorkerDied as exc:
                    raise WorkerDied(f"trial {specs[index].describe()} did not finish: {exc}") from None
                if status == "error":
                    error, text = value
                    raise error from _RemoteTraceback(f"in {worker.name}:\n{text}")
                record(index, value)
                feed(worker)
        for worker in workers:
            worker.send(None)
    except BaseException:
        for worker in workers:
            worker.reap()
        raise
    for worker in workers:  # each exits on its own after its None
        worker.join()
