"""Job fleet management for the simulation service.

A :class:`JobManager` owns a bounded pool of worker threads, each executing
one scenario at a time through
:func:`repro.scenario.runner.run_streaming` — the exact code path the batch
CLI uses, which is what makes a service job's result byte-identical to a
``python -m repro.scenario run`` of the same ``(spec, seed)``.

Threading contract (the part ``docs/service.md`` calls the *mailbox
contract*):

* Engine objects (hosts, links, Congestion Managers, macroflows, flows)
  belong to the worker thread running the simulation.  HTTP threads never
  touch them.
* Live reads and mutations are submitted as closures to the job's
  **mailbox** (:meth:`Job.request`); the simulation's periodic control tick
  (an event the engine itself dispatches, see
  :meth:`repro.netsim.engine.Simulator.start_control`) drains the mailbox
  *inside* the event loop and posts each closure's return value back to the
  waiting HTTP thread.
* The only cross-thread state HTTP threads read directly are scalar
  snapshots the worker publishes (job state, sim-time progress) — single
  attribute reads that are atomic under the GIL.
* Cancellation is cooperative: :meth:`Job.cancel` sets a flag; the control
  tick observes it and raises :class:`JobCancelled` inside the event loop,
  aborting the run at a clean event boundary.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from ..scenario.runner import DEFAULT_CONTROL_INTERVAL, run_streaming, spec_digest
from ..scenario.spec import ScenarioSpec, SpecError

__all__ = [
    "Job",
    "JobCancelled",
    "JobManager",
    "JobNotLive",
    "JobState",
    "STORE_SOURCE_PREFIX",
]

#: ``runs.source`` tag prefix for store rows ingested by the service; the
#: job id after the prefix is what lets ``GET /v1/jobs/<id>`` keep answering
#: from the store after the job is evicted from memory.
STORE_SOURCE_PREFIX = "service:job:"


class JobState:
    """Lifecycle states (plain strings so they serialise as-is)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job can still transition out of.
    LIVE = (QUEUED, RUNNING)
    #: Terminal states.
    FINISHED = (DONE, FAILED, CANCELLED)


class JobCancelled(Exception):
    """Raised inside the event loop when a job's cancel flag is observed."""


class JobNotLive(Exception):
    """A mailbox request was made against a job that is not running."""


class _MailboxRequest:
    """One closure queued for execution inside the simulation's event loop."""

    __slots__ = ("fn", "done", "result", "error")

    def __init__(self, fn: Callable):
        self.fn = fn
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class Job:
    """One scenario submission and its lifecycle bookkeeping."""

    def __init__(self, job_id: int, spec: ScenarioSpec, seed: int,
                 trace_path: Optional[str] = None,
                 shards: Optional[int] = None):
        self.id = job_id
        self.spec = spec
        self.seed = seed
        #: Shard worker-process count when the sharded engine runs this job
        #: (``None`` for the single-process engine).  Sharded jobs have no
        #: control tick, hence no mailbox — see :meth:`request`.
        self.shards = shards
        self.name = spec.name
        self.spec_digest = spec_digest(spec)
        self.trace_path = trace_path
        self.state = JobState.QUEUED
        self.error: Optional[str] = None
        self.error_path: Optional[str] = None
        self.result = None  # ScenarioResult once DONE
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        # Progress snapshot, published by the worker's progress callback and
        # read (not locked — scalar reads are atomic) by HTTP threads.  On a
        # sharded job the callback fires at each lookahead barrier with the
        # barrier time — i.e. the *minimum* sim-time across the shard
        # workers, the only honest global clock a conservative run has.
        self.sim_time = 0.0
        self.stop_time = spec.stop.until
        self._cancel = threading.Event()
        self._mailbox: deque = deque()
        self._mailbox_lock = threading.Lock()

    # ------------------------------------------------------------- lifecycle
    @property
    def finished(self) -> bool:
        return self.state in JobState.FINISHED

    def cancel(self) -> None:
        """Request a cooperative cancel (observed at the next control tick)."""
        self._cancel.set()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    # --------------------------------------------------------------- mailbox
    def request(self, fn: Callable, timeout: float = 5.0) -> Any:
        """Run ``fn(scenario)`` inside the job's event loop; return its value.

        Blocks the calling (HTTP) thread until the simulation's control tick
        drains the mailbox.  Raises :class:`JobNotLive` if the job is not
        running (or finishes before the request is served), re-raises any
        exception ``fn`` raised, and raises :class:`TimeoutError` if no tick
        serves the request within ``timeout`` wall seconds.
        """
        if self.shards:
            raise JobNotLive(
                f"job {self.id} runs on the sharded engine (shards={self.shards}); "
                "mid-run inspection and mutation need the single-process engine")
        if self.state != JobState.RUNNING:
            raise JobNotLive(f"job {self.id} is {self.state}, not running")
        req = _MailboxRequest(fn)
        with self._mailbox_lock:
            self._mailbox.append(req)
        if self.finished:
            # The job finished between the state check and the append; its
            # worker may already have drained the mailbox for the last time,
            # so reject the stragglers (including our own request) here.
            self._fail_mailbox(f"job {self.id} is {self.state}")
        if not req.done.wait(timeout):
            raise TimeoutError(
                f"job {self.id}: no control tick served the request within {timeout}s"
            )
        if isinstance(req.error, JobNotLive):
            raise req.error
        if req.error is not None:
            raise req.error
        return req.result

    def _drain_mailbox(self, scenario) -> None:
        """Serve queued requests (called from the control tick, in-loop)."""
        while True:
            with self._mailbox_lock:
                if not self._mailbox:
                    return
                req = self._mailbox.popleft()
            try:
                req.result = req.fn(scenario)
            except BaseException as exc:  # posted back to the caller
                req.error = exc
            req.done.set()

    def _fail_mailbox(self, reason: str) -> None:
        """Reject every queued request (job finished or was cancelled)."""
        while True:
            with self._mailbox_lock:
                if not self._mailbox:
                    return
                req = self._mailbox.popleft()
            req.error = JobNotLive(reason)
            req.done.set()

    # ---------------------------------------------------------------- status
    def status(self) -> Dict[str, Any]:
        """JSON-able status snapshot (safe from any thread)."""
        stop_time = self.stop_time
        sim_time = min(self.sim_time, stop_time)
        entry: Dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "seed": self.seed,
            "state": self.state,
            "spec_digest": self.spec_digest,
            "progress": {
                "sim_time": sim_time,
                "stop_time": stop_time,
                "fraction": (sim_time / stop_time) if stop_time > 0 else 0.0,
            },
            "trace": self.trace_path is not None,
            "shards": self.shards,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            entry["error"] = self.error
            if self.error_path:
                entry["error_path"] = self.error_path
        return entry


class _AttachedApp:
    """A mid-run application attach, dressed as a workload record.

    The scenario runner already stops workloads before static apps and
    collects each one into the result's ``workloads`` section (which is
    omitted when empty) — wrapping service attaches in this record makes
    them visible in the result without touching the runner, while jobs that
    were never mutated stay byte-identical to their batch runs.
    """

    kind = "service_attach"

    class _Spec:
        __slots__ = ("kind", "host")

        def __init__(self, kind: str, host: str):
            self.kind = kind
            self.host = host

    def __init__(self, app, host_name: str, label: str, index: int):
        self.app = app
        self.label = label
        #: Result-order key: after every declared workload, in attach order.
        self.index = index
        self.spec = self._Spec(self.kind, host_name)
        self._stopped = False

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.app.stop()

    def metrics(self) -> Dict[str, Any]:
        return self.app.metrics()


def attach_app_in_loop(scenario, app_name: str, host_name: str,
                       peer_name: str = "", label: str = "",
                       params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Attach a registry application to a live host (event-loop context only).

    The request is checked exactly like a static ``apps:`` entry (field
    types, then :meth:`AppSpec.validate`: registered app, declared host and
    peer, peer != host, schema-validated params) and then follows the
    runtime attach path the stochastic workload generators use: construction
    against live hosts, telemetry binding, ``start()``.  The instance is
    recorded as a ``service_attach`` entry in the result's ``workloads``
    section.
    """
    from ..scenario.applications import get_application
    from ..scenario.spec import AppSpec

    attach_index = sum(1 for w in scenario.workloads if isinstance(w, _AttachedApp))
    app_spec = AppSpec(app=app_name, host=host_name, peer=peer_name,
                       label=label or f"service:{app_name}[{attach_index}]",
                       params=dict(params or {}))
    app_spec.check_fields("")
    normalized = app_spec.validate("", scenario.hosts)
    label = app_spec.label
    host = scenario.hosts[host_name]
    peer = scenario.hosts[peer_name] if peer_name else None
    app = get_application(app_name)(host, peer, app_spec, normalized)
    app.label = label
    if scenario.telemetry is not None:
        app.attach_telemetry(scenario.telemetry.hub)
    app.start()
    scenario.workloads.append(_AttachedApp(app, host_name, label, len(scenario.workloads)))
    return {"label": label, "app": app_name, "host": host_name,
            "peer": peer_name or None, "attached_at": scenario.sim.now}


class JobManager:
    """Run ScenarioSpec submissions as a bounded fleet of concurrent jobs.

    Parameters
    ----------
    slots:
        Number of worker threads (= concurrently *running* jobs); further
        submissions queue in FIFO order.
    store_path:
        Optional sqlite :class:`repro.results.store.ResultStore` path.
        Completed jobs auto-ingest their result payload (and trace, when
        traced) tagged ``service:job:<id>``, so status and result survive
        in-memory eviction.
    trace_dir:
        Where per-job JSONL trace files go when a submission asks for
        telemetry streaming; a temp directory is created lazily if unset.
    control_interval:
        Simulated seconds between control ticks (mailbox latency bound).
    keep_finished:
        How many finished jobs stay in memory before the oldest are evicted.
    """

    def __init__(self, slots: int = 2, store_path: Optional[str] = None,
                 trace_dir: Optional[str] = None,
                 control_interval: float = DEFAULT_CONTROL_INTERVAL,
                 keep_finished: int = 256):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = slots
        self.store_path = store_path
        self.control_interval = control_interval
        self.keep_finished = keep_finished
        self._trace_dir = trace_dir
        self._jobs: Dict[int, Job] = {}
        self._next_id = 1
        self._lock = threading.Lock()
        self._queue: deque = deque()
        self._queue_cv = threading.Condition(self._lock)
        self._store_lock = threading.Lock()
        self._shutdown = False
        self._workers = [
            threading.Thread(target=self._worker, name=f"repro-service-worker-{i}", daemon=True)
            for i in range(slots)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------ submission
    def submit(self, spec: ScenarioSpec, seed: Optional[int] = None,
               trace: bool = False, shards: Optional[int] = None) -> Job:
        """Validate and enqueue one job; returns its :class:`Job` record.

        ``shards`` (or the spec's own ``engine: {shards: N}``) routes the
        job to the sharded engine — result bytes are identical to the
        single-process run, but the job has no mailbox (no mid-run
        inspection or mutation).  Incompatible submissions are rejected
        here, not at run time, so the caller gets a 400 rather than a
        failed job.
        """
        spec.validate()
        effective = shards if shards is not None else (
            spec.engine.shards if spec.engine is not None else 1)
        if effective > 1:
            if spec.graph is None:
                raise SpecError(
                    "engine.shards",
                    "sharded execution needs a graph topology "
                    "(hosts/links and dumbbell scenarios run single-process)")
            if spec.telemetry is not None:
                raise SpecError(
                    "engine.shards",
                    "in-result telemetry blocks are not supported on sharded "
                    "runs (per-shard --trace files are)")
        run_seed = spec.seed if seed is None else int(seed)
        with self._lock:
            if self._shutdown:
                raise RuntimeError("manager is shut down")
            job_id = self._next_id
            self._next_id += 1
        trace_path = None
        if trace:
            trace_path = os.path.join(self.trace_dir(), f"job{job_id}.jsonl")
        job = Job(job_id, spec, run_seed, trace_path=trace_path,
                  shards=effective if effective > 1 else None)
        with self._queue_cv:
            self._jobs[job_id] = job
            self._queue.append(job)
            self._queue_cv.notify()
        return job

    def trace_dir(self) -> str:
        if self._trace_dir is None:
            self._trace_dir = tempfile.mkdtemp(prefix="repro-service-traces-")
        else:
            os.makedirs(self._trace_dir, exist_ok=True)
        return self._trace_dir

    # ---------------------------------------------------------------- lookup
    def get(self, job_id: int) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """All in-memory jobs in submission order."""
        with self._lock:
            return [self._jobs[key] for key in sorted(self._jobs)]

    def cancel(self, job_id: int) -> Optional[Job]:
        """Cooperatively cancel a job; returns its record (or ``None``).

        A queued job is cancelled immediately (it never runs); a running job
        is cancelled by its own event loop at the next control tick.
        """
        job = self._jobs.get(job_id)
        if job is None:
            return None
        job.cancel()
        with self._lock:
            if job.state == JobState.QUEUED:
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass  # a worker already claimed it; its cancel flag wins
                else:
                    job.state = JobState.CANCELLED
                    job.finished_at = time.time()
        return job

    def wait(self, job_id: int, timeout: float = 60.0, poll: float = 0.01) -> Job:
        """Block until a job finishes (testing/benchmark convenience)."""
        job = self._jobs[job_id]
        deadline = time.time() + timeout
        while not job.finished:
            if time.time() > deadline:
                raise TimeoutError(f"job {job_id} still {job.state} after {timeout}s")
            time.sleep(poll)
        return job

    # ------------------------------------------------------ store integration
    def store_status(self, job_id: int) -> Optional[Dict[str, Any]]:
        """Status of an evicted job, answered from the result store."""
        row = self._store_row(job_id)
        if row is None:
            return None
        payload = row["payload"]
        return {
            "id": job_id,
            "name": payload.get("name"),
            "seed": payload.get("seed"),
            "state": JobState.DONE,
            "spec_digest": payload.get("spec_digest"),
            "progress": {
                "sim_time": payload.get("duration_s"),
                "stop_time": payload.get("duration_s"),
                "fraction": 1.0,
            },
            "evicted": True,
            "store": self.store_path,
        }

    def store_result_json(self, job_id: int) -> Optional[str]:
        """Byte-identical result JSON of an evicted job, from the store.

        The store keeps the full payload; re-rendering it with the
        :meth:`repro.scenario.runner.ScenarioResult.to_json` formatting
        round-trips to the original bytes (JSON numbers round-trip exactly).
        """
        import json

        row = self._store_row(job_id)
        if row is None:
            return None
        return json.dumps(row["payload"], indent=2, sort_keys=True, allow_nan=False) + "\n"

    def _store_row(self, job_id: int) -> Optional[Dict[str, Any]]:
        if self.store_path is None or not os.path.exists(self.store_path):
            return None
        from ..results.store import ResultStore

        tag = f"{STORE_SOURCE_PREFIX}{job_id}"
        with self._store_lock:
            with ResultStore(self.store_path) as store:
                for row in store.scenario_results():
                    if row.get("source") == tag:
                        return row
        return None

    def _ingest(self, job: Job) -> None:
        if self.store_path is None:
            return
        from ..results.store import ResultStore

        tag = f"{STORE_SOURCE_PREFIX}{job.id}"
        with self._store_lock:
            with ResultStore(self.store_path) as store:
                store.ingest_scenario_payload(job.result.payload(), source=tag)
                if job.trace_path and os.path.exists(job.trace_path):
                    store.ingest_trace(job.trace_path, source=tag)

    def _evict_finished(self) -> None:
        with self._lock:
            finished = [job for job in self._jobs.values() if job.finished]
            excess = len(finished) - self.keep_finished
            if excess <= 0:
                return
            finished.sort(key=lambda job: job.finished_at or 0.0)
            for job in finished[:excess]:
                self._jobs.pop(job.id, None)

    # ---------------------------------------------------------------- worker
    def _worker(self) -> None:
        while True:
            with self._queue_cv:
                while not self._queue and not self._shutdown:
                    self._queue_cv.wait()
                if self._shutdown and not self._queue:
                    return
                job = self._queue.popleft()
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        if job.cancel_requested:
            job.state = JobState.CANCELLED
            job.finished_at = time.time()
            job._fail_mailbox(f"job {job.id} was cancelled before it started")
            return
        job.state = JobState.RUNNING
        job.started_at = time.time()

        def control_hook(scenario) -> None:
            job._drain_mailbox(scenario)
            if job.cancel_requested:
                raise JobCancelled(f"job {job.id} cancelled at t={scenario.sim.now:.3f}")

        def progress_cb(sim_now: float, horizon: float) -> None:
            job.sim_time = sim_now
            job.stop_time = horizon
            if job.shards and job.cancel_requested:
                # No control tick on sharded runs; the barrier callback is
                # the cancellation point instead (≤ one lookahead window of
                # extra work per shard).
                raise JobCancelled(f"job {job.id} cancelled at t={sim_now:.3f}")

        try:
            if job.shards:
                result = run_streaming(
                    job.spec, job.seed,
                    trace_path=job.trace_path,
                    progress_cb=progress_cb,
                    shards=job.shards,
                )
            else:
                result = run_streaming(
                    job.spec, job.seed,
                    trace_path=job.trace_path,
                    control_hook=control_hook,
                    progress_cb=progress_cb,
                    control_interval=self.control_interval,
                )
        except JobCancelled:
            job.state = JobState.CANCELLED
            job.error = f"cancelled at sim t={job.sim_time:.3f}s"
        except SpecError as exc:
            job.state = JobState.FAILED
            job.error = str(exc)
            job.error_path = exc.path
        except Exception as exc:  # a failing job must never take a worker down
            job.state = JobState.FAILED
            job.error = f"{type(exc).__name__}: {exc}"
        else:
            job.result = result
            try:
                self._ingest(job)
            except Exception as exc:
                job.error = f"result store ingest failed: {exc}"
            job.state = JobState.DONE
        finally:
            job.finished_at = time.time()
            job._fail_mailbox(f"job {job.id} is {job.state}")
            self._evict_finished()

    # -------------------------------------------------------------- shutdown
    def shutdown(self, cancel_running: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work, cancel live jobs, join the workers."""
        with self._queue_cv:
            self._shutdown = True
            queued = list(self._queue)
            self._queue.clear()
            self._queue_cv.notify_all()
        for job in queued:
            job.state = JobState.CANCELLED
            job.finished_at = time.time()
            job._fail_mailbox("service shutting down")
        if cancel_running:
            for job in list(self._jobs.values()):
                if job.state == JobState.RUNNING:
                    job.cancel()
        deadline = time.time() + timeout
        for worker in self._workers:
            worker.join(max(0.0, deadline - time.time()))
