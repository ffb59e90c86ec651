"""Job fleet management for the simulation service.

A :class:`JobManager` owns a bounded pool of **slots**.  A slot is a
long-lived worker *process*, forked once when the manager is built (before
any HTTP or supervisor thread exists) and fed over a pipe by one supervisor
thread in the front end.  Every job — sharded or not — runs in its slot
through :func:`repro.scenario.runner.run_streaming`, the exact code path the
batch CLI uses, which is what makes a service job's result byte-identical to
a ``python -m repro.scenario run`` of the same ``(spec, seed)``.  No
simulation runs in the front-end process, so a running job never holds the
GIL the HTTP threads need.

Process contract (the part ``docs/service.md`` calls the *op contract*):

* Engine objects (hosts, links, Congestion Managers, macroflows, flows)
  live in the slot process running the simulation.  The front end cannot
  touch them.
* Live reads and mutations are *data*: :meth:`Job.request` sends
  ``("op", job_id, name, args)`` down the slot's pipe; the simulation's
  periodic control tick (an event the engine itself dispatches, see
  :meth:`repro.netsim.engine.Simulator.start_control`) drains the pipe
  *inside* the event loop, looks ``name`` up in the op table of
  :mod:`repro.service.api` and sends the value — or the exception — back.
  The slot answers only ops of the job it is running; whatever is still
  unanswered when the job ends is failed by the supervisor, so replies
  match requests in order without ids.
* Progress is three numbers in memory the slot shares with the front end
  (job id, sim time, horizon); :meth:`Job.status` reads them, no pipe
  traffic per tick.
* Cancellation is cooperative: :meth:`Job.cancel` sends a message the same
  tick observes; it raises :class:`JobCancelled` inside the event loop,
  aborting the run at a clean event boundary.  A slot that serves no tick
  within :data:`REQUEST_TIMEOUT_S` of the cancel is terminated.
* A slot that dies (``SIGKILL``, crash, a reply that cannot be sent) fails
  the job it was running with one error naming its exit code; its
  supervisor forks a replacement and carries on with the queue.
"""

from __future__ import annotations

import atexit
import copyreg
import json
import mmap
import multiprocessing
import os
import pickle
import select
import signal
import stat
import struct
import tempfile
import threading
import time
from collections import Counter, deque
from multiprocessing.connection import wait as wait_ready
from typing import Any, Dict, List, Optional, Tuple

from ..scenario.runner import DEFAULT_CONTROL_INTERVAL, run_streaming, spec_digest
from ..scenario.spec import ScenarioSpec, SpecError

__all__ = [
    "Job",
    "JobCancelled",
    "JobManager",
    "JobNotLive",
    "JobResult",
    "JobState",
    "REQUEST_TIMEOUT_S",
    "STORE_SOURCE_PREFIX",
]

#: ``runs.source`` tag prefix for store rows ingested by the service; the
#: job id after the prefix is what lets ``GET /v1/jobs/<id>`` keep answering
#: from the store after the job is evicted from memory.
STORE_SOURCE_PREFIX = "service:job:"

#: How long an op waits for a control tick by default — and therefore how
#: long a cancelled job may go without one before its slot is terminated.
REQUEST_TIMEOUT_S = 5.0

#: A supervisor waiting on its slot wakes this often to look at the clock
#: (the cancel deadline) and at the process; replies and, but for sharded
#: jobs, the slot's death wake it at once.
_WATCH_S = 0.5

#: The progress record a slot shares with the front end.
_PROGRESS = struct.Struct("qdd")  # job id, sim time, horizon


def _reduce_spec_error(exc: SpecError):
    prefix = f"{exc.path}: " if exc.path else ""
    return SpecError, (exc.path, str(exc)[len(prefix):])


# SpecError's constructor takes (path, message) but keeps only the joined
# text in ``args``, so the default exception pickling cannot rebuild it; an
# op's SpecError must reach the HTTP thread with its path.
copyreg.pickle(SpecError, _reduce_spec_error)


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
    ALL = LIVE + FINISHED


class JobCancelled(Exception):
    """Raised inside the event loop when a job's cancel message is observed."""


class JobNotLive(Exception):
    """An op was requested of a job that is not running."""


class SlotProtocolError(BaseException):
    """A slot could not send what the front end is waiting for.

    Not an :class:`Exception`: it must pass the run's own error handling and
    end the process, so the supervisor sees a death instead of a pipe that
    is one message short.
    """


class _SlotLost(Exception):
    """The slot's process is gone or unusable; the text says how."""


class JobResult:
    """A finished job's result, exactly as its slot rendered it.

    The text is ``ScenarioResult.to_json()`` from the slot; the front end
    serves it verbatim and decodes it only to ingest it.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def to_json(self) -> str:
        return self.text

    def payload(self) -> Dict[str, Any]:
        return json.loads(self.text)

    @property
    def duration_s(self) -> float:
        return self.payload()["duration_s"]


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
        #: control tick, hence no ops — see :meth:`request`.
        self.shards = shards
        self.name = spec.name
        self.spec_digest = spec_digest(spec)
        self.trace_path = trace_path
        self.state = JobState.QUEUED
        self.error: Optional[str] = None
        self.error_path: Optional[str] = None
        self.result: Optional[JobResult] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        # Progress before the slot's first report and after its last; in
        # between, :meth:`progress` reads the slot's shared record.
        self._sim_time = 0.0
        self._stop_time = spec.stop.until
        self._slot: Optional["_Slot"] = None
        self._cancel_deadline: Optional[float] = None

    # ------------------------------------------------------------- lifecycle
    @property
    def finished(self) -> bool:
        return self.state in JobState.FINISHED

    def cancel(self) -> None:
        """Request a cooperative cancel (observed at the next control tick)."""
        if self._cancel_deadline is None:
            self._cancel_deadline = time.monotonic() + REQUEST_TIMEOUT_S
        slot = self._slot
        if slot is not None:
            slot.cancel(self)

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_deadline is not None

    # -------------------------------------------------------------- progress
    def progress(self) -> Tuple[float, float]:
        """``(sim_time, stop_time)``, live from the slot while the job runs.

        On a sharded job the slot reports at each lookahead barrier with the
        barrier time — i.e. the *minimum* sim-time across the shard workers,
        the only honest global clock a conservative run has.
        """
        slot = self._slot
        if slot is not None:
            job_id, sim_time, stop_time = _PROGRESS.unpack_from(slot.progress)
            if job_id == self.id:  # else: not reported yet, or the slot has moved on
                return sim_time, stop_time
        return self._sim_time, self._stop_time

    @property
    def sim_time(self) -> float:
        return self.progress()[0]

    @property
    def stop_time(self) -> float:
        return self.progress()[1]

    # ------------------------------------------------------------------- ops
    def request(self, name: str, timeout: float = REQUEST_TIMEOUT_S, **args: Any) -> Any:
        """Run op ``name`` inside the job's event loop; return its value.

        ``name`` is a key of :data:`repro.service.api.OPS` and ``args`` its
        JSON arguments.  Blocks the calling (HTTP) thread until the
        simulation's control tick serves the request.  Raises
        :class:`JobNotLive` if the job is not running (or finishes before
        the request is served), re-raises the exception the op raised, and
        raises :class:`TimeoutError` if no tick serves the request within
        ``timeout`` wall seconds.
        """
        if self.shards:
            raise JobNotLive(
                f"job {self.id} runs on the sharded engine (shards={self.shards}); "
                "mid-run inspection and mutation need the single-process engine")
        slot = self._slot
        if self.state != JobState.RUNNING or slot is None:
            raise JobNotLive(f"job {self.id} is {self.state}, not running")
        return slot.call(self, name, args, timeout)

    # ---------------------------------------------------------------- status
    def status(self) -> Dict[str, Any]:
        """JSON-able status snapshot (safe from any thread)."""
        state = self.state
        sim_time, stop_time = self.progress()
        sim_time = min(sim_time, stop_time)
        if state == JobState.DONE:
            fraction = 1.0
        else:
            fraction = (sim_time / stop_time) if stop_time > 0 else 0.0
        entry: Dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "seed": self.seed,
            "state": state,
            "spec_digest": self.spec_digest,
            "progress": {
                "sim_time": sim_time,
                "stop_time": stop_time,
                "fraction": fraction,
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


# ====================================================================== #
# The slot process                                                       #
# ====================================================================== #
def _seal_inherited_sockets(keep: int) -> None:
    """Point every inherited socket but ``keep`` at /dev/null.

    A slot forked to replace a dead one inherits the front end's listening
    socket, its client connections and the other slots' pipes (socket
    pairs); holding them would keep the port bound after the server closed
    it and keep a dead sibling's pipe from reading end-of-file.  They are
    redirected rather than closed so that an inherited Python object that
    is finalised later closes /dev/null and not whatever file has reused
    its number since.  Plain pipes and files stay: multiprocessing's own
    liveness sentinel is one of them.
    """
    null = os.open(os.devnull, os.O_RDWR)
    for entry in os.listdir("/dev/fd"):
        fd = int(entry)
        try:
            if fd != keep and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd, inheritable=False)
        except OSError:
            pass  # listdir's own descriptor, closed again by now
    os.close(null)


def _slot_main(conn, progress) -> None:
    """A slot's whole life: run the jobs the supervisor sends, one at a time."""
    # A group of its own: ^C in a terminal goes to the front end alone, which
    # decides when its slots stop, and killing the group (``_Slot.reap``)
    # takes a sharded job's shard workers with the slot.
    os.setpgid(0, 0)
    _seal_inherited_sockets(conn.fileno())
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return  # the front end is gone
        if message[0] == "exit":
            return
        if message[0] == "run":
            _send(conn, ("done",) + _run_in_slot(conn, progress, *message[1:]))
        # Anything else is an op or a cancel for a job that has ended; the
        # supervisor failed its waiter when the job's "done" arrived.


def _send(conn, message: Tuple) -> None:
    try:
        conn.send(message)
    except Exception as exc:
        raise SlotProtocolError(f"cannot send {message[0]!r}: {exc!r}") from exc


def _run_in_slot(conn, progress, job_id: int, spec: ScenarioSpec, seed: int,
                 trace_path: Optional[str], shards: Optional[int],
                 control_interval: float) -> Tuple[str, Optional[str], Optional[str]]:
    """Run one job to its end; returns ``(state, result text or error, error path)``."""
    from .api import OPS  # api imports this module

    poller = select.poll()  # Connection.poll(0) costs ten of these
    poller.register(conn, select.POLLIN)

    def control_tick(scenario=None) -> None:
        """Serve the pipe from inside the event loop (ops, cancel)."""
        while poller.poll(0):
            message = conn.recv()
            if message[1] != job_id:
                continue  # a straggler of an earlier job
            if message[0] == "cancel":
                # A sharded job's workers have nothing left to say.  Each
                # holds a copy of its own pipe's far end, so run_sharded
                # closing ours is no end-of-file to them and its teardown
                # would wait five seconds a worker.
                for worker in multiprocessing.active_children():
                    worker.terminate()
                raise JobCancelled(f"job {job_id} cancelled")
            _kind, _job_id, name, args = message
            try:
                if name not in OPS:
                    raise ValueError(f"unknown op {name!r}; have {sorted(OPS)}")
                reply = ("value", OPS[name](scenario, **args))
            except Exception as exc:  # sent back to the caller
                reply = ("error", exc)
            _send(conn, reply)

    def report_progress(sim_now: float, horizon: float) -> None:
        _PROGRESS.pack_into(progress, 0, job_id, sim_now, horizon)
        if shards:
            # No control tick on sharded runs; the barrier callback is the
            # cancellation point instead (≤ one lookahead window of extra
            # work per shard).
            control_tick()

    try:
        if shards:
            result = run_streaming(spec, seed, trace_path=trace_path,
                                   progress_cb=report_progress, shards=shards)
        else:
            result = run_streaming(spec, seed, trace_path=trace_path,
                                   control_hook=control_tick, progress_cb=report_progress,
                                   control_interval=control_interval)
        return JobState.DONE, result.to_json(), None
    except JobCancelled:
        return JobState.CANCELLED, None, None
    except SpecError as exc:
        return JobState.FAILED, str(exc), exc.path
    except Exception as exc:  # a failing job must never take its slot down
        return JobState.FAILED, f"{type(exc).__name__}: {exc}", None


# ====================================================================== #
# The front end's handle on a slot                                       #
# ====================================================================== #
class _Waiter:
    """One op sent to a slot and the HTTP thread waiting for its reply."""

    __slots__ = ("done", "reply")

    def __init__(self):
        self.done = threading.Event()
        self.reply: Tuple[str, Any] = ("error", None)

    def resolve(self, reply: Tuple[str, Any]) -> None:
        self.reply = reply
        self.done.set()


class _Slot:
    """One worker process, its pipe and the scalars ``health`` reports.

    Everything here is written by the slot's supervisor thread only, except
    ``pending`` and the pipe's sending side, which ``send_lock`` guards.
    """

    def __init__(self, index: int, context):
        self.index = index
        self._context = context
        #: Shared with every process forked for this slot (anonymous, no fd).
        self.progress = mmap.mmap(-1, _PROGRESS.size)
        self.send_lock = threading.Lock()
        #: Ops sent and not yet answered, oldest first.
        self.pending: deque = deque()
        self.job: Optional[Job] = None
        self.jobs_run = 0
        self.respawns = 0
        self.spawn()

    def spawn(self) -> None:
        with self.send_lock:
            self.conn, child_conn = self._context.Pipe()
            # Not a daemon: a sharded job forks its shard workers from here.
            self.process = self._context.Process(
                target=_slot_main, args=(child_conn, self.progress),
                name=f"repro-service-slot-{self.index}", daemon=False)
            self.process.start()
            child_conn.close()
            self.pid = self.process.pid
            self.alive = True

    def respawn(self) -> None:
        """Fork the replacement of a process that :meth:`reap` has collected."""
        self.spawn()
        self.respawns += 1

    def health(self) -> Dict[str, Any]:
        job = self.job
        return {"slot": self.index, "pid": self.pid, "alive": self.alive,
                "busy": job is not None, "job": job.id if job is not None else None,
                "jobs_run": self.jobs_run, "respawns": self.respawns}

    # ----------------------------------------------------- any thread → slot
    def call(self, job: Job, name: str, args: Dict[str, Any], timeout: float) -> Any:
        # Pickled before it is queued: arguments that are not data must fail
        # here, not leave a waiter in line for a message never sent.
        payload = pickle.dumps(("op", job.id, name, args))
        waiter = _Waiter()
        with self.send_lock:
            if self.job is not job:
                raise JobNotLive(f"job {job.id} is {job.state}")
            self.pending.append(waiter)
            try:
                self.conn.send_bytes(payload)
            except OSError:
                pass  # the slot just died; its supervisor fails the waiter
        if not waiter.done.wait(timeout):
            raise TimeoutError(
                f"job {job.id}: no control tick served the request within {timeout}s")
        kind, value = waiter.reply
        if kind == "error":
            raise value
        return value

    def cancel(self, job: Job) -> None:
        with self.send_lock:
            if self.job is job:
                try:
                    self.conn.send(("cancel", job.id))
                except OSError:
                    pass  # dead already; the supervisor settles the job

    # ------------------------------------------------------- supervisor only
    def run(self, job: Job, control_interval: float) -> Tuple[str, Optional[str], Optional[str]]:
        """Send ``job`` to the process and hand replies out until it is done."""
        with self.send_lock:
            self.job = job
            try:
                self.conn.send(("run", job.id, job.spec, job.seed, job.trace_path,
                                job.shards, control_interval))
                if job.cancel_requested:  # cancelled before it had a slot to tell
                    self.conn.send(("cancel", job.id))
            except OSError:
                raise _SlotLost("died before the job reached it") from None
        while True:
            ready = wait_ready([self.conn, self.process.sentinel], _WATCH_S)
            if self.conn in ready:
                try:
                    reply = self.conn.recv()
                except EOFError:
                    raise _SlotLost("died mid-job") from None
                except Exception as exc:
                    raise _SlotLost(f"sent a reply that cannot be read ({exc!r})") from None
                if reply[0] == "done":
                    return reply[1:]
                self.pending.popleft().resolve(reply)
            elif ready or not self.process.is_alive():
                # The second look is for a sharded job: its shard workers
                # inherit the far ends of the sentinel and of the pipe, so
                # neither reads end-of-file while they live.
                raise _SlotLost("died mid-job")
            elif job.cancel_requested and time.monotonic() > job._cancel_deadline:
                raise _SlotLost(f"served no control tick within {REQUEST_TIMEOUT_S:g}s of the cancel")

    def release(self, job: Job, state: str) -> None:
        """The job is over: publish its state and fail what was not answered."""
        with self.send_lock:
            job.state = state
            job._slot = None
            self.job = None
            while self.pending:
                self.pending.popleft().resolve(
                    ("error", JobNotLive(f"job {job.id} is {state}")))

    def gone(self, timeout: float = 0.0) -> bool:
        """Has the process ended?  (Asks its sentinel, so does not collect it.)"""
        return bool(wait_ready([self.process.sentinel], timeout))

    def reap(self) -> Optional[int]:
        """Make sure the process is gone and collected; returns its exit code.

        Kills the slot's whole process group, so the shard workers of a
        sharded job go with it (the group's id is the slot's pid, and stays
        taken while any of them lives).
        """
        self.alive = False
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            self.process.kill()  # forked this instant: no group of its own yet
        self.process.join()
        self.conn.close()
        return self.process.exitcode

    def stop(self) -> None:
        with self.send_lock:
            try:
                self.conn.send(("exit",))
            except OSError:
                pass
        self.gone(REQUEST_TIMEOUT_S)
        self.reap()


class JobManager:
    """Run ScenarioSpec submissions as a bounded fleet of concurrent jobs.

    Parameters
    ----------
    slots:
        Number of worker processes (= concurrently *running* jobs, each on
        its own core if the machine has one to give); further submissions
        queue in FIFO order.
    store_path:
        Optional sqlite :class:`repro.results.store.ResultStore` path.
        Completed jobs auto-ingest their result payload (and trace, when
        traced) tagged ``service:job:<id>``, so status and result survive
        in-memory eviction.
    trace_dir:
        Where per-job JSONL trace files go when a submission asks for
        telemetry streaming; a temp directory is created lazily if unset.
    control_interval:
        Simulated seconds between control ticks (op latency bound).
    keep_finished:
        How many finished jobs stay in memory before the oldest are evicted.

    Build the manager before starting threads (the HTTP server included):
    the slots are forked here, and a process forked from a single-threaded
    parent inherits no lock that a vanished thread holds.
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
        self.started_at = time.time()
        self.ingest_failures = 0
        self._trace_dir = trace_dir
        self._jobs: Dict[int, Job] = {}
        self._next_id = 1
        self._lock = threading.Lock()
        self._queue: deque = deque()
        self._queue_cv = threading.Condition(self._lock)
        self._store = None  # one ResultStore for the manager's life, opened on first use
        self._store_lock = threading.Lock()
        self._shutdown = False
        # The fork start method, by name: the slots share the progress
        # record and the op table by inheriting them.
        context = multiprocessing.get_context("fork")
        self._slots: List[_Slot] = []
        try:
            for index in range(slots):
                self._slots.append(_Slot(index, context))
        except BaseException:
            for slot in self._slots:  # a partial start strands nobody
                slot.reap()
            raise
        # Non-daemon children hold the interpreter's exit open until they
        # are joined; a manager nobody shut down still lets the process end.
        atexit.register(self.shutdown)
        self._supervisors = [
            threading.Thread(target=self._supervise, args=(slot,),
                             name=f"repro-service-supervisor-{slot.index}", daemon=True)
            for slot in self._slots
        ]
        for supervisor in self._supervisors:
            supervisor.start()

    # ------------------------------------------------------------ submission
    def submit(self, spec: ScenarioSpec, seed: Optional[int] = None,
               trace: bool = False, shards: Optional[int] = None) -> Job:
        """Validate and enqueue one job; returns its :class:`Job` record.

        ``shards`` (or the spec's own ``engine: {shards: N}``) routes the
        job to the sharded engine — result bytes are identical to the
        single-process run, but the job serves no ops (no mid-run
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
        with self._lock:
            if job.state == JobState.QUEUED:  # still in the queue: claiming is under this lock
                self._queue.remove(job)
                job.finished_at = time.time()
                job.state = JobState.CANCELLED
        job.cancel()
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

    # ---------------------------------------------------------------- health
    def health(self) -> Dict[str, Any]:
        """Fleet health from scalars the supervisors own.

        Nothing here asks a slot anything, so it answers while every slot is
        busy or wedged.  A slot that died *idle* still reads ``alive`` until
        its supervisor next takes a job, finds it dead and replaces it.
        """
        with self._lock:
            states = Counter(job.state for job in self._jobs.values())
            queue_depth = len(self._queue)
        return {
            "accepting": not self._shutdown,
            "uptime_s": time.time() - self.started_at,
            "queue_depth": queue_depth,
            "jobs": {state: states.get(state, 0) for state in JobState.ALL},
            "ingest_failures": self.ingest_failures,
            "slots": [slot.health() for slot in self._slots],
        }

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
        row = self._store_row(job_id)
        if row is None:
            return None
        return json.dumps(row["payload"], indent=2, sort_keys=True, allow_nan=False) + "\n"

    def _open_store(self):
        """The manager's one store connection (call with ``_store_lock`` held)."""
        if self._store is None:
            from ..results.store import ResultStore

            self._store = ResultStore(self.store_path)
        return self._store

    def _close_store(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None

    def _store_row(self, job_id: int) -> Optional[Dict[str, Any]]:
        if self.store_path is None:
            return None
        with self._store_lock:
            if self._store is None and not os.path.exists(self.store_path):
                return None
            rows = self._open_store().scenario_results(
                source=f"{STORE_SOURCE_PREFIX}{job_id}")
        return rows[0] if rows else None

    def _ingest(self, job: Job) -> None:
        """One transaction per job; a failure is the job's note, not its fate."""
        if self.store_path is None:
            return
        tag = f"{STORE_SOURCE_PREFIX}{job.id}"
        with self._store_lock:
            try:
                store = self._open_store()
                with store.transaction():
                    store.ingest_scenario_payload(job.result.payload(), source=tag)
                    if job.trace_path and os.path.exists(job.trace_path):
                        store.ingest_trace(job.trace_path, source=tag)
            except Exception as exc:
                self.ingest_failures += 1
                job.error = f"result store ingest failed: {exc}"
                self._close_store()  # the next job starts from a fresh connection

    def _evict_finished(self) -> None:
        with self._lock:
            finished = [job for job in self._jobs.values() if job.finished]
            excess = len(finished) - self.keep_finished
            if excess <= 0:
                return
            finished.sort(key=lambda job: job.finished_at or 0.0)
            for job in finished[:excess]:
                self._jobs.pop(job.id, None)

    # ------------------------------------------------------------ supervisor
    def _supervise(self, slot: _Slot) -> None:
        while True:
            with self._queue_cv:
                while not self._queue and not self._shutdown:
                    self._queue_cv.wait()
                if not self._queue:
                    break
                job = self._queue.popleft()
                job.started_at = time.time()
                job._slot = slot
                job.state = JobState.RUNNING
            self._run_job(slot, job)
        slot.stop()

    def _run_job(self, slot: _Slot, job: Job) -> None:
        path = None
        if slot.gone():  # died idle, when nobody was watching
            slot.reap()
            slot.respawn()
        try:
            state, detail, path = slot.run(job, self.control_interval)
        except _SlotLost as lost:
            pid, code = slot.pid, slot.reap()
            state = JobState.CANCELLED if job.cancel_requested else JobState.FAILED
            detail = f"slot {slot.index} (pid {pid}) {lost}; exit code {code}"
            if not self._shutdown:
                slot.respawn()
        job._sim_time, job._stop_time = job.progress()
        if state == JobState.DONE:
            job._stop_time = job._sim_time  # where it ended is all of it
            job.result = JobResult(detail)
            self._ingest(job)
        elif state == JobState.CANCELLED:
            job.error = detail or f"cancelled at sim t={job._sim_time:.3f}s"
        else:
            job.error, job.error_path = detail, path
        job.finished_at = time.time()
        slot.jobs_run += 1
        slot.release(job, state)
        self._evict_finished()

    # -------------------------------------------------------------- shutdown
    def shutdown(self, cancel_running: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting work, cancel live jobs, stop and reap every slot."""
        atexit.unregister(self.shutdown)
        with self._queue_cv:
            self._shutdown = True
            for job in self._queue:
                job.finished_at = time.time()
                job.state = JobState.CANCELLED
            self._queue.clear()
            self._queue_cv.notify_all()
        if cancel_running:
            for job in list(self._jobs.values()):
                if job.state == JobState.RUNNING:
                    job.cancel()
        deadline = time.time() + timeout
        for supervisor in self._supervisors:
            supervisor.join(max(0.0, deadline - time.time()))
        for slot, supervisor in zip(self._slots, self._supervisors):
            if supervisor.is_alive():  # its job outlived the timeout
                slot.process.kill()
                supervisor.join(REQUEST_TIMEOUT_S)
        with self._store_lock:
            self._close_store()
