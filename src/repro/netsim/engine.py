"""Discrete-event simulation engine.

Every component in this reproduction (links, TCP timers, the Congestion
Manager's rate callbacks, application send loops) takes its notion of time
from a :class:`Simulator` instance rather than the wall clock.  This keeps
the congestion-control dynamics deterministic and reproducible, which is the
substitution this repository makes for the paper's physical testbed (see
DESIGN.md).

The engine is an event-heap simulator tuned for the request/grant/ACK churn
the Congestion Manager generates:

* :meth:`Simulator.schedule` / :meth:`Simulator.at` push events onto the
  queue and return an :class:`Event` handle that can be cancelled.
* The pending set is **one binary heap** of entries ordered by
  ``(time, seq)``: one C-level ``heappush`` per schedule and one ``heappop``
  per dispatch, so dispatch order is exactly global ``(time, seq)`` order by
  construction.  There is deliberately no sorted side lane for in-order
  pushes: links interleave ``now + tx`` with ``now + delay`` and
  ``call_soon`` is earlier than both, so on real workloads a third to a
  half of the pushes would miss it and pay a Python frame on top of the
  heap (measured in docs/cm_api_path.md).
* Queue entries are plain mutable lists, not the :class:`Event` handles
  themselves; cancellation is *lazy* — it flips a state slot in O(1) and the
  dead entry is discarded when it surfaces at the top of the heap (with a
  periodic compaction so a cancel-heavy workload cannot bloat the queue).
* :meth:`Simulator.run` pops events in time order and invokes their
  callbacks until the horizon, an event budget, or :meth:`Simulator.stop`,
  with the dispatch loop working on local bindings of the heap machinery.
* :class:`Timer` wraps the common "restartable timeout" pattern used by TCP
  retransmission timers and the CM's background tick.  Restarts that push
  the deadline *back* (the per-ACK case) are coalesced: the timer just
  records the new deadline and re-arms lazily when the old entry fires,
  costing zero heap operations per restart.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Any, Callable, List, Optional

# Bound once at import: the hot paths call these thousands of times per
# simulated second and a plain global lookup beats module attribute access.
_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = ["Event", "Simulator", "Timer", "SimulationError"]

# Queue entries are ``[time, seq, state, callback, args]`` lists (plus a
# trailing ``sim`` slot on :class:`Event` entries, which need it for
# ``cancel``).  Ordering only ever compares ``time`` then the unique
# ``seq``, so the trailing slots never participate in comparisons and the
# two layouts can share a heap.  Callback keyword arguments are deliberately
# unsupported on the scheduling fast path — a per-call kwargs dict is an
# allocation the packet hot path cannot afford; use ``functools.partial``.
_TIME = 0
_SEQ = 1
_STATE = 2
_CALLBACK = 3
_ARGS = 4
_SIM = 5

_PENDING = 0
_CANCELLED = 1
_DISPATCHED = 2

#: Compact the queue when at least this many dead entries accumulate *and*
#: they outnumber the live ones (amortised O(1) per cancellation).
_COMPACT_MIN_DEAD = 512

#: Sequence floor for :meth:`Simulator.push_late` entries.  Normal sequence
#: numbers count up from zero one per event, so they can never reach this
#: (2**62 events is thousands of simulated years); a late entry therefore
#: sorts after every normally-scheduled event at the same timestamp, and
#: same-time late entries order by their caller-supplied rank.
_LATE_SEQ_BASE = 1 << 62


class SimulationError(RuntimeError):
    """Raised when the simulator is used inconsistently.

    Examples include scheduling an event in the past, cancelling an event
    that has already been dispatched, or resuming a stopped simulator with a
    horizon earlier than the current time.
    """


class Event(list):
    """Handle for a scheduled callback.

    Instances are created by :meth:`Simulator.schedule`; user code only
    interacts with them to :meth:`cancel` a pending event or to inspect
    :attr:`time`.  The handle *is* the simulator's internal queue entry (a
    list subclass), so scheduling allocates exactly one object — there is no
    separate wrapper to build or collect on the hot path.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Absolute simulated time the event fires (or fired) at."""
        return self[_TIME]

    @property
    def seq(self) -> int:
        """Schedule-order tiebreaker (unique per simulator)."""
        return self[_SEQ]

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self[_STATE] == _CANCELLED

    @property
    def dispatched(self) -> bool:
        """True once the callback has been invoked."""
        return self[_STATE] == _DISPATCHED

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and has not fired or been cancelled."""
        return self[_STATE] == _PENDING

    def cancel(self) -> None:
        """Prevent the event from firing.

        Safe to call more than once on a pending or already-cancelled event;
        cancelling an event whose callback has already run is a bug in the
        caller's bookkeeping and raises :class:`SimulationError`.
        """
        state = self[_STATE]
        if state == _DISPATCHED:
            raise SimulationError(
                f"cannot cancel event at t={self[_TIME]:.6f}: it has already been dispatched"
            )
        if state == _PENDING:
            self[_SIM]._kill_entry(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("pending", "cancelled", "done")[self[_STATE]]
        callback = self[_CALLBACK]
        name = getattr(callback, "__name__", callback)
        return f"<Event t={self[_TIME]:.6f} {name} {state}>"


class Simulator:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start:
        Initial simulated time in seconds.
    """

    #: Slotted: the dispatch loop and the packet pool touch these attributes
    #: millions of times per simulated run, and the per-instance dict would
    #: be pure overhead (nothing in the repo monkey-patches simulators).
    __slots__ = (
        "_now",
        "_heap",
        "_seq",
        "_dead",
        "_running",
        "_stopped",
        "_packet_seq",
        "_control_cb",
        "_control_interval",
        "_control_entry",
        "events_dispatched",
        "packet_pool",
    )

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._heap: List[list] = []
        self._seq = 0
        self._dead = 0
        self._running = False
        self._stopped = False
        #: Last per-simulator packet id handed out; the IP output path
        #: stamps ``_packet_seq + 1`` on everything that reaches a wire.
        self._packet_seq = 0
        # Control-tick chain (see start_control): a background callback the
        # service layer uses to drain cross-thread mailboxes from *inside*
        # the event loop.  None means no chain is armed.
        self._control_cb: Optional[Callable] = None
        self._control_interval = 0.0
        self._control_entry: Optional[list] = None
        self.events_dispatched = 0
        #: Lazily-attached per-simulator :class:`~repro.netsim.packet.PacketPool`
        #: (see :func:`repro.netsim.packet.pool_for`); ``None`` until the
        #: first transport asks for it.
        self.packet_pool = None

    # ------------------------------------------------------------------ time
    #: Read on every packet by every layer, so the getter is a C-level
    #: ``attrgetter`` rather than a Python frame.
    now = property(attrgetter("_now"), doc="Current simulated time in seconds.")

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable, *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Callback arguments are positional-only: a per-call kwargs dict is an
        allocation the hot path cannot afford, so bind keyword arguments
        with :func:`functools.partial` at the call site instead.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay} seconds in the past")
        seq = self._seq
        self._seq = seq + 1
        entry = Event((self._now + delay, seq, _PENDING, callback, args, self))
        _heappush(self._heap, entry)
        return entry

    def at(self, time: float, callback: Callable, *args: Any) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, simulator already at {self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = Event((time, seq, _PENDING, callback, args, self))
        _heappush(self._heap, entry)
        return entry

    def call_soon(self, callback: Callable, *args: Any) -> Event:
        """Schedule ``callback`` at the current time (after already-queued same-time events)."""
        seq = self._seq
        self._seq = seq + 1
        entry = Event((self._now, seq, _PENDING, callback, args, self))
        _heappush(self._heap, entry)
        return entry

    # ------------------------------------------------------- entry management
    def _push(self, time: float, callback: Callable, args: tuple) -> list:
        """Create and enqueue a raw queue entry (no :class:`Event` handle)."""
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, _PENDING, callback, args]
        _heappush(self._heap, entry)
        return entry

    def push_late(self, time: float, rank: int, callback: Callable, args: tuple = ()) -> list:
        """Enqueue an entry that sorts *after* every normal event at ``time``.

        ``rank`` breaks ties between same-time late entries (callers must
        keep it unique per timestamp — list comparison would otherwise fall
        through to the callback slot).  Used by the graph builds' ingress
        sequencers to run per-node end-of-timestamp drains in a
        content-defined order, independent of event-scheduling history —
        the hook that lets sharded runs reproduce single-process bytes.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, simulator already at {self._now:.6f}"
            )
        entry = [time, _LATE_SEQ_BASE + rank, _PENDING, callback, args]
        _heappush(self._heap, entry)
        return entry

    def _kill_entry(self, entry: list) -> None:
        """Lazily cancel a pending entry.

        The payload slots are left in place — the dead entry surfaces and is
        dropped soon enough (or is swept by :meth:`_compact`), exactly as the
        heap-resident references behaved before the rewrite.
        """
        entry[_STATE] = _CANCELLED
        self._dead += 1
        if self._dead >= _COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without dead entries (amortised by the threshold).

        In place, never rebinding ``self._heap``: the dispatch loop in
        :meth:`run` works on a local alias of it, and compaction can trigger
        from a callback in the middle of that loop.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[_STATE] == _PENDING]
        heapq.heapify(heap)
        self._dead = 0

    # ---------------------------------------------------------------- running
    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    # ----------------------------------------------------------- control tick
    def start_control(self, interval: float, callback: Callable[[], None]) -> None:
        """Arm a periodic *control tick*: ``callback()`` every ``interval``.

        The tick is a first-class background event: it fires from inside the
        dispatch loop (so the callback may safely touch any engine-owned
        object — this is the thread boundary the service layer's per-job
        mailbox relies on), and it re-arms itself until :meth:`stop_control`.
        Because the chain keeps the queue non-empty, consumers that used
        "no pending events" as an idle signal must ask
        :meth:`idle_except_control` instead of :meth:`peek`.

        An exception raised by the callback propagates out of :meth:`run`
        and breaks the chain — that is how a cooperative cancel aborts a
        simulation without touching engine state from another thread.
        """
        if interval <= 0:
            raise SimulationError(f"control interval must be positive, got {interval}")
        if self._control_cb is not None:
            raise SimulationError("a control tick is already armed; stop_control() it first")
        self._control_cb = callback
        self._control_interval = float(interval)
        self._control_entry = self._push(self._now + self._control_interval, self._control_fire, ())

    def stop_control(self) -> None:
        """Disarm the control tick (idempotent)."""
        self._control_cb = None
        entry = self._control_entry
        self._control_entry = None
        if entry is not None and entry[_STATE] == _PENDING:
            self._kill_entry(entry)

    def _control_fire(self) -> None:
        callback = self._control_cb
        if callback is None:
            self._control_entry = None
            return
        callback()
        if self._control_cb is not None:
            self._control_entry = self._push(
                self._now + self._control_interval, self._control_fire, ()
            )

    def idle_except_control(self) -> bool:
        """True when nothing is pending besides the control-tick chain.

        With no control tick armed this is exactly ``peek() is None``; with
        one armed it answers the question ``peek`` can no longer ask ("has
        the simulation itself drained?"), which keeps horizon/early-exit
        decisions byte-identical between hooked and batch runs.
        """
        control = self._control_entry
        for entry in self._heap:
            if entry[_STATE] == _PENDING and entry is not control:
                return False
        return True

    def _pop_next(self) -> Optional[list]:
        """Pop the earliest live entry (``None`` if drained)."""
        heap = self._heap
        while heap:
            entry = _heappop(heap)
            if entry[_STATE] == _PENDING:
                return entry
            self._dead -= 1
        return None

    def peek(self) -> Optional[float]:
        """Return the time of the next pending event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][_STATE] != _PENDING:
            _heappop(heap)
            self._dead -= 1
        return heap[0][_TIME] if heap else None

    def step(self) -> bool:
        """Dispatch the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        """
        entry = self._pop_next()
        if entry is None:
            return False
        self._now = entry[_TIME]
        entry[_STATE] = _DISPATCHED
        self.events_dispatched += 1
        entry[_CALLBACK](*entry[_ARGS])
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the event heap drains, ``until`` is reached, or :meth:`stop`.

        Parameters
        ----------
        until:
            Horizon in simulated seconds.  Events scheduled later than the
            horizon are left on the heap; the clock is advanced to the
            horizon when it is reached.  Resuming with a horizon earlier
            than the current time (for example after a :meth:`stop`) raises
            :class:`SimulationError`.
        max_events:
            Safety valve for tests; abort after this many dispatches.

        Returns
        -------
        float
            The simulated time at which the run ended.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"horizon {until} is before current time {self._now}")
        self._running = True
        self._stopped = False
        # The dispatch loops work on local bindings (the heap, heappop, the
        # budget) and unpack entries by index instead of going through Event
        # attribute lookups.  The entry that overshoots the horizon is pushed
        # back, which trades a rare extra push for never peeking before
        # every pop.
        heap = self._heap
        heappop = _heappop
        dispatched = 0
        try:
            if until is None and max_events is None:
                # Dominant case (drain, no horizon, no budget): tightest loop.
                # Literal entry indices (see the slot layout at module top):
                # global constant lookups are measurable at this call rate.
                while heap and not self._stopped:
                    entry = heappop(heap)
                    if entry[2]:
                        self._dead -= 1
                        continue
                    self._now = entry[0]
                    entry[2] = 2
                    dispatched += 1
                    args = entry[4]
                    if args:
                        entry[3](*args)
                    else:
                        # Plain call: the arg-free case (self-rescheduling
                        # chains, timer ticks) skips the star-unpack path.
                        entry[3]()
            else:
                remaining = -1 if max_events is None else max_events
                while heap and not self._stopped and remaining != 0:
                    entry = heappop(heap)
                    if entry[2]:
                        self._dead -= 1
                        continue
                    event_time = entry[0]
                    if until is not None and event_time > until:
                        _heappush(heap, entry)
                        self._now = until
                        break
                    self._now = event_time
                    entry[2] = 2
                    dispatched += 1
                    remaining -= 1
                    args = entry[4]
                    if args:
                        entry[3](*args)
                    else:
                        entry[3]()
                # Drained, stopped, or out of budget without hitting the
                # horizon: a drained run still reports the horizon time.
                # (After a horizon overshoot ``_now`` already equals
                # ``until``, so this is a no-op on that exit path.)
                if until is not None and not self._stopped and self._now < until and self.peek() is None:
                    self._now = until
        finally:
            self.events_dispatched += dispatched
            self._running = False
        return self._now

    def run_until_idle(self, max_events: Optional[int] = None) -> float:
        """Run until no events remain (convenience wrapper over :meth:`run`)."""
        return self.run(until=None, max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pending = len(self._heap) - self._dead
        return f"<Simulator t={self._now:.6f} pending={pending}>"


class Timer:
    """A restartable one-shot timer bound to a simulator.

    This mirrors how kernel code uses timers: the owner calls
    :meth:`restart` whenever the timeout should be pushed back (for example
    when a TCP ACK advances the window), :meth:`cancel` when the timer is no
    longer needed, and the ``callback`` fires if the timeout expires first.

    Restarts are *coalesced*.  Kernel timer wheels survive a restart per
    packet because modifying a wheel entry is O(1); a binary heap is not so
    lucky, so instead of re-pushing on every restart the timer keeps at most
    one heap entry armed and simply records the latest deadline.  When the
    entry fires early it re-arms itself for the remaining interval.  A
    restart that *shortens* the deadline still has to requeue immediately —
    that is the rare case (TCP only shortens the RTO when the estimator
    collapses, and the CM's background tick never does).
    """

    __slots__ = ("_sim", "_callback", "_args", "_kwargs", "_deadline", "_entry")

    def __init__(self, sim: Simulator, callback: Callable, *args: Any, **kwargs: Any):
        self._sim = sim
        self._callback = callback
        self._args = args
        self._kwargs = kwargs
        #: Absolute expiry time while armed, ``None`` otherwise.
        self._deadline: Optional[float] = None
        #: The heap entry currently scheduled to call :meth:`_fire`.
        self._entry: Optional[list] = None

    @property
    def pending(self) -> bool:
        """True if the timer is armed and has not yet fired."""
        return self._deadline is not None

    #: ``timer.expires_at is None`` is the frame-free spelling of
    #: ``not timer.pending`` for per-packet callers.
    expires_at = property(
        attrgetter("_deadline"),
        doc="Absolute expiry time, or ``None`` when the timer is not armed.")

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now; restarts if already armed."""
        if delay < 0:
            raise SimulationError(f"cannot arm timer {delay} seconds in the past")
        sim = self._sim
        deadline = sim._now + delay
        self._deadline = deadline
        entry = self._entry
        if entry is not None and entry[_STATE] == _PENDING:
            if entry[_TIME] <= deadline:
                # Deadline moved later (or stayed put): keep the armed entry
                # and let _fire re-arm for the remainder.  Zero heap ops.
                return
            # Deadline moved earlier: the armed entry is useless, requeue.
            sim._kill_entry(entry)
        self._entry = sim._push(deadline, self._fire, ())

    # ``restart`` reads better at call sites that are refreshing a timeout.
    restart = start

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        self._deadline = None
        entry = self._entry
        if entry is not None:
            if entry[_STATE] == _PENDING:
                self._sim._kill_entry(entry)
            self._entry = None

    def _fire(self) -> None:
        deadline = self._deadline
        if deadline is None:
            # Cancelled after this entry was already dispatched; nothing to do.
            self._entry = None
            return
        sim = self._sim
        if deadline > sim._now:
            # A coalesced restart moved the deadline past this entry's time;
            # re-arm once for the remaining interval.
            self._entry = sim._push(deadline, self._fire, ())
            return
        self._deadline = None
        self._entry = None
        self._callback(*self._args, **self._kwargs)
