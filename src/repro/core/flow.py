"""Per-flow state and callback delivery channels.

A :class:`Flow` is the CM's view of one client stream (identified by the
usual 5-tuple).  Flows carry no congestion state of their own — that lives
in the :class:`~repro.core.macroflow.Macroflow` they belong to — but they do
record the client's registered callbacks, rate-change thresholds and
bookkeeping counters.

Callback delivery is abstracted behind a *notification channel* so the same
CM code serves both kinds of client the paper describes:

* in-kernel clients (TCP/CM, CM-UDP sockets) get direct function calls
  (:class:`DirectChannel`);
* user-space clients get their notifications posted to a libcm control
  socket (:class:`repro.core.libcm.LibCM` provides that channel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from .query import QueryResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .macroflow import Macroflow

__all__ = ["Flow", "FlowStats", "NotificationChannel", "DirectChannel"]

#: Signature of a send-grant callback: ``cmapp_send(flow_id)``.
SendCallback = Callable[[int], None]
#: Signature of a rate-change callback: ``cmapp_update(flow_id, status)``.
UpdateCallback = Callable[[int, QueryResult], None]


class NotificationChannel:
    """How the CM delivers callbacks to a particular client."""

    #: Whether ``cm_request`` requires a send callback registered directly
    #: with the kernel (true for in-kernel clients; user-space clients keep
    #: their callbacks inside libcm instead).
    requires_send_callback = True

    def post_send_grant(self, flow: "Flow") -> None:
        """Deliver permission for ``flow`` to send up to one MTU."""
        raise NotImplementedError

    def post_status_update(self, flow: "Flow", status: QueryResult) -> None:
        """Deliver a network-conditions-changed notification for ``flow``."""
        raise NotImplementedError

    def wants_status_updates(self, flow_id: int) -> bool:
        """Whether a client keeping its callbacks outside the kernel flow
        record is listening for rate callbacks on ``flow_id`` right now."""
        return False


class DirectChannel(NotificationChannel):
    """Same-address-space callbacks for in-kernel clients.

    Callbacks are dispatched through the simulator's "call soon" queue
    rather than invoked inline, which mirrors how the kernel defers the
    client's send routine out of the CM's own critical section and avoids
    unbounded recursion (grant -> send -> notify -> grant -> ...).
    """

    requires_send_callback = True

    def __init__(self, sim):
        self._sim = sim

    def post_send_grant(self, flow: "Flow") -> None:
        if flow.send_callback is None:
            return
        self._sim.call_soon(flow.send_callback, flow.flow_id)

    def post_status_update(self, flow: "Flow", status: QueryResult) -> None:
        if flow.update_callback is None:
            return
        self._sim.call_soon(flow.update_callback, flow.flow_id, status)


@dataclass
class FlowStats:
    """Counters the CM keeps per flow (read by tests and experiments)."""

    requests: int = 0
    grants: int = 0
    updates: int = 0
    notifies: int = 0
    bytes_sent: int = 0
    bytes_acked: int = 0
    rate_callbacks: int = 0


class Flow:
    """One CM client stream.

    Instances are created by :meth:`repro.core.manager.CongestionManager.cm_open`
    and referenced everywhere else by their integer ``flow_id`` handle, just
    like the paper's ``cm_flowid``.
    """

    STATE_OPEN = "open"
    STATE_CLOSED = "closed"

    def __init__(
        self,
        flow_id: int,
        src: str,
        dst: str,
        sport: int,
        dport: int,
        protocol: str,
        channel: NotificationChannel,
    ):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.protocol = protocol
        self.channel = channel
        #: True until ``cm_close`` is called for this flow.
        self.is_open = True
        self.macroflow: Optional["Macroflow"] = None

        self.send_callback: Optional[SendCallback] = None
        self.update_callback: Optional[UpdateCallback] = None
        #: Rate-change notification thresholds set via ``cm_thresh``; the
        #: callback fires when the rate falls by ``thresh_down`` or grows by
        #: ``thresh_up`` relative to the last value reported to the client.
        self.thresh_down: float = 1.25
        self.thresh_up: float = 1.25
        self.last_notified_rate: Optional[float] = None

        #: Grants issued to this flow that have not yet been matched by a
        #: ``cm_notify`` (either a transmission or an explicit decline).
        self.granted_unnotified: int = 0
        #: Bytes this flow has in flight according to notify/update accounting.
        self.outstanding_bytes: int = 0
        self.stats = FlowStats()

    # ------------------------------------------------------------------ state
    @property
    def state(self) -> str:
        """``"open"`` until ``cm_close`` is called for this flow, then ``"closed"``."""
        return self.STATE_OPEN if self.is_open else self.STATE_CLOSED

    @property
    def may_receive_updates(self) -> bool:
        """Whether a rate callback could be owed to this flow: ``cmapp_update``
        is registered with the kernel, or the client is in user space and its
        channel is asked on every update."""
        return self.update_callback is not None or not self.channel.requires_send_callback

    @property
    def key(self) -> tuple:
        """The (src, dst, sport, dport, protocol) tuple identifying the flow."""
        return (self.src, self.dst, self.sport, self.dport, self.protocol)

    def close(self) -> None:
        """Mark the flow closed; the manager handles all detachment."""
        self.is_open = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Flow {self.flow_id} {self.protocol} {self.src}:{self.sport}->"
            f"{self.dst}:{self.dport} {self.state}>"
        )
