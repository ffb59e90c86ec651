"""libcm: the user-space Congestion Manager library.

User-space applications do not call into the kernel CM directly.  They link
against *libcm*, which

* wraps every ``cm_*`` call in the appropriate system call / ioctl on a
  single per-application **control socket** (charged to the host CPU
  ledger, since these crossings are exactly what the paper's API-overhead
  study measures), and
* turns kernel-side events (send grants, network-status changes) into the
  application's registered ``cmapp_send`` / ``cmapp_update`` callbacks.

The kernel/user interface mirrors the paper's §2.2 design:

1. the application ``select()``\\ s on the control socket — the write bit
   means "some flow may send", the exception bit means "network conditions
   changed";
2. an ``ioctl`` then extracts *all* currently sendable flow IDs (one
   crossing no matter how many flows became ready — the batching argument
   of §2.2.2), or the latest status for a flow (older statuses are
   discarded, again per §2.2.2: "only the current status matters").

Three application event-loop integrations are modelled via ``mode``:
``"select"`` (the default: the app's own select loop includes the control
socket), ``"sigio"`` (the app asked for SIGIO delivery, which costs a signal
per wakeup), and ``"poll"`` (the app checks explicitly from its own timer
loop by calling :meth:`LibCM.poll`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .flow import Flow, NotificationChannel
from .query import QueryResult

__all__ = ["LibCM", "ControlSocketChannel"]


class ControlSocketChannel(NotificationChannel):
    """The kernel side of a libcm control socket.

    The CM posts events here; libcm drains them from the application's
    context.  User-space flows keep their callbacks inside libcm, so the
    kernel does not require a send callback on the flow record.
    """

    requires_send_callback = False

    def __init__(self, libcm: "LibCM"):
        self._libcm = libcm

    def post_send_grant(self, flow: Flow) -> None:
        self._libcm._kernel_post_send_grant(flow.flow_id)

    def post_status_update(self, flow: Flow, status: QueryResult) -> None:
        self._libcm._kernel_post_status(flow.flow_id, status)

    def wants_status_updates(self, flow_id: int) -> bool:
        """The CM asks this before generating rate callbacks for the flow."""
        return flow_id in self._libcm._update_callbacks


class LibCM:
    """Per-application user-space CM library instance.

    Parameters
    ----------
    host:
        The host the application runs on; supplies the kernel CM
        (``host.cm``), the CPU cost ledger and the simulator clock.
    mode:
        Event-loop integration: ``"select"``, ``"sigio"`` or ``"poll"``.
    wakeup_latency:
        Simulated delay between the kernel posting an event and the
        application's event loop getting around to servicing it (scheduler
        latency).  Kept small but non-zero so callback dispatch never
        happens "inside" the kernel event that produced it.
    """

    def __init__(self, host, mode: str = "select", wakeup_latency: float = 50e-6):
        if host.cm is None:
            raise RuntimeError("host has no Congestion Manager attached")
        if mode not in ("select", "sigio", "poll"):
            raise ValueError(f"unknown libcm mode {mode!r}")
        self.host = host
        self.cm = host.cm
        self.sim = host.sim
        self.costs = host.costs
        self.mode = mode
        self.wakeup_latency = wakeup_latency

        self._channel = ControlSocketChannel(self)
        self._send_callbacks: Dict[int, Callable[[int], None]] = {}
        self._update_callbacks: Dict[int, Callable[[int, QueryResult], None]] = {}
        #: Flows with undelivered send grants (flow id -> number of grants).
        self._sendable: Dict[int, int] = {}
        #: Latest undelivered status per flow (older ones are overwritten).
        self._pending_status: Dict[int, QueryResult] = {}
        self._dispatch_scheduled = False

        # Instrumentation used by the API-overhead experiments.
        self.stats = {
            "selects": 0,
            "ioctls": 0,
            "signals": 0,
            "dispatches": 0,
            "send_callbacks": 0,
            "update_callbacks": 0,
        }

    # ====================================================================== #
    # User-side API wrappers (each charges its kernel crossing)              #
    # ====================================================================== #
    def cm_open(self, src: str, dst: str, sport: int = 0, dport: int = 0, protocol: str = "udp") -> int:
        """Open a CM flow on behalf of the application."""
        self._charge_syscall("send_call")
        return self.cm.cm_open(src, dst, sport, dport, protocol, channel=self._channel)

    def cm_close(self, flow_id: int) -> None:
        """Close the flow and forget its callbacks.

        Undelivered send grants are returned to the kernel with
        ``cm_notify(flow_id, 0)`` *before* the flow is closed — the same
        decline path :meth:`_drain` uses for unregistered callbacks —
        so the macroflow window they reserve is handed to sibling flows
        instead of being silently dropped along with the queue entry.
        """
        self._charge_syscall("send_call")
        self._send_callbacks.pop(flow_id, None)
        self._update_callbacks.pop(flow_id, None)
        self._pending_status.pop(flow_id, None)
        grants = self._sendable.pop(flow_id, 0)
        while grants:
            for _ in range(grants):
                self.cm.cm_notify(flow_id, 0)
            # Returning window can re-grant this same flow from requests it
            # still has queued; keep returning until the kernel stops.
            grants = self._sendable.pop(flow_id, 0)
        self.cm.cm_close(flow_id)

    def cm_mtu(self, flow_id: int) -> int:
        """MTU towards the flow's destination."""
        self._charge_ioctl()
        return self.cm.cm_mtu(flow_id)

    def cm_register_send(self, flow_id: int, callback: Callable[[int], None]) -> None:
        """Register the application's ``cmapp_send``; purely a library operation."""
        self._send_callbacks[flow_id] = callback

    def cm_register_update(self, flow_id: int, callback: Callable[[int, QueryResult], None]) -> None:
        """Register the application's ``cmapp_update``; purely a library operation."""
        self._update_callbacks[flow_id] = callback

    def cm_thresh(self, flow_id: int, down: float, up: float) -> None:
        """Set the rate-change notification thresholds."""
        self._charge_ioctl()
        self.cm.cm_thresh(flow_id, down, up)

    def cm_request(self, flow_id: int) -> None:
        """Request permission to send up to one MTU on the flow."""
        if flow_id not in self._send_callbacks:
            # Mirror the kernel's own check for in-kernel clients: granting
            # would have nowhere to go.
            raise LookupError(f"flow {flow_id}: cm_request before cm_register_send")
        self._charge_ioctl()
        self.cm.cm_request(flow_id)

    def cm_bulk_request(self, flow_ids) -> None:
        """Request permission for many flows with a single kernel crossing."""
        flow_ids = list(flow_ids)
        for flow_id in flow_ids:
            if flow_id not in self._send_callbacks:
                raise LookupError(f"flow {flow_id}: cm_bulk_request before cm_register_send")
        self._charge_ioctl()
        self.cm.cm_bulk_request(flow_ids)

    def cm_update(self, flow_id: int, nsent: int, nrecd: int, lossmode: str, rtt: float) -> None:
        """Report receiver feedback on behalf of the application."""
        self._charge_ioctl()
        self.cm.cm_update(flow_id, nsent, nrecd, lossmode, rtt)

    def cm_notify(self, flow_id: int, nsent: int) -> None:
        """Explicit transmission notification (unconnected sockets / declined grants)."""
        self._charge_ioctl()
        self.cm.cm_notify(flow_id, nsent)

    def cm_query(self, flow_id: int) -> QueryResult:
        """Ask the kernel for the flow's current rate / RTT / loss estimate."""
        self._charge_ioctl()
        return self.cm.cm_query(flow_id)

    # ====================================================================== #
    # Kernel-side event posting                                              #
    # ====================================================================== #
    def _kernel_post_send_grant(self, flow_id: int) -> None:
        self._sendable[flow_id] = self._sendable.get(flow_id, 0) + 1
        self._wakeup()

    def _kernel_post_status(self, flow_id: int, status: QueryResult) -> None:
        # Only the most recent status matters (§2.2.2); overwrite any older one.
        self._pending_status[flow_id] = status
        self._wakeup()

    def has_update_callback(self, flow_id: int) -> bool:
        """Whether the application registered a rate callback for this flow."""
        return flow_id in self._update_callbacks

    def _wakeup(self) -> None:
        if self.mode == "poll":
            # Polling applications drain events on their own schedule.
            return
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True
        self.sim.schedule(self.wakeup_latency, self._dispatch_from_event_loop)

    # ====================================================================== #
    # Event delivery into the application                                    #
    # ====================================================================== #
    def _dispatch_from_event_loop(self) -> None:
        self._dispatch_scheduled = False
        if self.mode == "sigio":
            self._charge("signal_delivery")
            self.stats["signals"] += 1
        # The application's select() returns with the control socket ready.
        self._charge("select_call")
        self.stats["selects"] += 1
        self._drain()

    def poll(self) -> int:
        """Explicit non-blocking check used by polling / rate-clocked applications.

        Performs the select-style readiness test on the control socket and
        drains any pending events.  Returns the number of callbacks
        delivered.
        """
        self._charge("select_call")
        self.stats["selects"] += 1
        return self._drain()

    def _drain(self) -> int:
        delivered = 0
        stats = self.stats
        costs = self.costs
        stats["dispatches"] += 1
        if self._sendable:
            # One ioctl returns the full list of sendable flows, however many
            # became ready — this is the batching §2.2.2 argues for.
            self._charge_ioctl()
            ready, self._sendable = self._sendable, {}
            for flow_id, grants in ready.items():
                callback = self._send_callbacks.get(flow_id)
                if callback is None:
                    # The application never registered; return the grants so
                    # other flows on the macroflow are not starved.
                    for _ in range(grants):
                        self.cm.cm_notify(flow_id, 0)
                    continue
                for _ in range(grants):
                    if costs is not None:
                        costs.charge_operation("libcm_dispatch", 1, "libcm")
                    stats["send_callbacks"] += 1
                    callback(flow_id)
                    delivered += 1
        if self._pending_status:
            self._charge_ioctl()
            statuses, self._pending_status = self._pending_status, {}
            for flow_id, status in statuses.items():
                callback = self._update_callbacks.get(flow_id)
                if callback is None:
                    continue
                if costs is not None:
                    costs.charge_operation("libcm_dispatch", 1, "libcm")
                stats["update_callbacks"] += 1
                callback(flow_id, status)
                delivered += 1
        return delivered

    # ====================================================================== #
    # Cost accounting helpers                                                #
    # ====================================================================== #
    def _charge(self, operation: str) -> None:
        if self.costs is not None:
            self.costs.charge_operation(operation, 1, "libcm")

    def _charge_ioctl(self) -> None:
        if self.costs is not None:
            self.costs.syscall("ioctl", "libcm")
        self.stats["ioctls"] += 1

    def _charge_syscall(self, flavour: str) -> None:
        if self.costs is not None:
            self.costs.syscall(flavour, "libcm")
