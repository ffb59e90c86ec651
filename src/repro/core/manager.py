"""The Congestion Manager.

:class:`CongestionManager` is the paper's kernel module: it owns the flow
and macroflow tables, runs the congestion controller and scheduler per
macroflow, grants transmission requests, absorbs application feedback
(``cm_update``) and transmission notifications from the IP layer
(``cm_notify``), answers ``cm_query``, and drives the rate-change callbacks
configured with ``cm_thresh``.

The public methods are a faithful rendition of the paper's API (§2.1):

=====================  =====================================================
``cm_open``            associate a (src, dst, ports, protocol) flow with the
                       CM and its per-destination macroflow
``cm_close``           release the flow
``cm_mtu``             MTU towards the destination
``cm_request``         ask for permission to send up to one MTU
``cm_register_send``   register the ``cmapp_send`` grant callback
``cm_register_update`` register the ``cmapp_update`` rate callback
``cm_thresh``          set the rate-change factors that trigger the callback
``cm_update``          report receiver feedback (bytes sent/received, loss
                       mode, RTT sample)
``cm_notify``          report that bytes actually left the host (called from
                       the IP output routine, or by the app when it declines
                       a grant)
``cm_query``           current rate / RTT / loss estimate for the flow
``cm_bulk_request``    batched requests for busy servers (§5)
``cm_split`` /
``cm_merge``           explicit macroflow construction when per-destination
                       aggregation is unsuitable
=====================  =====================================================

All byte quantities in this implementation are application payload bytes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..netsim.engine import Simulator, Timer
from .congestion import AimdWindowController, CongestionController
from .constants import (
    CM_PERSISTENT_CONGESTION,
    GRANT_BATCH_SIZE,
    LOSS_MODES,
    MACROFLOW_IDLE_TIMEOUT,
)
from .errors import FlowClosedError, NotRegisteredError, UnknownFlowError
from .flow import DirectChannel, Flow, NotificationChannel
from .macroflow import Macroflow
from .query import QueryResult
from .scheduler import RoundRobinScheduler, Scheduler

__all__ = ["CongestionManager"]

ControllerFactory = Callable[[int], CongestionController]
SchedulerFactory = Callable[[], Scheduler]


class CongestionManager:
    """Sender-side integrated congestion management.

    Parameters
    ----------
    host:
        The :class:`~repro.netsim.node.Host` this CM is installed on.  The
        CM uses the host's simulator clock, MTU and CPU cost ledger, and the
        host's IP layer calls :meth:`cm_notify` on every transmission
        belonging to a CM flow.
    controller_factory:
        Callable building a congestion controller for a new macroflow; the
        default is the paper's byte-counting AIMD window controller with an
        initial window of one MTU.
    scheduler_factory:
        Callable building the intra-macroflow scheduler; defaults to the
        paper's unweighted round robin.
    macroflow_idle_timeout:
        How long congestion state is retained after a macroflow's last flow
        closes.  Retention is what lets later connections to the same host
        skip slow start (Figure 7).
    grant_batch_size:
        Upper bound on how many grants one scheduler wakeup hands out per
        macroflow in a single batched pass.  Batching amortises the
        per-grant dispatch overhead; the service order is identical to the
        unbatched (``grant_batch_size=1``) loop.
    feedback_watchdog:
        Enable the timer-driven error handling that recovers a macroflow
        whose feedback stopped arriving (e.g. the application's ACK stream
        was lost) by treating the silence as persistent congestion.
    """

    def __init__(
        self,
        host,
        controller_factory: Optional[ControllerFactory] = None,
        scheduler_factory: Optional[SchedulerFactory] = None,
        macroflow_idle_timeout: float = MACROFLOW_IDLE_TIMEOUT,
        feedback_watchdog: bool = True,
        grant_batch_size: int = GRANT_BATCH_SIZE,
    ):
        if grant_batch_size < 1:
            raise ValueError("grant_batch_size must be >= 1")
        self.host = host
        self.sim: Simulator = host.sim
        self.mtu: int = host.mtu
        #: The host's CPU cost facade, or None (a compiled no-op) on hosts
        #: built without CPU accounting.
        self._costs = host.costs
        self.controller_factory = controller_factory or (lambda mtu: AimdWindowController(mtu))
        self.scheduler_factory = scheduler_factory or RoundRobinScheduler
        self.macroflow_idle_timeout = macroflow_idle_timeout
        self.feedback_watchdog_enabled = feedback_watchdog
        self.grant_batch_size = grant_batch_size

        self._flows: Dict[int, Flow] = {}
        self._flows_by_key: Dict[Tuple, int] = {}
        self._macroflows: Dict[int, Macroflow] = {}
        self._macroflows_by_key: Dict = {}
        self._expiry_events: Dict[int, object] = {}

        self._next_flow_id = 1
        self._next_macroflow_id = 1

        # Telemetry (repro.telemetry): the grant probe slot is None (a
        # compiled no-op) until attach_telemetry binds a hub with a
        # subscribed recorder; the hub reference lets macroflows created
        # later inherit the congestion-reaction probe.
        self._telemetry_hub = None
        self._probe_grant = None

        host.attach_cm(self)

    # ====================================================================== #
    # Telemetry                                                              #
    # ====================================================================== #
    def attach_telemetry(self, hub) -> None:
        """Bind CM probes (grant dispatch, congestion reactions) to ``hub``.

        Existing macroflows get the congestion probe immediately; macroflows
        created afterwards inherit it at construction time.
        """
        self._telemetry_hub = hub
        self._probe_grant = hub.probe("cm.grant")
        probe = hub.probe("cm.congestion")
        for macroflow in self._macroflows.values():
            macroflow._probe_congestion = probe

    # ====================================================================== #
    # State management                                                       #
    # ====================================================================== #
    def cm_open(
        self,
        src: str,
        dst: str,
        sport: int = 0,
        dport: int = 0,
        protocol: str = "udp",
        channel: Optional[NotificationChannel] = None,
    ) -> int:
        """Create a CM flow and return its ``cm_flowid`` handle.

        ``src`` must be supplied (the paper added it for multihomed hosts).
        ``channel`` selects how callbacks are delivered; in-kernel clients
        omit it and get direct calls, libcm passes its control socket.
        """
        if not src or not dst:
            raise ValueError("cm_open requires both source and destination addresses")
        self._charge_kernel_op()
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        flow = Flow(
            flow_id=flow_id,
            src=src,
            dst=dst,
            sport=sport,
            dport=dport,
            protocol=protocol,
            channel=channel or DirectChannel(self.sim),
        )
        self._flows[flow_id] = flow
        self._flows_by_key[flow.key] = flow_id
        macroflow = self._macroflow_for_destination(dst)
        macroflow.add_flow(flow)
        self._cancel_expiry(macroflow)
        return flow_id

    def cm_close(self, flow_id: int) -> None:
        """Release a flow; its macroflow's congestion state is retained."""
        flow = self._get_flow(flow_id, allow_closed=True)
        if not flow.is_open:
            return
        self._charge_kernel_op()
        macroflow = flow.macroflow
        flow.close()
        if macroflow is not None:
            macroflow.remove_flow(flow)
            if macroflow.is_empty:
                self._schedule_expiry(macroflow)
            else:
                self._maybe_grant(macroflow)
        self._flows_by_key.pop(flow.key, None)
        self._flows.pop(flow_id, None)

    def cm_mtu(self, flow_id: int) -> int:
        """Maximum transmission unit towards the flow's destination."""
        self._get_flow(flow_id)
        return self.mtu

    # ====================================================================== #
    # Data transmission: request / callback                                  #
    # ====================================================================== #
    def cm_register_send(self, flow_id: int, callback) -> None:
        """Register the ``cmapp_send(flow_id)`` callback for a flow."""
        flow = self._get_flow(flow_id)
        flow.send_callback = callback

    def cm_register_update(self, flow_id: int, callback) -> None:
        """Register the ``cmapp_update(flow_id, status)`` rate callback."""
        flow = self._get_flow(flow_id)
        macroflow = flow.macroflow
        macroflow.update_listeners -= flow.may_receive_updates
        flow.update_callback = callback
        macroflow.update_listeners += flow.may_receive_updates

    def cm_thresh(self, flow_id: int, down: float, up: float) -> None:
        """Set rate-change factors that trigger ``cmapp_update``.

        The callback fires when the CM's rate estimate falls to ``1/down``
        of the last reported value or grows to ``up`` times it.
        """
        if down < 1.0 or up < 1.0:
            raise ValueError("cm_thresh factors must be >= 1.0")
        flow = self._get_flow(flow_id)
        flow.thresh_down = float(down)
        flow.thresh_up = float(up)

    def cm_request(self, flow_id: int, count: int = 1) -> None:
        """Ask for permission to send; each request covers up to one MTU.

        Permission is delivered later through the flow's ``cmapp_send``
        callback when the macroflow window opens and the scheduler selects
        this flow.
        """
        if count < 1:
            raise ValueError("cm_request count must be >= 1")
        flow = self._flows.get(flow_id)
        if flow is None or not flow.is_open:
            flow = self._get_flow(flow_id)  # raises the precise error
        if flow.send_callback is None and flow.channel.requires_send_callback:
            raise NotRegisteredError(
                f"flow {flow_id}: cm_request before cm_register_send"
            )
        costs = self._costs
        if costs is not None:
            costs.charge_operation("cm_kernel_op", 1, "cm")
        macroflow = flow.macroflow
        flow.stats.requests += count
        enqueue = macroflow.scheduler.enqueue
        for _ in range(count):
            enqueue(flow_id)
        self._maybe_grant(macroflow)
        watchdog = macroflow.watchdog
        if watchdog is not None and watchdog.expires_at is None:
            self._arm_watchdog(macroflow)

    def cm_bulk_request(self, flow_ids: Iterable[int]) -> None:
        """Batched ``cm_request`` for many flows in one kernel crossing (§5)."""
        self._charge_kernel_op()
        touched: List[Macroflow] = []
        for flow_id in flow_ids:
            flow = self._get_flow(flow_id)
            if flow.channel.requires_send_callback and flow.send_callback is None:
                raise NotRegisteredError(
                    f"flow {flow_id}: cm_bulk_request before cm_register_send"
                )
            flow.stats.requests += 1
            flow.macroflow.scheduler.enqueue(flow_id)
            if flow.macroflow not in touched:
                touched.append(flow.macroflow)
        for macroflow in touched:
            self._maybe_grant(macroflow)
            self._arm_watchdog(macroflow)

    # ====================================================================== #
    # Application notifications                                              #
    # ====================================================================== #
    def cm_notify(self, flow_id: int, nsent: int) -> None:
        """Report that ``nsent`` payload bytes of this flow left the host.

        Normally invoked from the IP output routine; an application that
        received a grant but decided not to transmit must call this with
        ``nsent=0`` so the CM can pass the grant to another flow on the same
        macroflow.
        """
        if nsent < 0:
            raise ValueError("cm_notify byte count cannot be negative")
        flow = self._flows.get(flow_id)
        if flow is None or not flow.is_open:
            flow = self._get_flow(flow_id)  # raises the precise error
        costs = self._costs
        if costs is not None:
            costs.charge_operation("cm_kernel_op", 1, "cm")
        macroflow = flow.macroflow
        macroflow.charge_transmission(flow, nsent, self.sim.now)
        self._maybe_grant(macroflow)
        watchdog = macroflow.watchdog
        if watchdog is not None and watchdog.expires_at is None:
            self._arm_watchdog(macroflow)

    def cm_update(self, flow_id: int, nsent: int, nrecd: int, lossmode: str, rtt: float) -> None:
        """Report receiver feedback for a flow.

        Parameters
        ----------
        nsent:
            Payload bytes the feedback covers (sent and now resolved —
            either delivered or lost).
        nrecd:
            Payload bytes the receiver confirmed.
        lossmode:
            One of the ``CM_*_CONGESTION`` constants.
        rtt:
            A round-trip time sample in seconds, or 0 when the client has
            no sample for this update.
        """
        if lossmode not in LOSS_MODES:
            raise ValueError(f"unknown loss mode {lossmode!r}")
        if nsent < 0 or nrecd < 0:
            raise ValueError("cm_update byte counts cannot be negative")
        if nrecd > nsent:
            raise ValueError("cm_update cannot report more bytes received than sent")
        flow = self._flows.get(flow_id)
        if flow is None or not flow.is_open:
            flow = self._get_flow(flow_id)  # raises the precise error
        costs = self._costs
        if costs is not None:
            costs.charge_operation("cm_kernel_op", 1, "cm")
        macroflow = flow.macroflow
        macroflow.apply_feedback(flow, nsent, nrecd, lossmode, rtt, self.sim.now)
        self._maybe_grant(macroflow)
        self._dispatch_rate_callbacks(macroflow)
        watchdog = macroflow.watchdog
        if watchdog is not None and watchdog.expires_at is None:
            self._arm_watchdog(macroflow)

    # ====================================================================== #
    # Querying                                                               #
    # ====================================================================== #
    def cm_query(self, flow_id: int) -> QueryResult:
        """Return the CM's current estimate of the flow's path conditions."""
        flow = self._flows.get(flow_id)
        if flow is None or not flow.is_open:
            flow = self._get_flow(flow_id)  # raises the precise error
        costs = self._costs
        if costs is not None:
            costs.charge_operation("cm_kernel_op", 1, "cm")
        return flow.macroflow.status()

    # ====================================================================== #
    # Macroflow construction / splitting                                     #
    # ====================================================================== #
    def macroflow_of(self, flow_id: int) -> Macroflow:
        """The macroflow a flow currently belongs to."""
        return self._get_flow(flow_id).macroflow

    def cm_split(self, flow_id: int) -> Macroflow:
        """Move a flow into a brand-new private macroflow.

        Used when the default per-destination aggregation is wrong for the
        application (e.g. a flow receiving different network-layer service).
        The new macroflow starts with fresh congestion state.
        """
        flow = self._get_flow(flow_id)
        self._charge_kernel_op()
        return self._move_flow(flow, self._new_macroflow(key=None))

    def cm_merge(self, flow_id: int, into_flow_id: int) -> Macroflow:
        """Move ``flow_id`` into the macroflow of ``into_flow_id``."""
        flow = self._get_flow(flow_id)
        target = self._get_flow(into_flow_id)
        if flow.macroflow is target.macroflow:
            return target.macroflow
        self._charge_kernel_op()
        return self._move_flow(flow, target.macroflow)

    def _move_flow(self, flow: Flow, target: Macroflow) -> Macroflow:
        """Move ``flow`` and its pending requests into ``target``.

        Leaving frees the flow's share of the old window and the requests
        join the target's queue, so both sides get a grant pass: nothing
        waits for the feedback watchdog, and no request is lost.
        """
        old = flow.macroflow
        pending = old.scheduler.pending_requests(flow.flow_id)
        old.remove_flow(flow)
        if old.is_empty and old.key is None:
            self._drop_macroflow(old)
        target.add_flow(flow)
        for _ in range(pending):
            target.scheduler.enqueue(flow.flow_id)
        if not old.is_empty:
            self._maybe_grant(old)
        self._maybe_grant(target)
        return target

    # ====================================================================== #
    # Kernel-internal interface                                              #
    # ====================================================================== #
    def lookup_flow(self, src: str, dst: str, sport: int, dport: int, protocol: str) -> Optional[int]:
        """Resolve a packet's addressing tuple to a ``cm_flowid``.

        This is the "well-defined CM interface that takes the flow
        parameters as arguments" the IP output routine uses before calling
        :meth:`cm_notify`.  Wildcard (zero) ports registered at ``cm_open``
        time are honoured, which is what connected vs unconnected UDP
        sockets differ on in the API-overhead study.
        """
        by_key = self._flows_by_key
        flow_id = by_key.get((src, dst, sport, dport, protocol))
        if flow_id is None:
            for key in (
                (src, dst, sport, 0, protocol),
                (src, dst, 0, dport, protocol),
                (src, dst, 0, 0, protocol),
            ):
                flow_id = by_key.get(key)
                if flow_id is not None:
                    break
        return flow_id

    def flow(self, flow_id: int) -> Flow:
        """Return the :class:`Flow` record (primarily for tests/experiments)."""
        return self._get_flow(flow_id)

    @property
    def macroflows(self) -> List[Macroflow]:
        """All live macroflows (including empty ones awaiting expiry)."""
        return list(self._macroflows.values())

    @property
    def open_flow_count(self) -> int:
        """Number of currently open flows."""
        return len(self._flows)

    # ====================================================================== #
    # Internals                                                              #
    # ====================================================================== #
    def _get_flow(self, flow_id: int, allow_closed: bool = False) -> Flow:
        flow = self._flows.get(flow_id)
        if flow is None:
            raise UnknownFlowError(f"unknown cm_flowid {flow_id}")
        if not (flow.is_open or allow_closed):
            raise FlowClosedError(f"cm_flowid {flow_id} is closed")
        return flow

    def _charge_kernel_op(self) -> None:
        if self._costs is not None:
            self._costs.charge_operation("cm_kernel_op", 1, "cm")

    # ------------------------------------------------------------ macroflows
    def _macroflow_for_destination(self, dst: str) -> Macroflow:
        macroflow = self._macroflows_by_key.get(dst)
        if macroflow is None:
            macroflow = self._new_macroflow(key=dst)
            self._macroflows_by_key[dst] = macroflow
        return macroflow

    def _new_macroflow(self, key) -> Macroflow:
        macroflow = Macroflow(
            macroflow_id=self._next_macroflow_id,
            key=key,
            mtu=self.mtu,
            controller=self.controller_factory(self.mtu),
            scheduler=self.scheduler_factory(),
        )
        self._next_macroflow_id += 1
        self._macroflows[macroflow.macroflow_id] = macroflow
        if self.feedback_watchdog_enabled:
            macroflow.watchdog = Timer(self.sim, self._watchdog_fired, macroflow)
        if self._telemetry_hub is not None:
            macroflow._probe_congestion = self._telemetry_hub.probe("cm.congestion")
        return macroflow

    def _drop_macroflow(self, macroflow: Macroflow) -> None:
        self._macroflows.pop(macroflow.macroflow_id, None)
        if macroflow.key is not None and self._macroflows_by_key.get(macroflow.key) is macroflow:
            self._macroflows_by_key.pop(macroflow.key, None)
        if macroflow.watchdog is not None:
            macroflow.watchdog.cancel()
        event = self._expiry_events.pop(macroflow.macroflow_id, None)
        if event is not None and event.pending:
            event.cancel()

    def _schedule_expiry(self, macroflow: Macroflow) -> None:
        self._cancel_expiry(macroflow)
        event = self.sim.schedule(self.macroflow_idle_timeout, self._expire_macroflow, macroflow)
        self._expiry_events[macroflow.macroflow_id] = event

    def _cancel_expiry(self, macroflow: Macroflow) -> None:
        event = self._expiry_events.pop(macroflow.macroflow_id, None)
        if event is not None and event.pending:
            event.cancel()

    def _expire_macroflow(self, macroflow: Macroflow) -> None:
        if macroflow.is_empty:
            self._drop_macroflow(macroflow)

    # --------------------------------------------------------------- granting
    def _maybe_grant(self, macroflow: Macroflow) -> None:
        """Grant pending requests while the macroflow window has room.

        Grants are dispatched in batches of up to ``grant_batch_size``: the
        scheduler pops a whole batch in one call and the bookkeeping for the
        batch is folded into one pass, instead of paying the full
        has-pending / window-check / pop cycle per MTU.  Service order and
        per-grant window semantics are identical to the one-at-a-time loop
        (see ``Scheduler.next_batch`` and ``Macroflow.grant_allowance``);
        with ``grant_batch_size=1`` this *is* the one-at-a-time loop.
        """
        scheduler = macroflow.scheduler
        if not scheduler.has_pending():
            return
        flows = self._flows
        mtu = macroflow.mtu
        batch_cap = self.grant_batch_size
        probe = self._probe_grant
        while True:
            allowance = macroflow.grant_allowance(batch_cap)
            if allowance <= 0:
                break
            batch = scheduler.next_batch(allowance)
            if not batch:
                break
            granted = 0
            for flow_id in batch:
                flow = flows.get(flow_id)
                if flow is None or not flow.is_open or flow.macroflow is not macroflow:
                    # Stale entry (flow closed or moved); it consumes no window.
                    continue
                granted += 1
                flow.granted_unnotified += 1
                flow.stats.grants += 1
                macroflow.reserved_bytes += mtu
                if probe is not None:
                    probe(self.sim.now, {"macroflow": macroflow.macroflow_id, "flow": flow_id})
                # Both channel kinds defer delivery (call_soon / control-socket
                # queue), so posting inside the walk cannot recurse into the
                # grant path or see the rest of the batch's bookkeeping.
                flow.channel.post_send_grant(flow)
            if len(batch) < allowance or granted == allowance < batch_cap:
                # The scheduler ran dry before the window did — or the window
                # is what capped the allowance and every entry consumed its
                # MTU of it, so the next allowance is zero by construction.
                break

    # ------------------------------------------------------- rate callbacks
    def _dispatch_rate_callbacks(self, macroflow: Macroflow) -> None:
        if not macroflow.update_listeners:
            return
        status = None
        for flow in list(macroflow.flows.values()):
            if flow.update_callback is None:
                # User-space flows keep their callbacks in libcm, so the
                # kernel-side record may be empty; the control socket decides
                # whether anyone is listening.
                channel = flow.channel
                if channel.requires_send_callback or not channel.wants_status_updates(flow.flow_id):
                    continue
            if status is None:
                status = macroflow.status()
            rate = status.rate
            last = flow.last_notified_rate
            if (last is None or last <= 0
                    or rate <= last / flow.thresh_down or rate >= last * flow.thresh_up):
                flow.last_notified_rate = rate
                flow.stats.rate_callbacks += 1
                flow.channel.post_status_update(flow, status)

    # --------------------------------------------------------------- watchdog
    def _arm_watchdog(self, macroflow: Macroflow) -> None:
        watchdog = macroflow.watchdog
        # The watchdog checks staleness itself when it fires, so an armed
        # timer is never pushed back per packet.
        if watchdog is not None and not watchdog.pending:
            watchdog.restart(max(4.0 * macroflow.rtt.rto(), 3.0))

    def _watchdog_fired(self, macroflow: Macroflow) -> None:
        """Timer-driven error handling (§2 "background tasks and error handling").

        If a macroflow has data or grants outstanding but no feedback has
        arrived for several RTOs, assume the feedback (or the data) was lost
        to persistent congestion: shrink the window, forget the in-flight
        accounting so the macroflow cannot deadlock, and grant any pending
        requests under the reduced window.
        """
        if macroflow.is_empty:
            return
        stalled = (
            macroflow.outstanding_bytes > 0
            or macroflow.reserved_bytes > 0
            or macroflow.scheduler.has_pending()
        )
        if not stalled:
            return
        idle_for = self.sim.now - (macroflow.last_feedback_time or 0.0)
        if macroflow.last_feedback_time is not None and idle_for < max(4.0 * macroflow.rtt.rto(), 3.0) - 1e-9:
            # Feedback arrived since the timer was armed; just re-arm.
            self._arm_watchdog(macroflow)
            return
        macroflow.controller.on_congestion(CM_PERSISTENT_CONGESTION)
        macroflow.clear_in_flight()
        self._maybe_grant(macroflow)
        self._dispatch_rate_callbacks(macroflow)
        if macroflow.scheduler.has_pending() or macroflow.outstanding_bytes > 0:
            self._arm_watchdog(macroflow)
