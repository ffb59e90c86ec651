"""Equivalence tests for the O(1) CM entry points (``docs/cm_api_path.md``).

Each shortcut on the per-packet path is pinned against the plain walk it
replaced: the schedulers' ``has_pending`` against the summed count, the
rate-callback dispatch against the full walk of the macroflow's flows, and
the feedback tracker's insertion-order resolution against the sorted one.

Round two (the frame-lean TCP/CM segment path) is pinned by what a run leaves
behind: the charges it made and their order, the events it scheduled, the
packet ids it delivered, the random numbers it drew.  The pinned values were
taken at the commit before that rewrite; helper frames may come and go, these
may not move.
"""

import hashlib
import itertools
import random
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_hostmodel import _flat, _hex_state

from repro import CongestionManager, HostCosts
from repro.core import (
    CM_NO_CONGESTION,
    CM_PERSISTENT_CONGESTION,
    CM_TRANSIENT_CONGESTION,
    RoundRobinScheduler,
    WeightedRoundRobinScheduler,
)
from repro.core.flow import DirectChannel
from repro.core.libcm import ControlSocketChannel, LibCM
from repro.hostmodel import CpuLedger
from repro.netsim import Host, Simulator
from repro.scenario import build, get_preset, run_built
from repro.transport.tcp import CMTCPSender, TCPListener
from repro.transport.udp.feedback import AppFeedbackTracker, FeedbackReport

# --------------------------------------------------------------------------- #
# (i) has_pending() is the O(1) form of pending_requests() > 0                 #
# --------------------------------------------------------------------------- #
_FLOW = st.integers(min_value=1, max_value=6)
_SCHEDULER_STEPS = st.lists(st.one_of(
    st.tuples(st.just("enqueue"), _FLOW),
    st.tuples(st.just("enqueue"), _FLOW),
    st.tuples(st.just("next_flow")),
    st.tuples(st.just("next_batch"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("remove_flow"), _FLOW),
    st.tuples(st.just("set_weight"), _FLOW, st.integers(min_value=1, max_value=4)),
), max_size=80)


@pytest.mark.parametrize("factory", [RoundRobinScheduler, WeightedRoundRobinScheduler,
                                     lambda: WeightedRoundRobinScheduler(default_weight=3)])
@settings(max_examples=120, deadline=None)
@given(steps=_SCHEDULER_STEPS)
def test_has_pending_agrees_with_the_summed_count_after_every_step(factory, steps):
    scheduler = factory()
    assert not scheduler.has_pending()
    for name, *args in steps:
        if name == "set_weight" and not hasattr(scheduler, "set_weight"):
            continue
        getattr(scheduler, name)(*args)
        assert scheduler.has_pending() == (scheduler.pending_requests() > 0), (name, args)


# --------------------------------------------------------------------------- #
# (ii) rate-callback dispatch == the full walk                                 #
# --------------------------------------------------------------------------- #
def _full_walk(macroflow):
    """The dispatch as it was: a status per call, every flow visited, pure."""
    status = macroflow.status()
    posts = []
    for flow in list(macroflow.flows.values()):
        if flow.update_callback is None and flow.channel.requires_send_callback:
            continue
        if flow.update_callback is None:
            wants = getattr(flow.channel, "wants_status_updates", None)
            if wants is None or not wants(flow.flow_id):
                continue
        last = flow.last_notified_rate
        if (last is None or last <= 0 or status.rate <= last / flow.thresh_down
                or status.rate >= last * flow.thresh_up):
            posts.append((flow.flow_id, status))
    return posts


class _Bed:
    """A CM whose every rate-callback dispatch is compared with ``_full_walk``."""

    def __init__(self, stack: ExitStack):
        self.sim = Simulator()
        self.host = Host(self.sim, "sender", "10.0.0.1", costs=HostCosts())
        self.cm = CongestionManager(self.host)
        self.libcm = LibCM(self.host)
        self.flows = []
        self.port = itertools.count(1000).__next__
        self.posted = []
        self.dispatches = 0
        self.delivered = []
        for channel in (DirectChannel, ControlSocketChannel):
            stack.enter_context(mock.patch.object(
                channel, "post_status_update", self._recording(channel.post_status_update)))
        real = self.cm._dispatch_rate_callbacks

        def checked(macroflow):
            expected = _full_walk(macroflow)
            del self.posted[:]
            real(macroflow)
            assert self.posted == expected
            self.dispatches += 1

        self.cm._dispatch_rate_callbacks = checked

    def _recording(self, original):
        def post(channel, flow, status):
            self.posted.append((flow.flow_id, status))
            original(channel, flow, status)
        return post

    def on_update(self, flow_id, status):
        self.delivered.append((flow_id, status))

    def check_listener_counts(self):
        for macroflow in self.cm.macroflows:
            assert macroflow.update_listeners == sum(
                flow.may_receive_updates for flow in macroflow.flows.values())

    def pick(self, index):
        return self.flows[index % len(self.flows)] if self.flows else None


_INDEX = st.integers(min_value=0, max_value=30)
_DISPATCH_STEPS = st.lists(st.one_of(
    st.tuples(st.just("open_kernel"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("open_libcm"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("register_kernel"), _INDEX, st.booleans()),
    st.tuples(st.just("register_libcm"), _INDEX),
    st.tuples(st.just("thresh"), _INDEX, st.sampled_from([1.0, 1.25, 2.0])),
    st.tuples(st.just("split"), _INDEX),
    st.tuples(st.just("merge"), _INDEX, _INDEX),
    st.tuples(st.just("close"), _INDEX),
    st.tuples(st.just("update"), _INDEX, st.sampled_from([0, 1448, 5000]),
              st.sampled_from([CM_NO_CONGESTION, CM_TRANSIENT_CONGESTION]),
              st.sampled_from([0.0, 0.02, 0.3])),
    st.tuples(st.just("update"), _INDEX, st.just(1448), st.just(CM_NO_CONGESTION), st.just(0.05)),
    st.tuples(st.just("update"), _INDEX, st.just(1448), st.just(CM_NO_CONGESTION), st.just(0.05)),
), min_size=8, max_size=50)
#: Every history starts from two in-kernel and two libcm flows to one destination.
_PRELUDE = [("open_kernel", 0), ("open_libcm", 0), ("open_kernel", 0), ("open_libcm", 0)]


@settings(max_examples=120, deadline=None)
@given(steps=_DISPATCH_STEPS)
def test_rate_callbacks_equal_the_full_walk_under_churn(steps):
    with ExitStack() as stack:
        bed = _Bed(stack)
        cm, libcm = bed.cm, bed.libcm
        for name, *args in _PRELUDE + steps:
            flow_id = bed.pick(args[0]) if name not in ("open_kernel", "open_libcm") else None
            if name == "open_kernel":
                bed.flows.append(cm.cm_open("10.0.0.1", f"10.0.1.{args[0]}", bed.port(), 80, "tcp"))
            elif name == "open_libcm":
                bed.flows.append(libcm.cm_open("10.0.0.1", f"10.0.1.{args[0]}", bed.port(), 9000))
            elif flow_id is None:
                continue
            elif name == "register_kernel":
                # Also on libcm flows: the kernel record then says "listening"
                # while the library has no callback to deliver to.
                cm.cm_register_update(flow_id, bed.on_update if args[1] else None)
            elif name == "register_libcm":
                if isinstance(cm.flow(flow_id).channel, ControlSocketChannel):
                    libcm.cm_register_update(flow_id, bed.on_update)
            elif name == "thresh":
                cm.cm_thresh(flow_id, args[1], args[1])
            elif name == "split":
                cm.cm_split(flow_id)
            elif name == "merge":
                cm.cm_merge(flow_id, bed.pick(args[1]))
            elif name == "close":
                bed.flows.remove(flow_id)
                if isinstance(cm.flow(flow_id).channel, ControlSocketChannel):
                    libcm.cm_close(flow_id)
                else:
                    cm.cm_close(flow_id)
            elif name == "update":
                _, nsent, lossmode, rtt = args
                nrecd = nsent if lossmode == CM_NO_CONGESTION else 0
                before = bed.dispatches
                cm.cm_update(flow_id, nsent, nrecd, lossmode, rtt)
                assert bed.dispatches == before + 1
                bed.sim.run(until=bed.sim.now + 0.001)  # deliver what was posted
            bed.check_listener_counts()


def test_a_macroflow_nobody_listens_to_builds_no_status(cm_pair, monkeypatch):
    cm = cm_pair.cm
    flows = [cm.cm_open("10.0.0.1", "10.0.0.2", 1000 + i, 80, "tcp") for i in range(8)]
    macroflow = cm.macroflow_of(flows[0])
    assert macroflow.update_listeners == 0
    monkeypatch.setattr(macroflow, "status", lambda: pytest.fail("status built for nobody"))
    for flow_id in flows:
        cm.cm_update(flow_id, 1448, 1448, CM_NO_CONGESTION, 0.05)
    monkeypatch.undo()
    seen = []
    cm.cm_register_update(flows[3], lambda flow_id, status: seen.append((flow_id, status)))
    assert macroflow.update_listeners == 1
    cm.cm_update(flows[0], 1448, 1448, CM_NO_CONGESTION, 0.05)
    cm_pair.sim.run(until=0.001)
    assert seen == [(flows[3], macroflow.status())]
    cm.cm_register_update(flows[3], None)
    assert macroflow.update_listeners == 0


# --------------------------------------------------------------------------- #
# (iii) the feedback tracker resolves in sequence order without sorting        #
# --------------------------------------------------------------------------- #
class _SortedTracker:
    """The tracker as it was: one ``sorted(list(in_flight))`` per acknowledgement."""

    def __init__(self):
        self.in_flight = {}
        self.highest_acked = None
        self.loss_events = 0
        self.sent = self.received = 0

    def on_sent(self, seq, nbytes):
        self.in_flight[seq] = nbytes

    def _report(self, nsent, nrecd, lost, ok, ts_echo, now):
        if lost == 0:
            mode = CM_NO_CONGESTION
        else:
            mode = CM_PERSISTENT_CONGESTION if lost > max(1, ok) else CM_TRANSIENT_CONGESTION
            self.loss_events += 1
        self.sent += nsent
        self.received += nrecd
        rtt = max(0.0, now - ts_echo) if ts_echo is not None else 0.0
        return FeedbackReport(nsent, nrecd, mode, rtt)

    def on_ack(self, ack_seq, ts_echo, now):
        if ack_seq is None or (self.highest_acked is not None and ack_seq <= self.highest_acked):
            return None
        self.highest_acked = ack_seq
        received = lost = lost_packets = received_packets = 0
        for seq in sorted(list(self.in_flight)):
            if seq > ack_seq:
                break
            nbytes = self.in_flight.pop(seq)
            if seq == ack_seq:
                received += nbytes
                received_packets += 1
            else:
                lost += nbytes
                lost_packets += 1
        if received == 0 and lost == 0:
            return None
        return self._report(received + lost, received, lost_packets, received_packets, ts_echo, now)

    def on_cumulative_ack(self, acked_packets, acked_bytes, ts_echo, now, highest_seq=None):
        if acked_packets <= 0:
            return None
        resolved_bytes = resolved_packets = 0
        for seq in sorted(list(self.in_flight)):
            if highest_seq is not None and seq > highest_seq:
                break
            resolved_bytes += self.in_flight.pop(seq)
            resolved_packets += 1
        if resolved_packets == 0:
            return None
        return self._report(resolved_bytes, min(acked_bytes, resolved_bytes),
                            max(0, resolved_packets - acked_packets), acked_packets, ts_echo, now)


_SEQ = st.integers(min_value=0, max_value=40)
_TRACKER_STEPS = st.lists(st.one_of(
    st.tuples(st.just("on_sent"), _SEQ, st.sampled_from([100, 1000, 1400])),
    st.tuples(st.just("next"), st.sampled_from([100, 1400])),
    st.tuples(st.just("next"), st.sampled_from([100, 1400])),
    st.tuples(st.just("on_ack"), st.one_of(st.none(), _SEQ), st.sampled_from([None, 0.5])),
    st.tuples(st.just("on_cumulative_ack"), st.integers(min_value=0, max_value=6),
              st.sampled_from([0, 1400, 9000]), st.sampled_from([None, 0.5]),
              st.one_of(st.none(), _SEQ)),
), max_size=80)


@settings(max_examples=200, deadline=None)
@given(steps=_TRACKER_STEPS)
def test_tracker_reports_equal_the_sorted_reference(steps):
    """In-order (``next``), out-of-order and duplicate-``seq`` send histories."""
    tracker, reference = AppFeedbackTracker(), _SortedTracker()
    next_seq = 0
    for name, *args in steps:
        if name == "next":
            args, name = [next_seq, args[0]], "on_sent"
        if name == "on_sent":
            next_seq = max(next_seq, args[0] + 1)
            tracker.on_sent(*args)
            reference.on_sent(*args)
            continue
        if name == "on_ack":
            args = [args[0], args[1], 1.0]
        else:
            args = [args[0], args[1], args[2], 1.0, args[3]]
        assert getattr(tracker, name)(*args) == getattr(reference, name)(*args), (name, args)
        assert tracker.in_flight_packets == len(reference.in_flight)
        assert sorted(tracker._in_flight.items()) == sorted(reference.in_flight.items())
    assert tracker.loss_events == reference.loss_events
    assert (tracker.bytes_reported_sent, tracker.bytes_reported_received) == (
        reference.sent, reference.received)


# --------------------------------------------------------------------------- #
# (iv) the segment path: same charges, same events, same random draws          #
# --------------------------------------------------------------------------- #
def _digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


class _LoggedCosts(HostCosts):
    """A host ledger that also lists, in order, every charge it was asked for."""

    def __init__(self, who, log):
        super().__init__()
        self._who, self._log = who, log

    def charge_operation(self, operation, count=1, category=None):
        self._log.append((self._who, "charge_operation", operation, count, category))
        return super().charge_operation(operation, count, category)

    def kernel_tx(self, nbytes):
        self._log.append((self._who, "kernel_tx", nbytes))
        return super().kernel_tx(nbytes)

    def kernel_rx(self, nbytes):
        self._log.append((self._who, "kernel_rx", nbytes))
        return super().kernel_rx(nbytes)


def _lossy_tcp_cm_transfer(make_pair):
    """300 kB of TCP/CM over a 5 %-loss link, every host charge logged."""
    pair = make_pair(with_cm=False, loss_rate=0.05, one_way_delay=0.01, seed=6)
    log = []
    for host in (pair.sender, pair.receiver):
        host.costs = host.ip._costs = _LoggedCosts(host.name, log)
    cm = CongestionManager(pair.sender)
    listener = TCPListener(pair.receiver, 80)
    sender = CMTCPSender(pair.sender, pair.receiver.addr, 80)
    sender.send(300_000)
    pair.sim.run(until=120.0)
    assert sender.done and listener.total_bytes_received == 300_000
    # Fast retransmit, go-back-N after a timeout and declined grants are all
    # on the path being pinned.
    assert sender.fast_retransmits and sender.timeouts and sender.declined_grants
    return pair, cm, sender, log


def test_tcp_cm_charges_are_the_same_and_in_the_same_order(make_pair):
    """*Same charges, same order.*  The log is the parent commit's, call for
    call — ``_current_rto``'s ``cm_query`` included: it is a priced kernel
    operation and may be inlined, never cached or skipped — and replaying it
    through a flat ledger, one addition at a time, gives the very floats the
    hosts accumulated."""
    pair, _cm, sender, log = _lossy_tcp_cm_transfer(make_pair)
    assert (len(log), _digest(log)) == (1329, "8d4b3d3d1a0a6272")
    reference = {"sender": CpuLedger(), "receiver": CpuLedger()}
    model = pair.sender.costs.model
    for who, *step in log:
        charges, counts = _flat(model, tuple(step))
        for category, microseconds in charges:
            reference[who].charge(category, microseconds)
        for operation, times in counts:
            reference[who].count(operation, times)
    for host in (pair.sender, pair.receiver):
        assert _hex_state(host.costs.ledger) == _hex_state(reference[host.name])
    assert pair.sender.costs.total_us.hex() == "0x1.8237cccccccb6p+12"
    assert pair.receiver.costs.total_us.hex() == "0x1.5c60cccccccdbp+12"
    kernel_ops = sum(1 for entry in log if entry[2:] == ("cm_kernel_op", 1, "cm"))
    assert kernel_ops == 645
    assert (sender.data_packets_sent, sender.retransmissions, sender.timeouts) == (218, 9, 1)


def test_tcp_cm_draws_the_same_random_numbers(make_pair):
    """*Same RNG draws.*  One ``Link.send`` more or fewer on a lossy link and
    every later loss decision of the run moves.  The loss-free reverse link
    never draws, so it never builds a generator; one seeded from its seed is
    still the state it carried when every link built one up front."""
    pair, _cm, _sender, _log = _lossy_tcp_cm_transfer(make_pair)
    forward, reverse = pair.channel.forward, pair.channel.reverse
    assert _digest(forward._rng.getstate()) == "fbfd7b488e40926f"
    assert reverse._rng is None
    assert _digest(random.Random(reverse._seed).getstate()) == "5c34476fb0dd61fc"
    stats = pair.channel.forward.stats
    assert (stats.enqueued_packets, stats.dropped_random) == (209, 10)


def _event_order(preset: str, until: float):
    """What the engine did, and which packet ids each link delivered, in order."""
    spec = get_preset(preset)
    spec.stop.until = until
    scenario = build(spec, seed=spec.seed)
    delivered = []
    for _index, name, link in scenario.directed_links():
        def tap(packet, name=name, receive=link._receiver):
            delivered.append((name, packet.packet_id))
            receive(packet)
        link.attach(tap)
    run_built(scenario)
    sim = scenario.sim
    return sim.events_dispatched, sim._seq, len(delivered), _digest(delivered)


@pytest.mark.parametrize("preset, until, expected", [
    ("bulk_macroflow_sharing", 10.0, (10290, 11601, 3806, "aadd3b51063fb8b0")),
    ("dumbbell_bulk", 10.0, (30873, 32264, 4572, "8ae394d8dcd405db")),
])
def test_the_engine_sees_the_same_events_in_the_same_order(preset, until, expected):
    """*Same events, same order.*  Same-time events dispatch in scheduling
    order, so one ``call_soon`` or ``_push`` moved is a different run: the
    dispatch count, the number of events ever scheduled and the id of every
    delivered packet, link by link, are the parent commit's."""
    assert _event_order(preset, until) == expected


# --------------------------------------------------------------------------- #
# (v) the one-walk grant loop == the seed's one-grant-at-a-time loop           #
# --------------------------------------------------------------------------- #
def _grant_state(grant, cwnd_mtus, batch_size, entries, committed_mtus, closed):
    """Run one grant pass over a prepared macroflow; return everything it left."""
    sim = Simulator()
    host = Host(sim, "host", "10.0.0.1", costs=HostCosts())
    cm = CongestionManager(host, grant_batch_size=batch_size, feedback_watchdog=False)
    log = []
    flow_ids = []
    for index in range(4):
        flow_id = cm.cm_open("10.0.0.1", "10.0.0.2", 20_000 + index, 80, "tcp")
        cm.cm_register_send(flow_id, log.append)
        flow_ids.append(flow_id)
    macroflow = cm.macroflow_of(flow_ids[0])
    if closed is not None:  # a flow that moved away, with entries left behind
        cm.cm_split(flow_ids[closed])
    macroflow.controller._cwnd = cwnd_mtus * cm.mtu
    macroflow.outstanding_bytes = committed_mtus * cm.mtu
    for entry in entries:  # 0..3: a flow; 4: an id nobody holds
        if entry != closed:
            macroflow.scheduler.enqueue(flow_ids[entry] if entry < 4 else 999)
    for entry in entries:  # the moved flow's stale entries queue last
        if entry == closed:
            macroflow.scheduler.enqueue(flow_ids[closed])
    grant(cm, macroflow)
    sim.run()
    flows = [(cm.flow(f).granted_unnotified, cm.flow(f).stats.grants) for f in flow_ids]
    return log, macroflow.reserved_bytes, macroflow.scheduler.pending_requests(), flows


@settings(max_examples=300, deadline=None)
@given(
    cwnd_mtus=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.75, 8.0, 40.0]),
    batch_size=st.sampled_from([1, 2, 3, 8, 32]),
    entries=st.lists(st.integers(min_value=0, max_value=4), max_size=24),
    committed_mtus=st.sampled_from([0.0, 0.5, 1.0, 2.5, 6.0]),
    closed=st.sampled_from([None, None, 0, 2]),
)
def test_one_walk_grant_loop_equals_the_seed_loop(cwnd_mtus, batch_size, entries,
                                                   committed_mtus, closed):
    from grant_oracle import unbatched_maybe_grant

    args = (cwnd_mtus, batch_size, entries, committed_mtus, closed)
    assert (_grant_state(CongestionManager._maybe_grant, *args)
            == _grant_state(unbatched_maybe_grant, *args))
