"""Tests for the Congestion Manager core: flows, macroflows, API semantics."""

import pytest

from repro import CongestionManager, HostCosts
from repro.core import (
    CM_NO_CONGESTION,
    CM_PERSISTENT_CONGESTION,
    CM_TRANSIENT_CONGESTION,
    FlowClosedError,
    NotRegisteredError,
    UnknownFlowError,
)
from repro.netsim import Host, Simulator

SRC = "10.0.0.1"
DST = "10.0.0.2"
OTHER_DST = "10.0.0.3"


@pytest.fixture
def cm(sim):
    host = Host(sim, "sender", SRC, costs=HostCosts())
    return CongestionManager(host)


def open_flow(cm, dport=80, dst=DST, sport=1000):
    return cm.cm_open(SRC, dst, sport, dport, "tcp")


class TestStateManagement:
    def test_open_returns_increasing_flow_ids(self, cm):
        assert open_flow(cm, 80) != open_flow(cm, 81, sport=1001)

    def test_open_requires_addresses(self, cm):
        with pytest.raises(ValueError):
            cm.cm_open("", DST)
        with pytest.raises(ValueError):
            cm.cm_open(SRC, "")

    def test_flows_to_same_destination_share_macroflow(self, cm):
        f1 = open_flow(cm, 80)
        f2 = open_flow(cm, 81, sport=1001)
        assert cm.macroflow_of(f1) is cm.macroflow_of(f2)

    def test_flows_to_different_destinations_use_different_macroflows(self, cm):
        f1 = open_flow(cm, 80)
        f2 = open_flow(cm, 80, dst=OTHER_DST)
        assert cm.macroflow_of(f1) is not cm.macroflow_of(f2)

    def test_close_retains_macroflow_state_for_reuse(self, cm):
        f1 = open_flow(cm, 80)
        macroflow = cm.macroflow_of(f1)
        macroflow.controller.on_ack(10_000)
        cm.cm_close(f1)
        f2 = open_flow(cm, 81, sport=1001)
        assert cm.macroflow_of(f2) is macroflow

    def test_macroflow_expires_after_idle_timeout(self, sim):
        host = Host(sim, "s", SRC)
        cm = CongestionManager(host, macroflow_idle_timeout=10.0)
        f1 = open_flow(cm, 80)
        old_macroflow = cm.macroflow_of(f1)
        cm.cm_close(f1)
        sim.run(until=11.0)
        f2 = open_flow(cm, 81, sport=1001)
        assert cm.macroflow_of(f2) is not old_macroflow

    def test_unknown_flow_rejected(self, cm):
        with pytest.raises(UnknownFlowError):
            cm.cm_query(999)

    def test_closed_flow_rejected(self, cm):
        fid = open_flow(cm)
        cm.cm_close(fid)
        with pytest.raises(UnknownFlowError):
            cm.cm_request(fid)

    def test_double_close_is_safe(self, cm):
        fid = open_flow(cm)
        cm.cm_close(fid)
        cm.cm_close(fid) if False else None  # second close of an unknown id raises
        with pytest.raises(UnknownFlowError):
            cm.cm_close(fid)

    def test_cm_mtu(self, cm):
        fid = open_flow(cm)
        assert cm.cm_mtu(fid) == cm.host.mtu

    def test_open_flow_count(self, cm):
        open_flow(cm, 80)
        open_flow(cm, 81, sport=1001)
        assert cm.open_flow_count == 2


class TestRequestGrant:
    def test_request_without_callback_rejected(self, cm):
        fid = open_flow(cm)
        with pytest.raises(NotRegisteredError):
            cm.cm_request(fid)

    def test_grant_delivered_via_callback(self, cm, sim):
        fid = open_flow(cm)
        grants = []
        cm.cm_register_send(fid, grants.append)
        cm.cm_request(fid)
        sim.run()
        assert grants == [fid]

    def test_initial_window_grants_only_one_mtu(self, cm, sim):
        fid = open_flow(cm)
        grants = []

        def on_grant(flow_id):
            grants.append(flow_id)
            cm.cm_notify(flow_id, 1448)  # consume the grant with a full segment

        cm.cm_register_send(fid, on_grant)
        cm.cm_request(fid, count=4)
        sim.run(until=0.5)  # well before the feedback watchdog could kick in
        assert len(grants) == 1  # remaining requests wait for feedback

    def test_window_opens_after_feedback(self, cm, sim):
        fid = open_flow(cm)
        grants = []

        def on_grant(flow_id):
            grants.append(flow_id)
            cm.cm_notify(flow_id, 1448)

        cm.cm_register_send(fid, on_grant)
        cm.cm_request(fid, count=3)
        sim.run(until=0.5)
        assert len(grants) == 1
        cm.cm_update(fid, 1448, 1448, CM_NO_CONGESTION, 0.05)
        sim.run(until=1.0)
        assert len(grants) >= 2

    def test_declined_grant_passes_to_other_flow(self, cm, sim):
        f1 = open_flow(cm, 80)
        f2 = open_flow(cm, 81, sport=1001)
        grants = []
        cm.cm_register_send(f1, lambda fid: (grants.append(fid), cm.cm_notify(fid, 0)))
        cm.cm_register_send(f2, lambda fid: (grants.append(fid), cm.cm_notify(fid, 1448)))
        cm.cm_request(f1)
        cm.cm_request(f2)
        sim.run()
        assert grants == [f1, f2]

    def test_round_robin_across_flows(self, cm, sim):
        f1 = open_flow(cm, 80)
        f2 = open_flow(cm, 81, sport=1001)
        grants = []

        def handler(fid):
            grants.append(fid)
            cm.cm_notify(fid, 100)  # small packets keep the window open

        cm.cm_register_send(f1, handler)
        cm.cm_register_send(f2, handler)
        for _ in range(3):
            cm.cm_request(f1)
            cm.cm_request(f2)
        sim.run()
        assert grants[:4] == [f1, f2, f1, f2]

    def test_bulk_request(self, cm, sim):
        f1 = open_flow(cm, 80)
        f2 = open_flow(cm, 81, sport=1001)
        grants = []
        cm.cm_register_send(f1, lambda fid: (grants.append(fid), cm.cm_notify(fid, 100)))
        cm.cm_register_send(f2, lambda fid: (grants.append(fid), cm.cm_notify(fid, 100)))
        cm.cm_bulk_request([f1, f2])
        sim.run()
        assert set(grants) == {f1, f2}

    def test_request_count_validation(self, cm):
        fid = open_flow(cm)
        cm.cm_register_send(fid, lambda f: None)
        with pytest.raises(ValueError):
            cm.cm_request(fid, count=0)


class TestUpdateAndQuery:
    def test_update_grows_window(self, cm):
        fid = open_flow(cm)
        macroflow = cm.macroflow_of(fid)
        cm.cm_notify(fid, 1448)
        before = macroflow.controller.cwnd
        cm.cm_update(fid, 1448, 1448, CM_NO_CONGESTION, 0.05)
        assert macroflow.controller.cwnd > before

    def test_update_with_loss_shrinks_window(self, cm):
        fid = open_flow(cm)
        macroflow = cm.macroflow_of(fid)
        for _ in range(5):
            cm.cm_notify(fid, 1448)
            cm.cm_update(fid, 1448, 1448, CM_NO_CONGESTION, 0.05)
        before = macroflow.controller.cwnd
        cm.cm_update(fid, 1448, 0, CM_TRANSIENT_CONGESTION, 0.0)
        assert macroflow.controller.cwnd < before

    def test_update_validation(self, cm):
        fid = open_flow(cm)
        with pytest.raises(ValueError):
            cm.cm_update(fid, -1, 0, CM_NO_CONGESTION, 0)
        with pytest.raises(ValueError):
            cm.cm_update(fid, 100, 200, CM_NO_CONGESTION, 0)
        with pytest.raises(ValueError):
            cm.cm_update(fid, 100, 100, "weird", 0)

    def test_notify_validation(self, cm):
        fid = open_flow(cm)
        with pytest.raises(ValueError):
            cm.cm_notify(fid, -1)

    def test_query_reflects_shared_rtt(self, cm):
        f1 = open_flow(cm, 80)
        cm.cm_update(f1, 0, 0, CM_NO_CONGESTION, 0.08)
        f2 = open_flow(cm, 81, sport=1001)
        status = cm.cm_query(f2)
        assert status.srtt == pytest.approx(0.08)
        assert status.rate > 0
        assert status.mtu == cm.mtu

    def test_query_result_unit_conversions(self, cm):
        fid = open_flow(cm)
        status = cm.cm_query(fid)
        assert status.bandwidth_bps == pytest.approx(status.rate * 8)
        assert status.rto >= status.srtt

    def test_loss_rate_tracked(self, cm):
        fid = open_flow(cm)
        cm.cm_notify(fid, 1000)
        cm.cm_update(fid, 1000, 500, CM_TRANSIENT_CONGESTION, 0.05)
        assert cm.cm_query(fid).loss_rate > 0


class TestRateCallbacks:
    def test_thresh_validation(self, cm):
        fid = open_flow(cm)
        with pytest.raises(ValueError):
            cm.cm_thresh(fid, 0.5, 2.0)

    def test_update_callback_fires_on_first_feedback(self, cm, sim):
        fid = open_flow(cm)
        updates = []
        cm.cm_register_update(fid, lambda f, status: updates.append(status.rate))
        cm.cm_thresh(fid, 2.0, 2.0)
        cm.cm_update(fid, 0, 0, CM_NO_CONGESTION, 0.05)
        sim.run()
        assert len(updates) == 1

    def test_update_callback_respects_thresholds(self, cm, sim):
        fid = open_flow(cm)
        updates = []
        cm.cm_register_update(fid, lambda f, status: updates.append(status.rate))
        cm.cm_thresh(fid, 4.0, 4.0)
        # First feedback always notifies; subsequent small changes must not.
        cm.cm_notify(fid, 1448)
        cm.cm_update(fid, 1448, 1448, CM_NO_CONGESTION, 0.05)
        sim.run()
        count_after_first = len(updates)
        cm.cm_notify(fid, 1448)
        cm.cm_update(fid, 1448, 1448, CM_NO_CONGESTION, 0.05)
        sim.run()
        assert len(updates) == count_after_first

    def test_update_callback_fires_on_large_drop(self, cm, sim):
        fid = open_flow(cm)
        updates = []
        cm.cm_register_update(fid, lambda f, status: updates.append(status.rate))
        cm.cm_thresh(fid, 1.5, 1.5)
        for _ in range(6):
            cm.cm_notify(fid, 1448)
            cm.cm_update(fid, 1448, 1448, CM_NO_CONGESTION, 0.05)
        sim.run()
        before = len(updates)
        cm.cm_update(fid, 0, 0, CM_PERSISTENT_CONGESTION, 0.0)
        sim.run()
        assert len(updates) > before
        assert updates[-1] < updates[before - 1]


class TestMacroflowConstruction:
    def test_split_creates_private_macroflow(self, cm):
        f1 = open_flow(cm, 80)
        f2 = open_flow(cm, 81, sport=1001)
        new_macroflow = cm.cm_split(f2)
        assert cm.macroflow_of(f1) is not new_macroflow
        assert cm.macroflow_of(f2) is new_macroflow
        assert new_macroflow.key is None

    def test_split_flow_does_not_share_growth(self, cm):
        f1 = open_flow(cm, 80)
        f2 = open_flow(cm, 81, sport=1001)
        cm.cm_split(f2)
        cm.cm_notify(f1, 1448)
        cm.cm_update(f1, 1448, 1448, CM_NO_CONGESTION, 0.05)
        assert cm.macroflow_of(f2).controller.cwnd == cm.mtu

    def test_merge_rejoins_macroflows(self, cm):
        f1 = open_flow(cm, 80)
        f2 = open_flow(cm, 81, sport=1001)
        cm.cm_split(f2)
        merged = cm.cm_merge(f2, f1)
        assert cm.macroflow_of(f2) is merged
        assert cm.macroflow_of(f1) is merged

    def test_merge_same_macroflow_is_noop(self, cm):
        f1 = open_flow(cm, 80)
        f2 = open_flow(cm, 81, sport=1001)
        assert cm.cm_merge(f2, f1) is cm.macroflow_of(f1)

    def test_split_grants_a_waiting_flow_the_window_it_frees(self, sim, cm):
        # A holds the whole 1-MTU window and B waits; splitting A off takes
        # A's bytes out of the old window, so B is granted at once — not
        # when the feedback watchdog fires at t = 3 s, which would also
        # charge the macroflow a persistent-congestion reaction.
        a, b = open_flow(cm, 80), open_flow(cm, 81, sport=1001)
        shared = cm.macroflow_of(a)
        grants = []
        for fid in (a, b):
            cm.cm_register_send(fid, lambda f: grants.append((f, sim.now)))
        cm.cm_request(a)
        sim.run(until=0.01)
        cm.cm_notify(a, cm.mtu)
        cm.cm_request(b)
        sim.run(until=0.02)
        assert [f for f, _ in grants] == [a]
        cm.cm_split(a)
        sim.run(until=10.0)
        assert [(f, t < 0.03) for f, t in grants] == [(a, True), (b, True)]
        assert shared.congestion_reactions == 0

    @pytest.mark.parametrize("move", ["split", "merge"])
    def test_a_moved_flow_keeps_its_pending_request(self, sim, cm, move):
        # B's request is queued behind A's window when B moves: it must be
        # granted in B's new macroflow, not dropped with the old queue.
        a, b, c = (open_flow(cm, 80 + i, sport=1000 + i) for i in range(3))
        if move == "merge":
            cm.cm_split(c)
        grants = []
        for fid in (a, b):
            cm.cm_register_send(fid, grants.append)
        cm.cm_request(a)
        sim.run(until=0.01)
        cm.cm_notify(a, cm.mtu)
        cm.cm_request(b)
        sim.run(until=0.02)
        assert grants == [a]
        if move == "split":
            cm.cm_split(b)
        else:
            cm.cm_merge(b, c)
        sim.run(until=0.03)
        assert grants == [a, b]
        assert cm.flow(b).stats.grants == 1


class TestLookupAndWatchdog:
    def test_lookup_exact_and_wildcard(self, cm):
        fid = cm.cm_open(SRC, DST, 5000, 0, "udp")
        assert cm.lookup_flow(SRC, DST, 5000, 9999, "udp") == fid
        assert cm.lookup_flow(SRC, DST, 1, 2, "udp") is None

    def test_lookup_prefers_exact_match(self, cm):
        wildcard = cm.cm_open(SRC, DST, 0, 0, "udp")
        exact = cm.cm_open(SRC, DST, 5000, 80, "udp")
        assert cm.lookup_flow(SRC, DST, 5000, 80, "udp") == exact
        assert cm.lookup_flow(SRC, DST, 1234, 80, "udp") == wildcard

    def test_watchdog_recovers_stalled_macroflow(self, sim):
        host = Host(sim, "s", SRC)
        cm = CongestionManager(host)
        fid = cm.cm_open(SRC, DST, 1000, 80, "udp")
        grants = []
        cm.cm_register_send(fid, lambda f: grants.append(sim.now))
        # Consume the window with a transmission whose feedback never arrives.
        cm.cm_notify(fid, 1448)
        cm.cm_request(fid)
        sim.run(until=30.0)
        # The watchdog eventually treats the silence as persistent congestion,
        # clears the stuck accounting and grants the pending request.
        assert grants, "pending request should have been granted by the watchdog"
        macroflow = cm.macroflow_of(fid)
        assert macroflow.outstanding_bytes == 0

    def test_watchdog_can_be_disabled(self, sim):
        host = Host(sim, "s", SRC)
        cm = CongestionManager(host, feedback_watchdog=False)
        fid = cm.cm_open(SRC, DST, 1000, 80, "udp")
        grants = []
        cm.cm_register_send(fid, lambda f: grants.append(sim.now))
        cm.cm_notify(fid, 1448)
        cm.cm_request(fid)
        sim.run(until=30.0)
        assert not grants

    def test_kernel_op_costs_charged(self, cm):
        before = cm.host.costs.ledger.operation_counts["cm_kernel_op"]
        fid = open_flow(cm)
        cm.cm_query(fid)
        assert cm.host.costs.ledger.operation_counts["cm_kernel_op"] > before
