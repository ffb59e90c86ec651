"""Tests for libcm: the user-space CM library and its control-socket dispatch."""

import pytest

from repro import CongestionManager, HostCosts, LibCM
from repro.core import CM_NO_CONGESTION
from repro.netsim import Host

SRC = "10.0.0.1"
DST = "10.0.0.2"


@pytest.fixture
def host(sim):
    host = Host(sim, "app-host", SRC, costs=HostCosts())
    CongestionManager(host)
    return host


@pytest.fixture
def libcm(host):
    return LibCM(host)


class TestSetupAndValidation:
    def test_requires_cm_on_host(self, sim):
        bare = Host(sim, "bare", "10.0.0.9")
        with pytest.raises(RuntimeError):
            LibCM(bare)

    def test_unknown_mode_rejected(self, host):
        with pytest.raises(ValueError):
            LibCM(host, mode="interrupts")

    def test_request_before_register_rejected(self, libcm):
        fid = libcm.cm_open(SRC, DST, 1000, 80)
        with pytest.raises(LookupError):
            libcm.cm_request(fid)

    def test_cm_mtu_passthrough(self, libcm, host):
        fid = libcm.cm_open(SRC, DST, 1000, 80)
        assert libcm.cm_mtu(fid) == host.mtu


class TestDispatch:
    def test_send_grant_delivered_through_control_socket(self, libcm, sim):
        fid = libcm.cm_open(SRC, DST, 1000, 80)
        grants = []
        libcm.cm_register_send(fid, grants.append)
        libcm.cm_request(fid)
        sim.run()
        assert grants == [fid]
        assert libcm.stats["selects"] >= 1
        assert libcm.stats["ioctls"] >= 1

    def test_batched_grants_use_single_ioctl(self, libcm, sim, host):
        # Two flows to different destinations become ready at the same time;
        # the library must fetch both with one ioctl (the batching argument
        # of paper §2.2.2).
        f1 = libcm.cm_open(SRC, DST, 1000, 80)
        f2 = libcm.cm_open(SRC, "10.0.0.3", 1001, 80)
        grants = []
        libcm.cm_register_send(f1, grants.append)
        libcm.cm_register_send(f2, grants.append)
        ioctls_before = libcm.stats["ioctls"]
        libcm.cm_bulk_request([f1, f2])
        sim.run()
        assert sorted(grants) == sorted([f1, f2])
        # one ioctl for the bulk request plus one to drain both grants
        assert libcm.stats["ioctls"] - ioctls_before == 2

    def test_status_update_delivered(self, libcm, sim):
        fid = libcm.cm_open(SRC, DST, 1000, 80)
        updates = []
        libcm.cm_register_update(fid, lambda f, status: updates.append(status))
        libcm.cm_thresh(fid, 1.5, 1.5)
        libcm.cm_update(fid, 0, 0, CM_NO_CONGESTION, 0.05)
        sim.run()
        assert len(updates) == 1
        assert updates[0].srtt == pytest.approx(0.05)

    def test_only_latest_status_survives_coalescing(self, libcm, sim, host):
        fid = libcm.cm_open(SRC, DST, 1000, 80)
        updates = []
        libcm.cm_register_update(fid, lambda f, status: updates.append(status.cwnd_bytes))
        libcm.cm_thresh(fid, 1.0001, 1.0001)
        # Generate several status changes before the app's event loop runs.
        for _ in range(3):
            libcm.cm_notify(fid, 1448)
            libcm.cm_update(fid, 1448, 1448, CM_NO_CONGESTION, 0.05)
        sim.run()
        # The app sees the *current* state (possibly after one coalesced
        # dispatch), not a backlog of three historical snapshots per change.
        assert len(updates) <= 3
        assert updates[-1] == pytest.approx(host.cm.cm_query(fid).cwnd_bytes)

    def test_unregistered_send_callback_declines_grant(self, libcm, sim, host):
        fid = libcm.cm_open(SRC, DST, 1000, 80)
        # Bypass the library guard by requesting through the kernel directly,
        # as a buggy application might.
        host.cm.cm_request(fid)
        sim.run()
        macroflow = host.cm.macroflow_of(fid)
        assert macroflow.reserved_bytes == 0  # grant was returned via cm_notify(0)
        # ... as zero bytes: nothing counts as sent or outstanding.
        assert macroflow.outstanding_bytes == 0 and macroflow.bytes_sent_total == 0

    def test_poll_mode_requires_explicit_poll(self, host, sim):
        libcm = LibCM(host, mode="poll")
        fid = libcm.cm_open(SRC, DST, 1000, 80)
        grants = []
        libcm.cm_register_send(fid, grants.append)
        libcm.cm_request(fid)
        sim.run()
        assert grants == []  # nothing delivered until the app polls
        delivered = libcm.poll()
        assert delivered == 1
        assert grants == [fid]

    def test_sigio_mode_charges_signal(self, host, sim):
        libcm = LibCM(host, mode="sigio")
        fid = libcm.cm_open(SRC, DST, 1000, 80)
        libcm.cm_register_send(fid, lambda f: None)
        libcm.cm_request(fid)
        sim.run()
        assert libcm.stats["signals"] == 1
        assert host.costs.ledger.operation_counts["signal_delivery"] == 1


class TestPollMode:
    """Polling applications drain events on their own schedule (§2.2)."""

    def test_wakeups_fully_suppressed_for_grants_and_statuses(self, host, sim):
        libcm = LibCM(host, mode="poll")
        f1 = libcm.cm_open(SRC, DST, 1000, 80)
        f2 = libcm.cm_open(SRC, "10.0.0.3", 1001, 80)  # second macroflow
        grants, updates = [], []
        libcm.cm_register_send(f1, grants.append)
        libcm.cm_register_send(f2, grants.append)
        libcm.cm_register_update(f1, lambda f, status: updates.append(f))
        libcm.cm_thresh(f1, 1.5, 1.5)
        libcm.cm_bulk_request([f1, f2])
        libcm.cm_update(f1, 0, 0, CM_NO_CONGESTION, 0.04)
        sim.run()
        # No event-loop integration: nothing delivered, no selects, no signals.
        assert grants == [] and updates == []
        assert libcm.stats["selects"] == 0
        assert libcm.stats["signals"] == 0
        assert libcm.stats["dispatches"] == 0

    def test_poll_returns_callback_count_and_charges_selects(self, host, sim):
        libcm = LibCM(host, mode="poll")
        f1 = libcm.cm_open(SRC, DST, 1000, 80)
        f2 = libcm.cm_open(SRC, "10.0.0.3", 1001, 80)
        grants, updates = [], []
        libcm.cm_register_send(f1, grants.append)
        libcm.cm_register_send(f2, grants.append)
        libcm.cm_register_update(f1, lambda f, status: updates.append(f))
        libcm.cm_thresh(f1, 1.5, 1.5)
        libcm.cm_bulk_request([f1, f2])
        libcm.cm_update(f1, 0, 0, CM_NO_CONGESTION, 0.04)
        sim.run()
        selects_before = host.costs.ledger.operation_counts.get("select_call", 0)
        # Each macroflow starts with a one-MTU window, so both flows were
        # granted; the status change adds a third callback.
        assert libcm.poll() == 3
        assert sorted(grants) == sorted([f1, f2])
        assert updates == [f1]
        # An idle poll delivers nothing but still pays its readiness check.
        assert libcm.poll() == 0
        assert libcm.stats["selects"] == 2
        assert host.costs.ledger.operation_counts["select_call"] - selects_before == 2
        assert libcm.stats["signals"] == 0


class TestSigioMode:
    """SIGIO delivery costs one signal per wakeup, not per event."""

    def test_batched_events_cost_one_signal(self, host, sim):
        libcm = LibCM(host, mode="sigio")
        f1 = libcm.cm_open(SRC, DST, 1000, 80)
        f2 = libcm.cm_open(SRC, "10.0.0.3", 1001, 80)
        grants = []
        libcm.cm_register_send(f1, grants.append)
        libcm.cm_register_send(f2, grants.append)
        libcm.cm_bulk_request([f1, f2])  # both become ready before the wakeup
        sim.run()
        assert sorted(grants) == sorted([f1, f2])
        assert libcm.stats["signals"] == 1
        assert libcm.stats["selects"] == 1
        assert host.costs.ledger.operation_counts["signal_delivery"] == 1

    def test_each_wakeup_costs_a_fresh_signal(self, host, sim):
        libcm = LibCM(host, mode="sigio")
        fid = libcm.cm_open(SRC, DST, 1000, 80)
        updates = []
        libcm.cm_register_update(fid, lambda f, status: updates.append(f))
        libcm.cm_thresh(fid, 1.0001, 1.0001)
        libcm.cm_update(fid, 0, 0, CM_NO_CONGESTION, 0.05)
        sim.run()
        assert updates == [fid]
        assert libcm.stats["signals"] == 1
        # A later rate change past the threshold is a second wakeup and a
        # second signal (the srtt EWMA moves, so the reported rate does too).
        libcm.cm_update(fid, 0, 0, CM_NO_CONGESTION, 0.01)
        sim.run()
        assert updates == [fid, fid]
        assert libcm.stats["signals"] == 2
        assert host.costs.ledger.operation_counts["signal_delivery"] == 2


class TestCloseGrantReturn:
    def test_close_returns_undelivered_grants_to_siblings(self, host, sim):
        """Regression: cm_close used to drop undelivered grants from
        ``_sendable`` without ``cm_notify``-ing them back, instead of using
        the same decline path ``_drain`` applies to unregistered callbacks."""
        libcm = LibCM(host, mode="poll")  # poll keeps grants undelivered
        fa = libcm.cm_open(SRC, DST, 1000, 80)
        fb = libcm.cm_open(SRC, DST, 1001, 80)  # same macroflow as fa
        grants_b = []
        libcm.cm_register_send(fa, lambda f: None)
        libcm.cm_register_send(fb, grants_b.append)
        macroflow = host.cm.macroflow_of(fa)
        libcm.cm_request(fa)  # the one-MTU initial window goes to fa's grant
        libcm.cm_request(fb)  # queued behind it
        assert macroflow.reserved_bytes == macroflow.mtu
        returned = []
        original_notify = host.cm.cm_notify

        def spying_notify(flow_id, nsent):
            returned.append((flow_id, nsent))
            original_notify(flow_id, nsent)

        host.cm.cm_notify = spying_notify
        try:
            libcm.cm_close(fa)
        finally:
            host.cm.cm_notify = original_notify
        # The undelivered grant went back through the API, not into the void.
        assert (fa, 0) in returned
        # ... and the freed window was granted to the sibling immediately.
        assert libcm.poll() == 1
        assert grants_b == [fb]
        assert fb in host.cm._flows and fa not in host.cm._flows


class TestCosts:
    def test_each_wrapper_charges_a_crossing(self, libcm, host):
        fid = libcm.cm_open(SRC, DST, 1000, 80)
        before = host.costs.ledger.operation_counts["ioctl"]
        libcm.cm_query(fid)
        libcm.cm_notify(fid, 100)
        libcm.cm_update(fid, 100, 100, CM_NO_CONGESTION, 0.01)
        assert host.costs.ledger.operation_counts["ioctl"] == before + 3

    def test_close_forgets_callbacks(self, libcm, host):
        fid = libcm.cm_open(SRC, DST, 1000, 80)
        libcm.cm_register_send(fid, lambda f: None)
        libcm.cm_close(fid)
        assert not libcm.has_update_callback(fid)
        with pytest.raises(Exception):
            host.cm.cm_query(fid)
