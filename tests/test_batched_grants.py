"""Batched grant dispatch: order equivalence, fairness, and mid-round removal.

The PR-1 rewrite lets the scheduler hand out up to ``grant_batch_size``
grants per wakeup.  These tests pin down the invariant that batching is a
pure dispatch-cost optimisation: the grant order is byte-for-byte the order
the one-at-a-time (``grant_batch_size=1``) scheduler produces.
"""

import itertools

import pytest

from repro import CongestionManager, HostCosts
from repro.core.scheduler import RoundRobinScheduler, WeightedRoundRobinScheduler
from repro.netsim import Host, Simulator


def fill(scheduler, requests):
    for flow_id, count in requests:
        for _ in range(count):
            scheduler.enqueue(flow_id)


def drain_one_at_a_time(scheduler):
    order = []
    while True:
        flow_id = scheduler.next_flow()
        if flow_id is None:
            return order
        order.append(flow_id)


def drain_batched(scheduler, batch_size):
    order = []
    while True:
        batch = scheduler.next_batch(batch_size)
        if not batch:
            return order
        order.extend(batch)


REQUEST_PATTERNS = [
    [(1, 1)],
    [(1, 3), (2, 3), (3, 3)],
    [(1, 5), (2, 1), (3, 2)],
    [(7, 2), (3, 9), (5, 1), (1, 4)],
    [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)],
]


class TestNextBatchOrderEquivalence:
    @pytest.mark.parametrize("pattern", REQUEST_PATTERNS)
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 100])
    def test_round_robin_batch_matches_single(self, pattern, batch_size):
        reference = RoundRobinScheduler()
        batched = RoundRobinScheduler()
        fill(reference, pattern)
        fill(batched, pattern)
        assert drain_batched(batched, batch_size) == drain_one_at_a_time(reference)

    @pytest.mark.parametrize("pattern", REQUEST_PATTERNS)
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 100])
    def test_weighted_batch_matches_single(self, pattern, batch_size):
        reference = WeightedRoundRobinScheduler()
        batched = WeightedRoundRobinScheduler()
        for scheduler in (reference, batched):
            scheduler.set_weight(1, 3)
            scheduler.set_weight(2, 2)
        fill(reference, pattern)
        fill(batched, pattern)
        assert drain_batched(batched, batch_size) == drain_one_at_a_time(reference)

    def test_partial_batch_resumes_rotation(self):
        scheduler = RoundRobinScheduler()
        fill(scheduler, [(1, 2), (2, 2), (3, 2)])
        assert scheduler.next_batch(2) == [1, 2]
        # The next pop must continue the rotation at flow 3, not restart.
        assert scheduler.next_flow() == 3
        assert scheduler.next_batch(10) == [1, 2, 3]

    def test_batch_counts_against_pending(self):
        scheduler = RoundRobinScheduler()
        fill(scheduler, [(1, 4)])
        assert scheduler.next_batch(3) == [1, 1, 1]
        assert scheduler.pending_requests(1) == 1
        assert scheduler.pending_requests() == 1


class TestWeightedNextBatchOverride:
    """The PR-4 optimized WRR ``next_batch`` must be a pure cost change.

    The base-class loop popped one request per ``next_flow`` call, rescanning
    credits each time; the override serves whole head-of-ring bursts.  These
    tests replay both against the same workloads, including interleaved
    enqueues, partial drains and mid-round removals.
    """

    def test_weighted_burst_shape(self):
        scheduler = WeightedRoundRobinScheduler()
        scheduler.set_weight(1, 3)
        scheduler.set_weight(2, 1)
        fill(scheduler, [(1, 5), (2, 5)])
        # Weight-3 flow bursts three, weight-1 flow gets one, repeat; the
        # heavy flow drains on its second (truncated) burst.
        assert scheduler.next_batch(8) == [1, 1, 1, 2, 1, 1, 2, 2]

    def test_weighted_batch_randomized_order_identity(self):
        import random

        rng = random.Random(20260730)
        for _trial in range(60):
            reference = WeightedRoundRobinScheduler()
            batched = WeightedRoundRobinScheduler()
            n_flows = rng.randint(1, 7)
            for flow_id in range(1, n_flows + 1):
                weight = rng.randint(1, 5)
                reference.set_weight(flow_id, weight)
                batched.set_weight(flow_id, weight)
            for _op in range(rng.randint(2, 25)):
                action = rng.random()
                if action < 0.55:
                    flow_id = rng.randint(1, n_flows)
                    count = rng.randint(1, 6)
                    for _ in range(count):
                        reference.enqueue(flow_id)
                        batched.enqueue(flow_id)
                elif action < 0.70:
                    victim = rng.randint(1, n_flows)
                    reference.remove_flow(victim)
                    batched.remove_flow(victim)
                else:
                    size = rng.randint(1, 9)
                    expected = []
                    for _ in range(size):
                        flow_id = reference.next_flow()
                        if flow_id is None:
                            break
                        expected.append(flow_id)
                    assert batched.next_batch(size) == expected
                assert batched.pending_requests() == reference.pending_requests()
            # Full drain at the end must agree too.
            assert drain_batched(batched, 4) == drain_one_at_a_time(reference)

    def test_weighted_batch_replenishes_when_all_credits_spent(self):
        scheduler = WeightedRoundRobinScheduler()
        scheduler.set_weight(1, 2)
        scheduler.set_weight(2, 2)
        fill(scheduler, [(1, 4), (2, 4)])
        # First batch spends every credit mid-ring; the next batch must
        # replenish and continue in ring order, exactly like next_flow.
        assert scheduler.next_batch(4) == [1, 1, 2, 2]
        assert scheduler.next_batch(4) == [1, 1, 2, 2]
        assert scheduler.next_batch(4) == []


class TestRemoveFlowMidRound:
    def test_round_robin_remove_mid_round_order(self):
        scheduler = RoundRobinScheduler()
        fill(scheduler, [(1, 2), (2, 2), (3, 2)])
        assert scheduler.next_flow() == 1  # 1 rotates to the back
        scheduler.remove_flow(2)
        assert drain_one_at_a_time(scheduler) == [3, 1, 3]
        assert scheduler.pending_requests() == 0

    def test_round_robin_remove_mid_batch_drain(self):
        scheduler = RoundRobinScheduler()
        fill(scheduler, [(1, 3), (2, 3), (3, 3)])
        assert scheduler.next_batch(4) == [1, 2, 3, 1]
        scheduler.remove_flow(1)
        assert scheduler.pending_requests(1) == 0
        assert scheduler.next_batch(10) == [2, 3, 2, 3]

    def test_weighted_remove_mid_round(self):
        scheduler = WeightedRoundRobinScheduler()
        scheduler.set_weight(2, 3)
        fill(scheduler, [(1, 2), (2, 4), (3, 2)])
        first = [scheduler.next_flow() for _ in range(3)]
        assert len(first) == 3
        scheduler.remove_flow(2)
        rest = drain_one_at_a_time(scheduler)
        assert 2 not in rest
        assert scheduler.pending_requests() == 0
        assert scheduler.pending_requests(2) == 0

    def test_weighted_remove_then_reenqueue(self):
        scheduler = WeightedRoundRobinScheduler()
        fill(scheduler, [(1, 2), (2, 2)])
        scheduler.remove_flow(1)
        scheduler.enqueue(1)
        drained = drain_one_at_a_time(scheduler)
        assert sorted(drained) == [1, 2, 2]


def build_cm(grant_batch_size):
    sim = Simulator()
    host = Host(sim, "host", "10.0.0.1", costs=HostCosts())
    # The feedback watchdog would "recover" our deliberately stalled windows
    # (that is its job); disable it so grant accounting stays inspectable.
    cm = CongestionManager(host, grant_batch_size=grant_batch_size, feedback_watchdog=False)
    return sim, cm


def open_flows(cm, grants_log, n):
    flow_ids = []
    for i in range(n):
        fid = cm.cm_open("10.0.0.1", "10.0.0.2", 20_000 + i, 80, "tcp")
        cm.cm_register_send(fid, lambda flow_id: grants_log.append(flow_id))
        flow_ids.append(fid)
    return flow_ids


class TestBatchedGrantFairness:
    @pytest.mark.parametrize("batch_size", [2, 8, 32])
    def test_grant_order_identical_to_unbatched(self, batch_size):
        """The batched manager must grant in exactly the k=1 order."""
        logs = {}
        for k in (1, batch_size):
            sim, cm = build_cm(k)
            log = []
            logs[k] = log
            flow_ids = open_flows(cm, log, 5)
            # Open the window so multiple grants can go out per wakeup.
            macroflow = cm.macroflow_of(flow_ids[0])
            macroflow.controller._cwnd = 40 * cm.mtu
            for fid, count in zip(flow_ids, (4, 1, 3, 2, 4)):
                cm.cm_request(fid, count=count)
            cm.cm_bulk_request(list(itertools.chain(*[[f] * 2 for f in flow_ids])))
            sim.run()
        assert logs[batch_size] == logs[1]
        assert len(logs[1]) == 4 + 1 + 3 + 2 + 4 + 10

    def test_round_robin_interleaving_across_flows(self):
        sim, cm = build_cm(32)
        log = []
        flow_ids = open_flows(cm, log, 3)
        macroflow = cm.macroflow_of(flow_ids[0])
        macroflow.controller._cwnd = 40 * cm.mtu
        cm.cm_bulk_request([flow_ids[0]] * 3 + [flow_ids[1]] * 3 + [flow_ids[2]] * 3)
        sim.run()
        a, b, c = flow_ids
        assert log == [a, b, c, a, b, c, a, b, c]

    def test_window_limit_respected_per_grant(self):
        """Batching must not overshoot the window: 2-MTU window, 10 requests."""
        sim, cm = build_cm(32)
        log = []
        (fid,) = open_flows(cm, log, 1)
        macroflow = cm.macroflow_of(fid)
        macroflow.controller._cwnd = 2.0 * cm.mtu
        cm.cm_request(fid, count=10)
        sim.run()
        assert len(log) == 2
        assert macroflow.reserved_bytes == 2 * cm.mtu

    def test_stale_scheduler_entry_skipped_without_consuming_window(self):
        """A queued entry for a vanished flow must neither grant nor eat window."""
        sim, cm = build_cm(32)
        log = []
        flow_ids = open_flows(cm, log, 2)
        macroflow = cm.macroflow_of(flow_ids[0])
        macroflow.controller._cwnd = 2.0 * cm.mtu
        scheduler = macroflow.scheduler
        scheduler.enqueue(999)  # stale: no such flow id
        scheduler.enqueue(flow_ids[0])
        scheduler.enqueue(flow_ids[1])
        cm._maybe_grant(macroflow)
        sim.run()
        assert log == [flow_ids[0], flow_ids[1]]
        assert macroflow.reserved_bytes == 2 * cm.mtu

    def test_batch_size_one_matches_seed_loop(self):
        """k=1 goes through the batched code path but is the seed semantics."""
        from grant_oracle import unbatched_maybe_grant

        sim, cm = build_cm(1)
        log = []
        flow_ids = open_flows(cm, log, 4)
        macroflow = cm.macroflow_of(flow_ids[0])
        macroflow.controller._cwnd = 20 * cm.mtu
        scheduler = macroflow.scheduler
        for fid in flow_ids * 3:
            scheduler.enqueue(fid)
        cm._maybe_grant(macroflow)
        sim.run()
        batched_order = list(log)

        # Reset and replay through the preserved seed loop.
        log.clear()
        macroflow.reserved_bytes = 0.0
        for flow in macroflow.flows.values():
            flow.granted_unnotified = 0
        for fid in flow_ids * 3:
            scheduler.enqueue(fid)
        unbatched_maybe_grant(cm, macroflow)
        sim.run()
        assert batched_order == list(log)
