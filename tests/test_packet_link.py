"""Unit tests for packets, links and traces."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import (GilbertElliottLoss, Link, Packet, RateTracker,
                          RedQueue, Simulator, make_aqm, make_loss_model)
from repro.netsim.packet import (
    DEFAULT_MSS,
    DEFAULT_MTU,
    IP_HEADER_BYTES,
    PROTO_TCP,
    PROTO_UDP,
    TCP_HEADER_BYTES,
    UDP_HEADER_BYTES,
)


def make_packet(payload=1000, protocol=PROTO_UDP, **kwargs):
    return Packet(src="a", dst="b", sport=1, dport=2, protocol=protocol,
                  payload_bytes=payload, **kwargs)


class TestPacket:
    def test_udp_size_includes_headers(self):
        packet = make_packet(1000, PROTO_UDP)
        assert packet.size == 1000 + IP_HEADER_BYTES + UDP_HEADER_BYTES

    def test_tcp_size_includes_headers(self):
        packet = make_packet(1000, PROTO_TCP)
        assert packet.size == 1000 + IP_HEADER_BYTES + TCP_HEADER_BYTES

    def test_default_mss_derived_from_mtu(self):
        assert DEFAULT_MSS == DEFAULT_MTU - IP_HEADER_BYTES - TCP_HEADER_BYTES

    def test_flow_key(self):
        packet = make_packet()
        assert packet.flow_key == ("a", "b", 1, 2, PROTO_UDP)

    def test_reply_template_swaps_endpoints(self):
        reply = make_packet().reply_template()
        assert (reply.src, reply.dst, reply.sport, reply.dport) == ("b", "a", 2, 1)
        assert reply.payload_bytes == 0

    def test_packet_ids_unique(self):
        assert make_packet().packet_id != make_packet().packet_id

    def test_headers_default_independent(self):
        p1, p2 = make_packet(), make_packet()
        p1.headers["seq"] = 1
        assert "seq" not in p2.headers


class TestLink:
    def make_link(self, sim, **kwargs):
        received = []
        defaults = dict(rate_bps=8e6, delay=0.01, queue_limit=4, seed=1)
        defaults.update(kwargs)
        link = Link(sim, **defaults)
        link.attach(received.append)
        return link, received

    def test_delivery_includes_serialisation_and_propagation(self):
        sim = Simulator()
        link, received = self.make_link(sim, rate_bps=8e6, delay=0.01)
        packet = make_packet(payload=972)  # 1000 bytes on the wire
        link.send(packet)
        sim.run()
        # 1000 bytes at 8 Mbps = 1 ms serialisation + 10 ms propagation.
        assert sim.now == pytest.approx(0.011, abs=1e-6)
        assert received == [packet]

    def test_fifo_ordering(self):
        sim = Simulator()
        link, received = self.make_link(sim, queue_limit=10)
        packets = [make_packet(100) for _ in range(5)]
        for p in packets:
            link.send(p)
        sim.run()
        assert received == packets

    def test_queue_overflow_drops(self):
        sim = Simulator()
        link, received = self.make_link(sim, queue_limit=2)
        outcomes = [link.send(make_packet(1000)) for _ in range(5)]
        sim.run()
        # One in transmission + two queued accepted; the rest dropped.
        assert outcomes.count(True) == 3
        assert link.stats.dropped_overflow == 2
        assert len(received) == 3

    def test_random_loss_reproducible(self):
        sim = Simulator()
        link_a, _ = self.make_link(sim, loss_rate=0.5, seed=42, queue_limit=1000)
        outcomes_a = [link_a.send(make_packet(10)) for _ in range(50)]
        sim2 = Simulator()
        link_b, _ = self.make_link(sim2, loss_rate=0.5, seed=42, queue_limit=1000)
        outcomes_b = [link_b.send(make_packet(10)) for _ in range(50)]
        assert outcomes_a == outcomes_b
        assert link_a.stats.dropped_random > 0

    def test_zero_loss_drops_nothing_randomly(self):
        sim = Simulator()
        link, received = self.make_link(sim, queue_limit=1000)
        for _ in range(20):
            link.send(make_packet(10))
        sim.run()
        assert link.stats.dropped_random == 0
        assert len(received) == 20

    def test_ecn_marks_instead_of_dropping(self):
        sim = Simulator()
        link, received = self.make_link(sim, queue_limit=50, ecn_threshold=2)
        for _ in range(6):
            link.send(make_packet(1000, ecn_capable=True))
        sim.run()
        assert link.stats.ecn_marked > 0
        assert any(p.ecn_marked for p in received)
        assert len(received) == 6

    def test_full_queue_drop_is_not_ecn_marked(self):
        # Boundary regression: queue_length == queue_limit == ecn_threshold.
        # A packet the full queue is about to drop must not be ECN-marked
        # (or counted in stats.ecn_marked) on its way out — marking happens
        # *instead of* dropping, never as well as.
        sim = Simulator()
        link, received = self.make_link(sim, queue_limit=2, ecn_threshold=2)
        for _ in range(3):  # one transmitting + two queued -> queue_length == 2
            assert link.send(make_packet(1000, ecn_capable=True))
        overflow = make_packet(1000, ecn_capable=True)
        assert not link.send(overflow)
        assert link.stats.dropped_overflow == 1
        assert overflow.ecn_marked is False
        assert link.stats.ecn_marked == 0
        sim.run()
        assert link.stats.ecn_marked == sum(1 for p in received if p.ecn_marked)

    def test_mean_queue_delay_counts_transmitted_packets(self):
        # queue_delay_total accumulates at transmission *start*; the mean
        # must divide by the matching dequeued count, not by deliveries —
        # packets still propagating at simulation end would otherwise
        # inflate (or here, zero out) the reported delay.
        sim = Simulator()
        link, received = self.make_link(sim, rate_bps=8e6, delay=10.0, queue_limit=10)
        for _ in range(3):
            link.send(make_packet(972))  # 1000 bytes -> 1 ms serialisation
        sim.run(until=0.01)  # all three transmitted, none delivered yet
        assert received == []
        assert link.stats.delivered_packets == 0
        assert link.stats.dequeued_packets == 3
        # Queue waits were 0, 1 and 2 ms -> mean 1 ms.
        assert link.stats.mean_queue_delay() == pytest.approx(0.001)

    def test_non_ecn_packets_not_marked(self):
        sim = Simulator()
        link, received = self.make_link(sim, queue_limit=50, ecn_threshold=1)
        for _ in range(4):
            link.send(make_packet(1000, ecn_capable=False))
        sim.run()
        assert link.stats.ecn_marked == 0
        assert not any(p.ecn_marked for p in received)

    def test_drop_hook_invoked(self):
        sim = Simulator()
        link, _ = self.make_link(sim, queue_limit=1)
        drops = []
        link.on_drop(lambda packet, reason: drops.append(reason))
        for _ in range(4):
            link.send(make_packet(1000))
        assert "overflow" in drops

    def test_stats_delivered_bytes(self):
        sim = Simulator()
        link, _ = self.make_link(sim, queue_limit=10)
        packet = make_packet(500)
        link.send(packet)
        sim.run()
        assert link.stats.delivered_packets == 1
        assert link.stats.delivered_bytes == packet.size

    def test_utilization_bounded(self):
        sim = Simulator()
        link, _ = self.make_link(sim, queue_limit=100)
        for _ in range(10):
            link.send(make_packet(1000))
        sim.run()
        assert 0.0 < link.stats.utilization(sim.now) <= 1.0

    def test_send_without_receiver_raises(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, delay=0.0)
        with pytest.raises(RuntimeError):
            link.send(make_packet())

    @pytest.mark.parametrize("kwargs", [
        {"rate_bps": 0}, {"rate_bps": -1}, {"delay": -0.1}, {"loss_rate": 1.0}, {"loss_rate": -0.2},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        sim = Simulator()
        defaults = dict(rate_bps=1e6, delay=0.01)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            Link(sim, **defaults)

    def test_transmission_time(self):
        sim = Simulator()
        link, _ = self.make_link(sim, rate_bps=1e6)
        packet = make_packet(972)  # 1000 total bytes
        assert link.transmission_time(packet) == pytest.approx(0.008)

    def test_queue_limit_zero_idle_link_accepts(self):
        # Regression: queue_limit bounds *waiting* packets only — the packet
        # being serialised does not count — so an idle link with
        # queue_limit=0 must accept a packet and start transmitting it
        # immediately.  A second packet offered while the first serialises
        # finds a zero-capacity queue and is dropped.
        sim = Simulator()
        link, received = self.make_link(sim, queue_limit=0)
        first = make_packet(972)  # 1 ms serialisation at 8 Mbps
        assert link.send(first)
        assert not link.send(make_packet(972))  # busy, queue full at 0
        assert link.stats.dropped_overflow == 1
        sim.run()
        assert received == [first]
        assert sim.now == pytest.approx(0.011, abs=1e-6)
        # Idle again: the next packet is accepted too.
        assert link.send(make_packet(972))
        sim.run()
        assert len(received) == 2

    def test_lowering_delay_mid_flight_keeps_fifo(self):
        # Regression for the mid-run delay-reschedule hazard: the service
        # can lower ``delay`` while packets are propagating.  The change
        # must only apply to packets entering propagation afterwards — and
        # even then a later packet must not overtake (and be swapped with)
        # one already on the wire.
        sim = Simulator()
        link, received = self.make_link(sim, rate_bps=8e6, delay=0.01,
                                        queue_limit=10)
        p1 = make_packet(972)  # 1 ms serialisation each
        p2 = make_packet(972)
        link.send(p1)
        link.send(p2)
        arrivals = []
        orig_receiver = link._sequencer.receiver
        link.attach(lambda packet: (arrivals.append((sim.now, packet)),
                                    orig_receiver(packet))[-1])
        # p1 enters propagation at 1 ms (due 11 ms); lower delay at 1.5 ms,
        # while p1 is on the wire and p2 is still serialising.
        def patch():
            link.delay = 0.001
        sim.schedule(0.0015, patch)
        sim.run()
        # Order preserved: p1 first, at its original 11 ms arrival.  p2
        # finished serialising at 2 ms; its nominal 3 ms arrival would
        # overtake p1, so it is clamped to p1's delivery time.
        assert [p for _, p in arrivals] == [p1, p2]
        assert arrivals[0][0] == pytest.approx(0.011, abs=1e-6)
        assert arrivals[1][0] == pytest.approx(0.011, abs=1e-6)
        # A packet sent once the wire is clear gets the new, lower delay.
        p3 = make_packet(972)
        link.send(p3)
        sim.run()
        assert arrivals[-1][1] is p3
        assert arrivals[-1][0] == pytest.approx(0.011 + 0.002, abs=1e-6)


    def test_standalone_link_drains_from_its_own_sequencer_and_reports_what_propagates(self):
        # A link with a plain receiver still delivers through a sequencer
        # (of its own): two events a hop, the transmission end and the
        # arrival instant's drain — two packets at distinct instants = 4.
        sim = Simulator()
        link, received = self.make_link(sim, rate_bps=8e6, delay=0.01)
        first, second = make_packet(972), make_packet(972)
        link.send(first)
        link.send(second)
        sim.run(until=0.0015)
        assert link.propagating() == [first] and link._tx_packet is second
        sim.run(until=0.0025)
        assert link.propagating() == [first, second] and not link._busy
        assert link.stats.delivered_packets == 0
        sim.run()
        assert received == [first, second] and link.propagating() == []
        assert sim.events_dispatched == 4

    def test_standalone_links_arriving_together_never_tie_in_the_queue(self):
        # Each attach draws its own drain rank: two drains at one instant
        # with equal ranks would make the heap compare their callbacks.
        sim = Simulator()
        first, got_first = self.make_link(sim, delay=0.01)
        second, got_second = self.make_link(sim, delay=0.01)
        assert first._sequencer.rank != second._sequencer.rank
        first.send(make_packet(972))
        second.send(make_packet(972))
        sim.run()
        assert len(got_first) == len(got_second) == 1

    def test_link_goes_idle_exactly_when_its_queue_runs_dry(self):
        sim = Simulator()
        link, _ = self.make_link(sim, queue_limit=10)
        busy = []
        for _ in range(3):
            link.send(make_packet(972))             # 1 ms each
        for when in (0.0005, 0.0015, 0.0025, 0.0035):
            sim.at(when, lambda: busy.append((link._busy, link.queue_length)))
        sim.run()
        assert busy == [(True, 2), (True, 1), (True, 0), (False, 0)]
        assert link.stats.dequeued_packets == 3


class TestLazyGenerator:
    """A link seeds its private generator at its first loss draw."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32),
           p=st.floats(min_value=0.01, max_value=0.99),
           k=st.integers(min_value=0, max_value=5))
    def test_loss_raised_mid_run_drops_exactly_a_fresh_generators_draws(self, seed, p, k):
        sim = Simulator()
        link = Link(sim, rate_bps=8e6, delay=0.01, queue_limit=None, seed=seed)
        link.attach(lambda packet: None)
        assert all(link.send(make_packet(10)) for _ in range(k))
        assert link._rng is None
        link.loss_rate = p
        outcomes = [link.send(make_packet(10)) for _ in range(40)]
        fresh = random.Random(seed)
        assert outcomes == [fresh.random() >= p for _ in range(40)]
        assert link._rng.getstate() == fresh.getstate()

    @pytest.mark.parametrize("lossy", [
        {"loss_model": {"kind": "gilbert_elliott", "p_good_bad": 0.1, "p_bad_good": 0.5}},
        {"aqm": {"kind": "red", "min_th": 5, "max_th": 15}},
        {"loss_rate": 0.1},
    ])
    def test_a_link_built_lossy_is_seeded_before_its_first_send(self, lossy):
        link = Link(Simulator(), rate_bps=8e6, delay=0.01, seed=11, **lossy)
        assert link._rng.getstate() == random.Random(11).getstate()

    def test_a_loss_free_link_never_builds_one(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8e6, delay=0.01, seed=11, ecn_threshold=2)
        link.attach(lambda packet: None)
        for _ in range(20):
            link.send(make_packet(972, ecn_capable=True))
        sim.run()
        assert link._rng is None and link.stats.ecn_marked > 0


class TestGilbertElliott:
    def make_link(self, sim, **kwargs):
        received = []
        # Unbounded queue: these tests offer thousands of packets at t=0 and
        # only study the loss process, not drop-tail behaviour.
        defaults = dict(rate_bps=8e6, delay=0.01, queue_limit=None, seed=7)
        defaults.update(kwargs)
        link = Link(sim, **defaults)
        link.attach(received.append)
        return link, received

    def test_losses_are_bursty(self):
        # Mean burst length 1/p_bad_good = 10 packets: drops must cluster
        # into far fewer runs than the same loss mass would under Bernoulli.
        sim = Simulator()
        model = {"kind": "gilbert_elliott", "p_good_bad": 0.02, "p_bad_good": 0.1}
        link, received = self.make_link(sim, loss_model=model)
        outcomes = [link.send(make_packet(10)) for _ in range(2000)]
        dropped = outcomes.count(False)
        assert dropped > 50
        assert link.stats.dropped_random == dropped
        runs = sum(1 for i, ok in enumerate(outcomes)
                   if not ok and (i == 0 or outcomes[i - 1]))
        assert runs * 3 < dropped  # mean run length well above 1

    def test_long_run_loss_rate_matches_stationary_distribution(self):
        sim = Simulator()
        model = {"kind": "gilbert_elliott", "p_good_bad": 0.05, "p_bad_good": 0.2}
        link, _ = self.make_link(sim, loss_model=model)
        outcomes = [link.send(make_packet(10)) for _ in range(20000)]
        # Stationary bad-state probability = p_gb / (p_gb + p_bg) = 0.2.
        rate = outcomes.count(False) / len(outcomes)
        assert 0.15 < rate < 0.25

    def test_reproducible_per_seed(self):
        results = []
        for _ in range(2):
            sim = Simulator()
            model = {"kind": "gilbert_elliott", "p_good_bad": 0.1, "p_bad_good": 0.3}
            link, _ = self.make_link(sim, seed=99, loss_model=model)
            results.append([link.send(make_packet(10)) for _ in range(500)])
        assert results[0] == results[1]

    def test_mapping_config_builds_fresh_instances(self):
        sim = Simulator()
        config = {"kind": "gilbert_elliott", "p_good_bad": 0.1, "p_bad_good": 0.3}
        link_a, _ = self.make_link(sim, loss_model=config)
        link_b, _ = self.make_link(sim, loss_model=config)
        assert isinstance(link_a.loss_model, GilbertElliottLoss)
        assert link_a.loss_model is not link_b.loss_model

    def test_factory_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_loss_model({"kind": "nope"})

    @pytest.mark.parametrize("kwargs", [
        {"p_good_bad": 0.0, "p_bad_good": 0.5},
        {"p_good_bad": 1.5, "p_bad_good": 0.5},
        {"p_good_bad": 0.5, "p_bad_good": 0.0},
        {"p_good_bad": 0.5, "p_bad_good": 0.5, "loss_good": 1.0},
        {"p_good_bad": 0.5, "p_bad_good": 0.5, "loss_bad": 1.5},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GilbertElliottLoss(**kwargs)


class TestRedQueue:
    def make_link(self, sim, **kwargs):
        received = []
        defaults = dict(rate_bps=8e5, delay=0.01, queue_limit=1000, seed=3,
                        aqm={"kind": "red", "min_th": 5, "max_th": 15})
        defaults.update(kwargs)
        link = Link(sim, **defaults)
        link.attach(received.append)
        return link, received

    def test_below_min_th_accepts_everything(self):
        sim = Simulator()
        link, received = self.make_link(sim)
        for _ in range(4):  # occupancy never crosses min_th
            assert link.send(make_packet(1000))
        sim.run()
        assert link.stats.dropped_random == 0
        assert link.stats.ecn_marked == 0
        assert len(received) == 4

    def test_sustained_overload_gates_packets(self):
        sim = Simulator()
        link, received = self.make_link(sim)
        sent = 0
        def offer():
            nonlocal sent
            if sent < 400:
                link.send(make_packet(1000))
                sent += 1
                # 1000 bytes at 0.8 Mbps serialise in 10 ms; offering every
                # 2 ms overloads the link 5x so the average queue climbs
                # through both RED thresholds.
                sim.schedule(0.002, offer)
        offer()
        sim.run()
        # Non-ECN packets: RED drops, never marks.
        assert link.stats.dropped_random > 0
        assert link.stats.ecn_marked == 0

    def test_ecn_capable_marked_instead_of_dropped(self):
        sim = Simulator()
        link, received = self.make_link(sim)
        sent = 0
        def offer():
            nonlocal sent
            if sent < 400:
                link.send(make_packet(1000, ecn_capable=True))
                sent += 1
                sim.schedule(0.002, offer)
        offer()
        sim.run()
        assert link.stats.ecn_marked > 0
        assert link.stats.dropped_random == 0
        assert any(p.ecn_marked for p in received)

    def test_average_tracks_ewma_not_instantaneous(self):
        red = RedQueue(min_th=5, max_th=15, w_q=0.002)
        import random as _random
        rng = _random.Random(1)
        # One huge instantaneous burst must not trip the gate: the EWMA
        # moves by w_q per arrival.
        assert red.should_gate(rng, 100, 0.0, 8e6) is False
        assert red.avg == pytest.approx(0.2)

    def test_idle_decay_shrinks_average(self):
        red = RedQueue(min_th=5, max_th=15, w_q=0.01, mean_packet_bytes=1000)
        import random as _random
        rng = _random.Random(1)
        for i in range(2000):
            red.should_gate(rng, 20, i * 0.001, 8e6)
        avg_before = red.avg
        assert avg_before > 5
        red.should_gate(rng, 0, 10.0, 8e6)  # ~8 s idle at 1 ms/slot
        assert red.avg < avg_before * 0.01

    def test_factory_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_aqm({"kind": "codel", "min_th": 1, "max_th": 2})

    @pytest.mark.parametrize("kwargs", [
        {"min_th": 0, "max_th": 10},
        {"min_th": 5, "max_th": 5},
        {"min_th": 5, "max_th": 15, "max_p": 0.0},
        {"min_th": 5, "max_th": 15, "max_p": 1.5},
        {"min_th": 5, "max_th": 15, "w_q": 0.0},
        {"min_th": 5, "max_th": 15, "mean_packet_bytes": 0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RedQueue(**kwargs)


class TestTrace:
    def test_rate_tracker_series(self):
        tracker = RateTracker(bin_width=1.0)
        tracker.record(0.2, 1000)
        tracker.record(0.7, 1000)
        tracker.record(2.5, 4000)
        series = tracker.series()
        assert series[0] == (0.0, 2000.0)
        assert series[1] == (1.0, 0.0)  # empty bins are reported as zero
        assert series[2] == (2.0, 4000.0)

    def test_rate_tracker_mean(self):
        tracker = RateTracker(bin_width=1.0)
        tracker.record(0.0, 100)
        tracker.record(1.0, 300)
        assert tracker.mean_rate() == pytest.approx(200.0)

    def test_rate_tracker_empty(self):
        tracker = RateTracker()
        assert tracker.series() == []
        assert tracker.mean_rate() == 0.0

    def test_rate_tracker_invalid_bin(self):
        with pytest.raises(ValueError):
            RateTracker(bin_width=0)
