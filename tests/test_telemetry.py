"""The unified telemetry layer: probes, bounded recorders, samplers, wiring.

Pins down the PR-4 contracts:

* probe slots compile to ``None`` (a no-op) when no recorder subscribes;
* every recorder holds bounded memory no matter how many events flow
  through it (the million-event test drives the real link probe path);
* sampled series and trace files are deterministic per ``(spec, seed)``;
* probes-on runs produce byte-identical app/link/host metrics to
  probes-off runs.
"""

import json

import pytest

from repro.netsim import Link, Packet, RateTracker, Simulator
from repro.netsim.packet import IP_HEADER_BYTES, UDP_HEADER_BYTES


def packet_header_bytes() -> int:
    return IP_HEADER_BYTES + UDP_HEADER_BYTES
from repro.telemetry import (
    EVENT_NAMES,
    FixedBinAccumulator,
    JsonlSink,
    PeriodicSampler,
    ReservoirRecorder,
    RingRecorder,
    SeriesRecorder,
    TelemetryHub,
)


class TestRecorders:
    def test_fixed_bin_accumulator_bins_and_series(self):
        acc = FixedBinAccumulator(bin_width=1.0, max_bins=100)
        acc.add(0.25, 10)
        acc.add(0.75, 10)
        acc.add(3.5, 40)
        assert acc.bin_series() == [(0.0, 20.0), (1.0, 0.0), (2.0, 0.0), (3.0, 40.0)]
        assert acc.total == 60.0
        assert acc.count == 3

    def test_fixed_bin_accumulator_clips_at_capacity(self):
        acc = FixedBinAccumulator(bin_width=1.0, max_bins=4)
        for t in range(10):
            acc.add(float(t), 1)
        assert acc.bins_used == 4
        assert acc.clipped == 6
        # Clipped values fold into the nearest edge, keeping totals honest.
        assert sum(v for _t, v in acc.bin_series()) == acc.total == 10.0

    def test_fixed_bin_accumulator_rejects_bad_args(self):
        with pytest.raises(ValueError):
            FixedBinAccumulator(bin_width=0)
        with pytest.raises(ValueError):
            FixedBinAccumulator(max_bins=0)

    def test_ring_recorder_keeps_newest(self):
        ring = RingRecorder(capacity=3)
        for i in range(7):
            ring.append(i)
        assert ring.items() == [4, 5, 6]
        assert len(ring) == 3
        assert ring.dropped == 4

    def test_reservoir_recorder_is_deterministic_and_bounded(self):
        def fill(seed):
            reservoir = ReservoirRecorder(capacity=10, seed=seed)
            for i in range(1000):
                reservoir.append(i)
            return reservoir

        a, b = fill(7), fill(7)
        assert a.items() == b.items()
        assert len(a) == 10
        assert a.seen == 1000
        assert a.dropped == 990
        # Kept items come back in stream order.
        assert a.items() == sorted(a.items())
        assert fill(8).items() != a.items()

    def test_series_recorder_caps_points(self):
        series = SeriesRecorder(max_samples=3)
        for i in range(5):
            series.append(float(i), float(i * i))
        assert series.points() == [(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)]
        assert series.dropped == 2

    def test_jsonl_sink_canonical_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            sink("packet.drop", 1.5, {"link": "a->b", "reason": "overflow"})
            sink.write_sample(2.0, "cm.h.mf1.cwnd", 1500.0)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {
            "t": 1.5, "event": "packet.drop", "link": "a->b", "reason": "overflow"
        }
        assert json.loads(lines[1]) == {
            "t": 2.0, "event": "sample", "series": "cm.h.mf1.cwnd", "value": 1500.0
        }
        assert sink.lines_written == 2


class TestHub:
    def test_probe_is_none_without_subscribers(self):
        hub = TelemetryHub()
        for event in EVENT_NAMES:
            assert hub.probe(event) is None

    def test_probe_counts_and_dispatches(self):
        hub = TelemetryHub()
        seen = []
        hub.subscribe("cm.grant", lambda event, t, fields: seen.append((event, t, fields)))
        probe = hub.probe("cm.grant")
        probe(1.0, {"flow": 3})
        assert seen == [("cm.grant", 1.0, {"flow": 3})]
        assert hub.counts["cm.grant"] == 1
        # Unsubscribed events still compile to the no-op.
        assert hub.probe("packet.drop") is None

    def test_probe_fans_out_to_many_sinks(self):
        hub = TelemetryHub()
        a, b = [], []
        hub.subscribe("app.chunk", lambda *rec: a.append(rec))
        hub.subscribe("app.chunk", lambda *rec: b.append(rec))
        hub.probe("app.chunk")(0.5, {"seq": 1})
        assert len(a) == len(b) == 1
        assert hub.counts["app.chunk"] == 1

    def test_unknown_event_rejected(self):
        hub = TelemetryHub()
        with pytest.raises(ValueError):
            hub.subscribe("no.such.event", lambda *rec: None)
        with pytest.raises(ValueError):
            hub.probe("no.such.event")

    def test_subscribed_events_in_catalog_order(self):
        hub = TelemetryHub()
        hub.subscribe("tcp.transmit", lambda *rec: None)
        hub.subscribe("packet.drop", lambda *rec: None)
        assert hub.subscribed_events() == ("packet.drop", "tcp.transmit")


class TestBoundedMemoryAtScale:
    def test_recorders_stay_bounded_over_a_million_packet_events(self):
        """Drive >= 1M packet events through the real link probe dispatch
        into every bounded recorder shape; memory must stay at capacity."""
        sim = Simulator()
        link = Link(sim, rate_bps=1e12, delay=0.0, queue_limit=None, name="flood")
        link.attach(lambda packet: None)

        hub = TelemetryHub()
        ring = RingRecorder(capacity=2048)
        reservoir = ReservoirRecorder(capacity=512, seed=1)
        bins = FixedBinAccumulator(bin_width=0.5, max_bins=256)
        hub.subscribe("packet.enqueue", lambda event, t, fields: ring.append((t, fields)))
        hub.subscribe("packet.enqueue", lambda event, t, fields: reservoir.append(t))
        hub.subscribe("packet.enqueue",
                      lambda event, t, fields: bins.add(t, fields["size"]))
        link.attach_telemetry(hub)

        n = 1_000_000
        packet = Packet(src="a", dst="b", sport=1, dport=2, protocol="udp",
                        payload_bytes=100 - packet_header_bytes())
        assert packet.size == 100
        send = link.send
        for _ in range(n):
            send(packet)
        # Drain the (huge) event heap cheaply: the recorders already saw
        # every enqueue; delivery events are irrelevant to the bound.
        assert hub.counts["packet.enqueue"] == n
        assert len(ring) == 2048 and ring.dropped == n - 2048
        assert len(reservoir) == 512 and reservoir.seen == n
        assert bins.bins_used <= 256
        assert bins.count == n and bins.total == 100.0 * n


class TestSampler:
    def test_periodic_sampler_ticks_on_the_engine(self):
        sim = Simulator()
        state = {"value": 0.0}
        sampler = PeriodicSampler(sim, interval=0.5, max_samples=100)
        sampler.add_source(lambda now, record: record(now, "state.value", state["value"]))
        sampler.start()
        sim.schedule(0.6, lambda: state.update(value=5.0))
        sim.run(until=2.0)
        sampler.stop()
        points = sampler.sampled_series()["state.value"]
        assert points[0] == (0.0, 0.0)
        assert (1.0, 5.0) in points and (1.5, 5.0) in points
        assert sampler.ticks == len(points)

    def test_sampler_series_bound_and_drop_accounting(self):
        sim = Simulator()
        sampler = PeriodicSampler(sim, interval=0.1, max_samples=5)
        sampler.add_source(lambda now, record: record(now, "x", 1.0))
        sampler.start()
        sim.run(until=5.0)
        sampler.stop()
        assert len(sampler.sampled_series()["x"]) == 5
        assert sampler.dropped_by_series()["x"] > 0

    def test_sampler_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            PeriodicSampler(Simulator(), interval=0.0)


class TestTraceFacades:
    def test_rate_tracker_series_matches_legacy_semantics(self):
        tracker = RateTracker(bin_width=0.5)
        tracker.record(0.1, 500)
        tracker.record(0.4, 500)
        tracker.record(1.6, 250)
        assert tracker.series() == [(0.0, 2000.0), (0.5, 0.0), (1.0, 0.0), (1.5, 500.0)]
        assert tracker.mean_rate() == pytest.approx(625.0)

    def test_rate_tracker_is_a_bounded_recorder(self):
        tracker = RateTracker(bin_width=0.5, max_bins=8)
        for i in range(100):
            tracker.record(i * 0.5, 100)
        assert tracker.bins_used == 8
        assert tracker.clipped == 92
        with pytest.raises(ValueError):
            RateTracker(bin_width=0)
