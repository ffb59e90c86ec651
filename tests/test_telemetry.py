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
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def reference_line(event, time, fields):
    """What the sink wrote before it compiled its lines: one ``json.dumps`` of
    the merged record.  The template path must reproduce it byte for byte."""
    return json.dumps({"t": time, "event": event, **fields}, sort_keys=True,
                      separators=(",", ":"), allow_nan=False) + "\n"


class ReferenceSink(JsonlSink):
    """:class:`JsonlSink` with every line rendered by :func:`reference_line`."""

    def __call__(self, event, time, fields):
        self._write(reference_line(event, time, fields))
        self.lines_written += 1


def written(tmp_path, records, name="trace.jsonl"):
    path = tmp_path / name
    with JsonlSink(str(path)) as sink:
        for record in records:
            sink(*record)
    return path.read_text(encoding="utf-8")


_finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-7, 1e22, 1e16, 1e-5, 5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, 0.1 + 0.2]),
)
_texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"', "\\", "a\"b", "\n\t\x00\x1f", "\x7f", "é", "日本", "\U0001f600",
                     "\ud800", "100%", "%s", "%(x)s", "%%"]),
)
_scalars = st.one_of(
    _finite_floats,
    st.integers(),
    st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 200, 0, -1]),
    st.booleans(),
    st.none(),
    _texts,
)
#: Values the templates do not encode themselves: containers go to the
#: canonical encoder (the fallback), nested scalars and all.
_nested = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
_field_names = _texts.filter(lambda name: name not in ("t", "event"))
_fields = st.dictionaries(_field_names, st.one_of(_scalars, _nested), max_size=5)


class TestJsonlSinkLineTemplates:
    """The compiled line equals the reference rendering, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(EVENT_NAMES), _finite_floats, _fields),
                    min_size=1, max_size=6))
    def test_lines_equal_the_reference_rendering(self, tmp_path_factory, records):
        text = written(tmp_path_factory.mktemp("sink"), records)
        assert text == "".join(reference_line(*record) for record in records)

    @pytest.mark.parametrize("value, text", [
        (True, "true"), (False, "false"), (1, "1"), (0, "0"), (None, "null"),
        (1.0, "1.0"), (-0.0, "-0.0"), (1e22, "1e+22"), (1e-7, "1e-07"),
        (5e-324, "5e-324"), (2 ** 64, "18446744073709551616"),
    ])
    def test_bools_are_not_rendered_as_ints_nor_ints_as_floats(self, tmp_path, value, text):
        line = written(tmp_path, [("cm.grant", 0.5, {"v": value})])
        assert line == '{"event":"cm.grant","t":0.5,"v":%s}\n' % text
        assert line == reference_line("cm.grant", 0.5, {"v": value})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["time", "field", "nested"])
    def test_non_finite_floats_raise_and_write_nothing(self, tmp_path, bad, where):
        record = {
            "time": ("packet.drop", bad, {"link": "a->b"}),
            "field": ("packet.drop", 1.0, {"link": "a->b", "cwnd": bad}),
            "nested": ("packet.drop", 1.0, {"link": "a->b", "extra": {"deep": [1, bad]}}),
        }[where]
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            sink("packet.drop", 0.5, {"link": "a->b"})
            with pytest.raises(ValueError, match="Out of range float"):
                sink(*record)
            with pytest.raises(ValueError, match="Out of range float"):
                reference_line(*record)
            assert sink.lines_written == 1
        assert path.read_text() == reference_line("packet.drop", 0.5, {"link": "a->b"})

    @pytest.mark.parametrize("key", ["t", "event"])
    def test_a_field_may_not_overwrite_the_records_own_keys(self, tmp_path, key):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            for _ in range(2):  # the refusal is not a cached shape either
                with pytest.raises(ValueError) as raised:
                    sink("tcp.transmit", 1.0, {"seq": 1, key: 2.0})
                assert "'tcp.transmit'" in str(raised.value) and repr(key) in str(raised.value)
            assert sink.lines_written == 0
            assert sink._templates == {}
        assert path.read_text() == ""

    def test_field_names_must_be_strings(self, tmp_path):
        with JsonlSink(str(tmp_path / "trace.jsonl")) as sink:
            with pytest.raises(TypeError, match="not a str"):
                sink("cm.grant", 1.0, {7: "flow"})
            assert sink.lines_written == 0

    def test_one_template_per_shape_however_many_lines(self, tmp_path):
        """The cache is keyed by (event, field names): bounded by the probe
        sites in the tree, not by the run length or the values seen."""
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            for index in range(5000):
                sink("packet.enqueue", index * 0.001,
                     {"link": f"l{index % 7}", "size": 40 + index, "queue": index % 100})
                sink("packet.drop", index * 0.001, {"link": "a->b", "reason": "overflow"})
                sink("packet.drop", index * 0.001,
                     {"link": "a->b", "reason": "red", "size": float(index)})
                sink.write_sample(index * 0.001, f"link.l{index}.queue", float(index))
            assert sink.lines_written == 20_000
            assert sorted(sink._templates) == [
                ("packet.drop", "link", "reason"),
                ("packet.drop", "link", "reason", "size"),
                ("packet.enqueue", "link", "size", "queue"),
                ("sample", "series", "value"),
            ]
        assert path.read_text().count("\n") == 20_000

    def test_field_order_is_part_of_the_shape_but_not_of_the_line(self, tmp_path):
        a = {"link": "a->b", "size": 100}
        b = {"size": 100, "link": "a->b"}
        text = written(tmp_path, [("packet.deliver", 1.0, a), ("packet.deliver", 1.0, b)])
        first, second = text.splitlines()
        assert first == second == '{"event":"packet.deliver","link":"a->b","size":100,"t":1.0}'

    def test_a_whole_probed_run_equals_the_reference_sink(self, tmp_path, monkeypatch):
        """Every in-tree probe site and sampler, through the scenario wiring:
        the trace file is the reference sink's, byte for byte."""
        from repro.scenario import get_preset, run
        from repro.scenario import telemetry as wiring

        def trace(name):
            spec = get_preset("dumbbell_bulk")
            spec.stop.until = 6.0
            path = tmp_path / name
            result = run(spec, seed=spec.seed, trace_path=str(path))
            return result.to_json(), path.read_bytes()

        result, compiled = trace("compiled.jsonl")
        monkeypatch.setattr(wiring, "JsonlSink", ReferenceSink)
        reference_result, reference = trace("reference.jsonl")
        assert compiled == reference and compiled.count(b"\n") > 2000
        assert result == reference_result
        events = {json.loads(line)["event"] for line in compiled.splitlines()}
        assert {"sample", "cm.grant", "cm.congestion", "tcp.transmit", "packet.enqueue",
                "packet.deliver", "packet.drop"} <= events


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
