"""Tests for the application case studies: layered streaming, vat, web server, bulk, API apps."""

from dataclasses import fields

import pytest

from repro.apps import (
    AudioBuffer,
    BulkTransferApp,
    FileServer,
    LayeredStreamingServer,
    Policer,
    TCPApiTestApp,
    UDPApiTestApp,
    VatApplication,
    WebClient,
)
from repro.apps.alfapp import ApiOverheadResult
from repro.experiments.topology import lan_pair_spec
from repro.scenario import AppSpec, StopSpec, build, run_built
from repro.transport.udp import AckReflector


class TestPolicerAndBuffer:
    def test_policer_admits_at_configured_rate(self):
        policer = Policer(initial_rate=1000.0, bucket_depth=500)
        admitted = sum(policer.admit(100, now=t * 0.1) for t in range(100))
        # 10 seconds at 1000 B/s admits about 100 * 100-byte frames worth.
        assert 80 <= admitted <= 100

    def test_policer_drops_excess(self):
        policer = Policer(initial_rate=100.0, bucket_depth=100)
        results = [policer.admit(100, now=0.001 * i) for i in range(50)]
        assert results.count(False) > 0
        assert policer.dropped == results.count(False)

    def test_policer_rate_can_change(self):
        policer = Policer(initial_rate=100.0)
        policer.set_rate(10_000.0)
        assert policer.rate == 10_000.0
        policer.set_rate(-5)
        assert policer.rate == 0.0

    def test_buffer_drop_from_head_keeps_newest(self):
        buffer = AudioBuffer(capacity_frames=2, policy=AudioBuffer.DROP_FROM_HEAD)
        for seq in range(4):
            buffer.push(seq, generated_at=seq * 0.02)
        assert buffer.drops == 2
        assert buffer.pop()[0] == 2
        assert buffer.pop()[0] == 3

    def test_buffer_drop_tail_keeps_oldest(self):
        buffer = AudioBuffer(capacity_frames=2, policy=AudioBuffer.DROP_TAIL)
        for seq in range(4):
            buffer.push(seq, generated_at=0.0)
        assert buffer.pop()[0] == 0
        assert buffer.pop()[0] == 1

    def test_buffer_validation(self):
        with pytest.raises(ValueError):
            AudioBuffer(capacity_frames=0)
        with pytest.raises(ValueError):
            AudioBuffer(policy="random-drop")

    def test_buffer_pop_empty(self):
        assert AudioBuffer().pop() is None


class TestVat:
    def test_requires_cm(self, make_pair):
        pair = make_pair(with_cm=False)
        with pytest.raises(RuntimeError):
            VatApplication(pair.sender, pair.receiver.addr, 4000)

    def test_uncongested_path_delivers_nearly_everything(self, cm_pair):
        reflector = AckReflector(cm_pair.receiver, 4000)
        vat = VatApplication(cm_pair.sender, cm_pair.receiver.addr, 4000)
        vat.start()
        cm_pair.sim.run(until=10.0)
        vat.stop()
        assert vat.frames_generated >= 490
        delivered_fraction = vat.frames_sent / vat.frames_generated
        assert delivered_fraction > 0.95
        assert vat.mean_delivery_delay() < 0.1
        reflector.close()

    def test_constrained_path_polices_preemptively(self, make_pair):
        pair = make_pair(with_cm=True, rate_bps=48e3, one_way_delay=0.025, queue_limit=10)
        reflector = AckReflector(pair.receiver, 4000)
        vat = VatApplication(pair.sender, pair.receiver.addr, 4000)
        vat.start()
        pair.sim.run(until=20.0)
        vat.stop()
        # The 64 kbit/s source does not fit in 48 kbit/s: the policer must
        # shed load, and the CM must have told it about the lower rate.
        assert vat.frames_dropped_by_policer > 0
        assert len(vat.rate_updates) > 0
        assert vat.frames_sent < vat.frames_generated
        reflector.close()

    def test_stop_is_idempotent(self, cm_pair):
        reflector = AckReflector(cm_pair.receiver, 4000)
        vat = VatApplication(cm_pair.sender, cm_pair.receiver.addr, 4000)
        vat.start()
        cm_pair.sim.run(until=1.0)
        vat.stop()
        vat.stop()
        reflector.close()


class TestLayeredStreaming:
    def test_alf_mode_adapts_upwards(self, cm_pair):
        reflector = AckReflector(cm_pair.receiver, 9001)
        server = LayeredStreamingServer(cm_pair.sender, cm_pair.receiver.addr, 9001, mode="alf")
        server.start()
        cm_pair.sim.run(until=8.0)
        server.stop()
        assert server.packets_sent > 100
        assert server.current_layer > 0
        assert reflector.packets_received > 0
        reflector.close()

    def test_rate_mode_uses_fewer_notifications(self, make_pair):
        pair_alf = make_pair(with_cm=True, rate_bps=16e6, one_way_delay=0.02)
        reflector = AckReflector(pair_alf.receiver, 9001)
        alf = LayeredStreamingServer(pair_alf.sender, pair_alf.receiver.addr, 9001, mode="alf")
        rate = LayeredStreamingServer(pair_alf.sender, pair_alf.receiver.addr, 9001, mode="rate")
        alf.start()
        rate.start()
        pair_alf.sim.run(until=5.0)
        alf.stop()
        rate.stop()
        # The ALF sender consults the CM per packet; the rate-callback sender
        # only hears about significant changes.
        assert len(rate.reported_rates) < len(alf.reported_rates)
        reflector.close()

    def test_layer_selection_is_monotone_in_rate(self, cm_pair):
        reflector = AckReflector(cm_pair.receiver, 9001)
        server = LayeredStreamingServer(cm_pair.sender, cm_pair.receiver.addr, 9001)
        layers = [server.layer_for_rate(r) for r in (0, 1e5, 3e5, 6e5, 1.2e6, 3e6)]
        assert layers == sorted(layers)
        assert layers[0] == 0
        assert layers[-1] == len(server.layer_rates) - 1
        reflector.close()

    def test_invalid_mode_rejected(self, cm_pair):
        with pytest.raises(ValueError):
            LayeredStreamingServer(cm_pair.sender, cm_pair.receiver.addr, 9001, mode="magic")


class TestWebServerClient:
    def test_fetch_completes_and_is_timed(self, make_pair):
        pair = make_pair(with_cm=True, one_way_delay=0.02, rate_bps=16e6)
        server = FileServer(pair.sender, 80, variant="cm")
        client = WebClient(pair.receiver, pair.sender.addr, 80)
        record = client.fetch(64 * 1024)
        pair.sim.run(until=30.0)
        assert record.done
        assert record.duration > 2 * 0.02  # at least request + handshake RTTs
        assert server.requests_served == 1
        server.close()
        client.close()

    def test_cm_server_speeds_up_later_requests(self, make_pair):
        durations = {}
        for variant in ("cm", "linux"):
            pair = make_pair(with_cm=(variant == "cm"), one_way_delay=0.04, rate_bps=16e6, seed=3)
            server = FileServer(pair.sender, 80, variant=variant)
            client = WebClient(pair.receiver, pair.sender.addr, 80)
            for i in range(4):
                pair.sim.schedule(i * 0.5, client.fetch, 128 * 1024)
            pair.sim.run(until=pair.sim.now + 30.0)
            durations[variant] = [f.duration for f in client.fetches]
            server.close()
            client.close()
        assert durations["cm"][-1] < durations["linux"][-1]

    def test_linux_variant_needs_no_cm(self, make_pair):
        pair = make_pair(with_cm=False)
        FileServer(pair.sender, 80, variant="linux")

    def test_cm_variant_requires_cm(self, make_pair):
        pair = make_pair(with_cm=False)
        with pytest.raises(RuntimeError):
            FileServer(pair.sender, 80, variant="cm")

    def test_bad_requests_ignored(self, make_pair):
        pair = make_pair(with_cm=True)
        server = FileServer(pair.sender, 80, variant="cm")
        from repro.transport.udp import UDPSocket

        probe = UDPSocket(pair.receiver)
        probe.sendto(10, pair.sender.addr, 80, headers={})
        pair.sim.run(until=1.0)
        assert server.requests_served == 0


def run_on_lan(*apps, until=300.0):
    """Build the LAN pair (CM on the sender) with ``apps``; run it to completion."""
    spec = lan_pair_spec(cm=True, apps=list(apps), stop=StopSpec(until=until, when_apps_done=True))
    scenario = build(spec, seed=0)
    return scenario, run_built(scenario)


def api_result(metrics) -> ApiOverheadResult:
    """The API-overhead measurement inside a ``udp_api`` / ``tcp_api`` metrics dict."""
    return ApiOverheadResult(**{field.name: metrics[field.name] for field in fields(ApiOverheadResult)})


def ledger_at_teardown(scenario, app):
    """Record the sender's ledger at the moment ``app`` starts closing its endpoints."""
    ledger = scenario.host("sender").costs.ledger
    seen = {}
    close = app.app.close

    def record_then_close():
        seen.update(total=ledger.total_us, by_category=ledger.snapshot(),
                    operations=dict(ledger.operation_counts))
        close()

    app.app.close = record_then_close
    return seen


class TestBulkTransfer:
    def test_result_fields(self):
        _, result = run_on_lan(AppSpec(app="bulk", host="sender", peer="receiver", label="ttcp",
                                       params={"nbuffers": 500}))
        metrics = result.app("ttcp")["metrics"]
        assert metrics["completed"]
        assert metrics["total_bytes"] == 500 * 1448
        assert metrics["throughput"] > 0
        assert 0 <= metrics["cpu_utilization"] <= 1
        assert metrics["cpu_by_category"]

    def test_invalid_arguments(self, make_pair):
        pair = make_pair(with_cm=True)
        with pytest.raises(ValueError):
            BulkTransferApp(pair.sender, pair.receiver, variant="quic")
        app = BulkTransferApp(pair.sender, pair.receiver, variant="cm", port=5002)
        with pytest.raises(ValueError):
            app.begin(pair.sim, nbuffers=0)

    def test_cpu_is_the_ledger_delta_of_the_transfer_not_its_teardown(self):
        spec = lan_pair_spec(cm=True, stop=StopSpec(until=300.0), apps=[
            AppSpec(app="bulk", host="sender", peer="receiver", label="ttcp",
                    params={"nbuffers": 300})])
        scenario = build(spec, seed=0)
        ledger = scenario.host("sender").costs.ledger
        before = ledger.snapshot()
        at_close = ledger_at_teardown(scenario, scenario.apps[0])
        measured = run_built(scenario).app("ttcp")["metrics"]["cpu_by_category"]
        expected = {category: value - before.get(category, 0.0)
                    for category, value in at_close["by_category"].items()
                    if value - before.get(category, 0.0) > 0}
        assert measured == expected
        # Closing the connection charged the CM (cm_close) after the mark was read.
        assert ledger.snapshot()["cm"] > at_close["by_category"]["cm"]


class TestApiOverheadApps:
    @pytest.mark.parametrize("variant", ["alf", "alf_noconnect", "buffered"])
    def test_udp_variants_complete(self, variant):
        _, result = run_on_lan(
            AppSpec(app="ack_reflector", host="receiver", params={"port": 7001}),
            AppSpec(app="udp_api", host="sender", peer="receiver", label="api", params={
                "port": 7001, "variant": variant, "packet_size": 500, "npackets": 200}))
        outcome = api_result(result.app("api")["metrics"])
        assert outcome.completed
        assert outcome.packets_sent == 200
        assert outcome.cpu_us_per_packet > 0
        # Wire time of one 500 B datagram (+28 B of headers) on the 100 Mbit/s hop.
        assert outcome.wire_us_per_packet == pytest.approx(528 * 8 / 100e6 * 1e6)

    def test_noconnect_costs_more_ioctls_than_connected(self):
        results = {}
        for variant in ("alf", "alf_noconnect"):
            _, result = run_on_lan(
                AppSpec(app="ack_reflector", host="receiver", params={"port": 7001}),
                AppSpec(app="udp_api", host="sender", peer="receiver", label="api", params={
                    "port": 7001, "variant": variant, "packet_size": 500, "npackets": 200}))
            results[variant] = api_result(result.app("api")["metrics"])
        assert results["alf_noconnect"].ops_per_packet("ioctl") > results["alf"].ops_per_packet("ioctl")
        assert results["alf_noconnect"].us_per_packet > results["alf"].us_per_packet

    @pytest.mark.parametrize("variant", ["tcp_cm", "tcp_cm_nodelay", "tcp_linux"])
    def test_tcp_variants_complete(self, variant):
        _, result = run_on_lan(AppSpec(app="tcp_api", host="sender", peer="receiver", label="api",
                                       params={"variant": variant, "packet_size": 1000,
                                               "npackets": 300}))
        outcome = api_result(result.app("api")["metrics"])
        assert outcome.completed
        assert outcome.packets_sent >= 300

    def test_tcp_cost_is_the_ledger_delta_of_the_transfer_not_its_teardown(self):
        spec = lan_pair_spec(cm=True, stop=StopSpec(until=300.0), apps=[
            AppSpec(app="tcp_api", host="sender", peer="receiver", label="api",
                    params={"packet_size": 1000, "npackets": 200})])
        scenario = build(spec, seed=0)
        ledger = scenario.host("sender").costs.ledger
        total_before, operations_before = ledger.total_us, dict(ledger.operation_counts)
        at_close = ledger_at_teardown(scenario, scenario.apps[0])
        outcome = api_result(run_built(scenario).app("api")["metrics"])
        assert outcome.cpu_us_total == at_close["total"] - total_before
        assert outcome.operation_counts == {
            operation: count - operations_before.get(operation, 0)
            for operation, count in at_close["operations"].items()
            if count != operations_before.get(operation, 0)}
        assert ledger.total_us > at_close["total"]

    def test_unknown_variants_rejected(self, make_pair):
        pair = make_pair(with_cm=True)
        with pytest.raises(ValueError):
            UDPApiTestApp(pair.sender, pair.receiver.addr, 7001, variant="carrier-pigeon",
                          packet_size=100, npackets=1)
        with pytest.raises(ValueError):
            TCPApiTestApp(pair.sender, pair.receiver, variant="sctp", packet_size=100, npackets=1)
