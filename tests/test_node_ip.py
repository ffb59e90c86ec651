"""Tests for hosts, routers, routing and the IP layer (including the cm_notify hook)."""

import pytest

from repro.iplayer import NoRouteError
from repro.netsim import Host, Packet, Router, Simulator, build_graph
from repro.netsim.packet import PROTO_UDP
from repro.scenario import DumbbellSpec, ScenarioSpec, SpecError, build


def udp_packet(src, dst, sport=1000, dport=2000, payload=100, **kw):
    return Packet(src=src, dst=dst, sport=sport, dport=dport,
                  protocol=PROTO_UDP, payload_bytes=payload, **kw)


class TestHostRouting:
    def test_pair_link_installs_routes_both_ways(self, make_pair):
        pair = make_pair()
        assert pair.sender.route_for(pair.receiver.addr) is pair.forward
        assert pair.receiver.route_for(pair.sender.addr) is pair.reverse

    def test_default_route_used_for_unknown_destination(self, make_pair):
        pair = make_pair()
        pair.sender.set_default_route(pair.forward)
        assert pair.sender.route_for("unknown") is pair.forward

    def test_no_route_raises(self, sim):
        host = Host(sim, "lonely", "10.9.9.9")
        with pytest.raises(NoRouteError):
            host.ip.send(udp_packet(host.addr, "10.0.0.1"))

    def test_allocate_port_monotonic(self, sim):
        host = Host(sim, "h", "10.0.0.1")
        ports = {host.allocate_port() for _ in range(10)}
        assert len(ports) == 10


class TestPerSimulatorPacketIds:
    def _send_some(self):
        sim = Simulator()
        net = build_graph(sim, [{"name": "sender", "addr": "10.0.0.1"},
                                {"name": "receiver", "addr": "10.0.0.2"}],
                          [{"a": "sender", "b": "receiver", "rate_bps": 10e6, "delay": 0.01}])
        sender, receiver = net.hosts["sender"], net.hosts["receiver"]
        got = []
        receiver.ip.register_handler(PROTO_UDP, 2000, got.append)
        for _ in range(3):
            sender.ip.send(udp_packet(sender.addr, receiver.addr))
        sim.run()
        return [p.packet_id for p in got]

    def test_sent_packet_ids_restart_per_simulator(self):
        # Ids on the wire come from the simulator, not a process-global
        # counter: back-to-back identical simulations must see identical
        # ids, no matter how many packets earlier runs created.
        first = self._send_some()
        second = self._send_some()
        assert first == [1, 2, 3]
        assert first == second

    def test_construction_ids_still_unique_without_a_simulator(self):
        a = udp_packet("10.0.0.1", "10.0.0.2")
        b = udp_packet("10.0.0.1", "10.0.0.2")
        assert a.packet_id != b.packet_id


class TestIPDemux:
    def test_delivery_to_registered_handler(self, make_pair):
        pair = make_pair()
        got = []
        pair.receiver.ip.register_handler(PROTO_UDP, 2000, got.append)
        pair.sender.ip.send(udp_packet(pair.sender.addr, pair.receiver.addr))
        pair.sim.run()
        assert len(got) == 1
        assert pair.receiver.ip.packets_received == 1

    def test_wildcard_port_handler(self, make_pair):
        pair = make_pair()
        got = []
        pair.receiver.ip.register_handler(PROTO_UDP, 0, got.append)
        pair.sender.ip.send(udp_packet(pair.sender.addr, pair.receiver.addr, dport=7777))
        pair.sim.run()
        assert len(got) == 1

    def test_unregistered_port_counted_as_no_handler(self, make_pair):
        pair = make_pair()
        pair.sender.ip.send(udp_packet(pair.sender.addr, pair.receiver.addr, dport=9))
        pair.sim.run()
        assert pair.receiver.ip.packets_no_handler == 1

    def test_duplicate_registration_rejected(self, make_pair):
        pair = make_pair()
        pair.receiver.ip.register_handler(PROTO_UDP, 2000, lambda p: None)
        with pytest.raises(ValueError):
            pair.receiver.ip.register_handler(PROTO_UDP, 2000, lambda p: None)

    def test_unregister_then_reregister(self, make_pair):
        pair = make_pair()
        pair.receiver.ip.register_handler(PROTO_UDP, 2000, lambda p: None)
        pair.receiver.ip.unregister_handler(PROTO_UDP, 2000)
        pair.receiver.ip.register_handler(PROTO_UDP, 2000, lambda p: None)

    def test_misdelivered_packet_dropped_silently(self, make_pair):
        pair = make_pair()
        packet = udp_packet(pair.sender.addr, "10.99.99.99")
        pair.sender.add_route("10.99.99.99", pair.forward)
        pair.sender.ip.send(packet)
        pair.sim.run()
        assert pair.receiver.ip.packets_received == 0

    def test_kernel_costs_charged_per_packet(self, make_pair):
        pair = make_pair()
        pair.receiver.ip.register_handler(PROTO_UDP, 2000, lambda p: None)
        before = pair.sender.costs.total_us
        pair.sender.ip.send(udp_packet(pair.sender.addr, pair.receiver.addr))
        assert pair.sender.costs.total_us > before


class TestCmNotifyHook:
    def test_matchable_packet_notifies_cm(self, cm_pair):
        cm = cm_pair.cm
        flow_id = cm.cm_open(cm_pair.sender.addr, cm_pair.receiver.addr, 1000, 2000, PROTO_UDP)
        packet = udp_packet(cm_pair.sender.addr, cm_pair.receiver.addr, 1000, 2000, payload=500)
        cm_pair.sender.ip.send(packet)
        assert packet.flow_id == flow_id
        assert cm.macroflow_of(flow_id).outstanding_bytes == 500

    def test_unmatchable_packet_skips_cm(self, cm_pair):
        cm = cm_pair.cm
        flow_id = cm.cm_open(cm_pair.sender.addr, cm_pair.receiver.addr, 1000, 2000, PROTO_UDP)
        packet = udp_packet(cm_pair.sender.addr, cm_pair.receiver.addr, 1000, 2000,
                            payload=500, cm_matchable=False)
        cm_pair.sender.ip.send(packet)
        assert packet.flow_id is None
        assert cm.macroflow_of(flow_id).outstanding_bytes == 0

    def test_packet_for_unknown_flow_not_charged(self, cm_pair):
        packet = udp_packet(cm_pair.sender.addr, cm_pair.receiver.addr, 1, 2)
        cm_pair.sender.ip.send(packet)
        assert packet.flow_id is None


def _dumbbell(n_pairs):
    """A built dumbbell scenario: ``n_pairs`` hosts each side of a 10 Mbit/s bottleneck."""
    return build(ScenarioSpec(name="bell", dumbbell=DumbbellSpec(
        n_pairs=n_pairs, bottleneck_bps=10e6, bottleneck_delay=0.005)))


class TestRouterForwarding:
    def test_dumbbell_end_to_end_delivery(self):
        bell = _dumbbell(2)
        sender, receiver = bell.hosts["sender0"], bell.hosts["receiver1"]
        got = []
        receiver.ip.register_handler(PROTO_UDP, 2000, got.append)
        sender.ip.send(udp_packet(sender.addr, receiver.addr))
        bell.sim.run()
        assert len(got) == 1
        routers = bell.graph_net.nodes
        assert routers["left"].ip.packets_forwarded == 1
        assert routers["right"].ip.packets_forwarded == 1

    def test_router_drops_unroutable_silently(self, sim):
        router = Router(sim, "r")
        router.ip.receive(udp_packet("10.0.0.1", "10.0.0.99"))
        assert router.ip.packets_forwarded == 0

    def test_router_has_no_cpu_accounting(self, sim):
        assert Router(sim, "r").costs is None

    def test_dumbbell_requires_at_least_one_pair(self):
        with pytest.raises(SpecError):
            _dumbbell(0)

    def test_reverse_path_works(self):
        bell = _dumbbell(1)
        sender, receiver = bell.hosts["sender0"], bell.hosts["receiver0"]
        got = []
        sender.ip.register_handler(PROTO_UDP, 5, got.append)
        receiver.ip.send(udp_packet(receiver.addr, sender.addr, dport=5))
        bell.sim.run()
        assert len(got) == 1


class TestGraphNetSetRate:
    def test_set_rate_changes_both_directions(self, make_pair):
        pair = make_pair()
        pair.net.set_rate("sender", "receiver", 5e6)
        assert pair.forward.rate_bps == 5e6
        assert pair.reverse.rate_bps == 5e6

    def test_set_rate_names_the_link_in_either_orientation(self):
        bell = _dumbbell(1)
        net = bell.graph_net
        net.set_rate("right", "left", 2e6)
        assert net.link("left", "right").rate_bps == 2e6
        assert net.link("right", "left").rate_bps == 2e6
        # The access links keep their rate, and no route moves.
        assert net.link("sender0", "left").rate_bps == 1e9
        assert bell.hosts["sender0"].route_for("10.0.2.1") is net.link("sender0", "left")
