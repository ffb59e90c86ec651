"""Packet-pool contract: no aliasing, no double-release, no leaks.

The pool's safety argument is a three-state machine per packet (unmanaged /
live / free): acquire may only hand out free or brand-new packets, release
may only park live ones.  These tests pin the two failure modes that would
silently corrupt a simulation — an acquire returning a packet somebody still
holds (aliasing), and a pooled packet never coming back (a leak, which in a
long scenario turns the "pool" back into an allocator).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Simulator, build_graph
from repro.netsim.packet import Packet, PacketPool, pool_for
from repro.transport.tcp import RenoTCPSender, TCPListener


class TestPoolStateMachine:
    def test_acquire_creates_then_reuses(self):
        pool = PacketPool()
        first = pool.acquire("a", "b", 1, 2, 100)
        assert pool.created == 1 and pool.reused == 0
        pool.release(first)
        again = pool.acquire("c", "d", 3, 4, 200)
        assert again is first  # recycled, not reallocated
        assert pool.created == 1 and pool.reused == 1
        assert (again.src, again.dst, again.payload_bytes) == ("c", "d", 200)
        assert again.ecn_marked is False and again.flow_id is None

    def test_stored_size_tracks_payload_through_reuse_and_reassignment(self):
        # ``size`` is a stored field (both kernels and every hop read it); it
        # must agree with header_bytes + payload_bytes whenever either is
        # looked at: fresh, recycled with another payload, and reassigned.
        pool = PacketPool()
        segment = pool.acquire("a", "b", 1, 2, 1448)
        assert segment.size == segment.header_bytes + segment.payload_bytes == 52 + 1448
        pool.release(segment)
        ack = pool.acquire("b", "a", 2, 1)
        assert ack is segment
        assert ack.size == ack.header_bytes + ack.payload_bytes == 52
        ack.payload_bytes = 700
        assert ack.payload_bytes == 700
        assert ack.size == ack.header_bytes + ack.payload_bytes == 752
        datagram = Packet(src="a", dst="b", sport=1, dport=2, protocol="udp", payload_bytes=172)
        assert datagram.size == datagram.header_bytes + datagram.payload_bytes == 28 + 172
        datagram.payload_bytes = 0
        assert datagram.size == datagram.header_bytes == 28
        assert Packet(src="a", dst="b", sport=1, dport=2, protocol="tcp").size == 52

    def test_release_of_unmanaged_packet_is_noop(self):
        pool = PacketPool()
        packet = Packet(src="a", dst="b", sport=1, dport=2, protocol="tcp")
        pool.release(packet)
        assert pool.free_count == 0 and pool.released == 0

    def test_double_release_raises(self):
        pool = PacketPool()
        packet = pool.acquire("a", "b", 1, 2)
        pool.release(packet)
        with pytest.raises(RuntimeError):
            pool.release(packet)

    def test_pool_for_is_per_simulator_and_idempotent(self):
        sim_a, sim_b = Simulator(), Simulator()
        pool_a = pool_for(sim_a)
        assert pool_for(sim_a) is pool_a
        assert pool_for(sim_b) is not pool_a

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=200), st.randoms())
    def test_acquire_release_interleavings_never_alias_a_live_packet(self, ops, rng):
        # Drive the pool through an arbitrary acquire/release interleaving
        # (True = acquire, False = release a randomly chosen live packet).
        # At every step, each acquired packet must be distinct from every
        # packet currently held live — an acquire that returns an object
        # somebody still references would let two "packets" share one body.
        pool = PacketPool()
        live = []
        for acquire in ops:
            if acquire or not live:
                packet = pool.acquire("s", "d", 1, 2, 100)
                assert all(packet is not held for held in live)
                live.append(packet)
            else:
                pool.release(live.pop(rng.randrange(len(live))))
            assert pool.live_count == len(live)
        # Conservation: everything ever created is either live or free.
        assert pool.created == len(live) + pool.free_count


def _run_transfer(nbytes: int = 200_000):
    sim = Simulator()
    net = build_graph(sim, [{"name": "snd", "addr": "10.0.0.1"},
                            {"name": "rcv", "addr": "10.0.0.2"}],
                      [{"a": "snd", "b": "rcv", "rate_bps": 8e6, "delay": 0.01,
                        "queue_limit": 20, "loss_rate": 0.02}], seed=7)
    sender_host, receiver_host = net.hosts["snd"], net.hosts["rcv"]
    TCPListener(receiver_host, port=80)
    sender = RenoTCPSender(sender_host, receiver_host.addr, 80)
    sender.send(nbytes)
    sim.run()
    assert sender.done
    return sim


class TestPoolLeaks:
    def test_pool_returns_to_baseline_after_a_drained_run(self):
        # Once the simulator drains, every TCP segment ever acquired must be
        # back on the free list: delivered segments are released by the IP
        # input path, lost ones by the link drop paths.
        sim = _run_transfer()
        pool = sim.packet_pool
        assert pool is not None and pool.reused > 0
        assert pool.live_count == 0
        assert pool.free_count == pool.created
        # The whole transfer ran on a handful of recycled segments.
        assert pool.created < 50

    def test_back_to_back_runs_recycle_in_identical_order(self):
        # Pooling must not break run-to-run determinism: the pool hangs off
        # the simulator, so two identical runs see identical recycling.
        stats = []
        for _ in range(2):
            pool = _run_transfer().packet_pool
            stats.append((pool.created, pool.reused, pool.released))
        assert stats[0] == stats[1]

    def test_scenario_run_accounts_for_every_pooled_packet(self):
        # A scenario stops at its horizon with packets still on the wire, so
        # the pool cannot be fully idle — but every live packet must be
        # physically inside a link (queued, serialising or propagating).
        # Anything else is a leak.
        from repro.scenario import get_preset
        from repro.scenario.builder import build
        from repro.scenario.runner import run_built

        scenario = build(get_preset("parking_lot_mix"))
        run_built(scenario)
        pool = scenario.sim.packet_pool
        assert pool is not None and pool.reused > 0

        in_links = 0
        for link in scenario.graph_net.links.values():
            queued = [packet for packet, _ in link._queue]
            serialising = [link._tx_packet] if link._busy else []
            for packet in queued + serialising + link.propagating():
                if packet._pool_state == 1:
                    in_links += 1
        assert pool.live_count == in_links
