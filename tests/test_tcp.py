"""Integration tests for TCP: the Reno baseline and TCP/CM."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CongestionManager, HostCosts
from repro.netsim import Host, Simulator
from repro.transport.tcp import CMTCPSender, RenoTCPSender, TCPListener
from repro.transport.tcp.sender import TCPSenderBase
from repro.transport.tcp.tcp_cm import MAX_PENDING_REQUESTS


def run_transfer(pair, variant, nbytes, port=80, timeout=600.0, **sender_kwargs):
    listener = TCPListener(pair.receiver, port)
    if variant == "cm":
        sender = CMTCPSender(pair.sender, pair.receiver.addr, port, **sender_kwargs)
    else:
        sender = RenoTCPSender(pair.sender, pair.receiver.addr, port, **sender_kwargs)
    sender.send(nbytes)
    pair.sim.run(until=pair.sim.now + timeout)
    return sender, listener


class TestRenoTCP:
    def test_lossless_transfer_delivers_everything(self, make_pair):
        pair = make_pair(one_way_delay=0.005)
        sender, listener = run_transfer(pair, "linux", 500_000, receive_window=64 * 1024)
        assert sender.done
        assert listener.total_bytes_received == 500_000
        assert sender.retransmissions == 0

    def test_transfer_reliable_under_loss(self, make_pair):
        pair = make_pair(loss_rate=0.03, one_way_delay=0.01, seed=4)
        sender, listener = run_transfer(pair, "linux", 300_000)
        assert sender.done
        assert listener.total_bytes_received == 300_000
        assert sender.retransmissions > 0

    def test_receive_window_caps_throughput(self, make_pair):
        # 60 ms RTT and a 16 KB window cap the rate near rwnd / RTT.
        pair = make_pair(one_way_delay=0.03, rate_bps=100e6)
        sender, _ = run_transfer(pair, "linux", 400_000, receive_window=16 * 1024)
        expected = 16 * 1024 / 0.06
        assert sender.throughput() < expected * 1.2

    def test_fast_retransmit_triggered_by_dupacks(self, make_pair):
        pair = make_pair(loss_rate=0.02, one_way_delay=0.01, seed=8)
        sender, _ = run_transfer(pair, "linux", 400_000)
        assert sender.fast_retransmits > 0

    def test_timeout_recovery_on_heavy_loss(self, make_pair):
        pair = make_pair(loss_rate=0.15, one_way_delay=0.005, seed=3)
        sender, listener = run_transfer(pair, "linux", 100_000, timeout=900.0)
        assert sender.done
        assert listener.total_bytes_received == 100_000
        assert sender.timeouts > 0

    def test_initial_window_is_two_segments(self, make_pair):
        pair = make_pair()
        sender = RenoTCPSender(pair.sender, pair.receiver.addr, 80)
        assert sender.cwnd == 2 * sender.mss

    def test_completion_callback_and_throughput(self, make_pair):
        pair = make_pair(one_way_delay=0.005)
        done_at = []
        listener = TCPListener(pair.receiver, 80)
        sender = RenoTCPSender(pair.sender, pair.receiver.addr, 80)
        sender.on_complete = done_at.append
        sender.send(100_000)
        pair.sim.run(until=60.0)
        assert done_at and done_at[0] == sender.complete_time
        assert sender.throughput() > 0
        del listener

    def test_send_after_close_rejected(self, make_pair):
        pair = make_pair()
        sender = RenoTCPSender(pair.sender, pair.receiver.addr, 80)
        sender.close()
        with pytest.raises(RuntimeError):
            sender.send(10)

    def test_connection_handshake_takes_an_rtt(self, make_pair):
        pair = make_pair(one_way_delay=0.05)
        listener = TCPListener(pair.receiver, 80)
        sender = RenoTCPSender(pair.sender, pair.receiver.addr, 80)
        sender.send(1000)
        pair.sim.run(until=5.0)
        assert sender.established_time == pytest.approx(0.1, abs=0.02)
        del listener

    def test_syn_retransmitted_when_lost(self, make_pair):
        pair = make_pair(loss_rate=0.0, one_way_delay=0.01)
        # Drop the first packet deterministically by making the queue tiny
        # and pre-filling it is awkward; instead use a very lossy channel
        # with a seed known to drop the SYN.
        lossy = make_pair  # placeholder to keep fixture referenced
        del lossy
        pair.forward.loss_rate = 0.9
        listener = TCPListener(pair.receiver, 80)
        sender = RenoTCPSender(pair.sender, pair.receiver.addr, 80)
        sender.send(1000)
        pair.sim.run(until=0.5)
        pair.forward.loss_rate = 0.0
        pair.sim.run(until=30.0)
        assert sender.connected
        del listener


class TestCMTCP:
    def test_requires_cm_on_host(self, make_pair):
        pair = make_pair(with_cm=False)
        with pytest.raises(RuntimeError):
            CMTCPSender(pair.sender, pair.receiver.addr, 80)

    def test_lossless_transfer_matches_reno_closely(self, make_pair, sim):
        pair = make_pair(with_cm=True, one_way_delay=0.005)
        cm_sender, cm_listener = run_transfer(pair, "cm", 500_000, port=80, receive_window=64 * 1024)
        linux_sender, linux_listener = run_transfer(pair, "linux", 500_000, port=81, receive_window=64 * 1024)
        assert cm_sender.done and linux_sender.done
        assert cm_listener.total_bytes_received == 500_000
        ratio = cm_sender.throughput() / linux_sender.throughput()
        assert 0.7 < ratio < 1.3
        del linux_listener

    def test_transfer_reliable_under_loss(self, make_pair):
        pair = make_pair(with_cm=True, loss_rate=0.03, one_way_delay=0.01, seed=6)
        sender, listener = run_transfer(pair, "cm", 300_000)
        assert sender.done
        assert listener.total_bytes_received == 300_000

    def test_congestion_control_lives_in_the_macroflow(self, make_pair):
        pair = make_pair(with_cm=True, one_way_delay=0.005)
        sender, _ = run_transfer(pair, "cm", 200_000)
        macroflow_state = [m for m in pair.cm.macroflows if m.bytes_sent_total > 0]
        assert macroflow_state, "the transfer must have been charged to a macroflow"
        assert macroflow_state[0].bytes_acked_total > 0

    def test_flow_closed_with_sender(self, make_pair):
        pair = make_pair(with_cm=True)
        sender = CMTCPSender(pair.sender, pair.receiver.addr, 80)
        assert pair.cm.open_flow_count == 1
        sender.close()
        assert pair.cm.open_flow_count == 0

    def test_grant_arriving_after_close_is_declined_quietly(self, make_pair):
        """Regression: cmapp_send callbacks are deferred (call-soon), so a
        grant can land after close() has retired the CM flow; the decline
        must not crash on the unknown flow id."""
        pair = make_pair(with_cm=True)
        listener = TCPListener(pair.receiver, 80)
        sender = CMTCPSender(pair.sender, pair.receiver.addr, 80)
        sender.send(2_000)
        pair.sim.run(until=2.0)
        assert sender.done
        # Queue one more grant, then close before the deferred callback runs.
        pair.cm.cm_request(sender.flow_id)
        sender.close()
        pair.sim.run()  # must not raise UnknownFlowError
        assert sender.declined_grants >= 1
        listener.close()

    def test_only_the_after_close_race_is_tolerated_on_query_and_close(self, make_pair, monkeypatch):
        """`_current_rto` (one cm_query per transmitted segment) and `_on_close`
        tolerate a flow the CM has already retired, and nothing else: a
        programming error inside the CM must not read as "use the local RTO"."""
        pair = make_pair(with_cm=True)
        sender = CMTCPSender(pair.sender, pair.receiver.addr, 80)
        local_rto = TCPSenderBase._current_rto(sender)

        def broken(_flow_id):
            raise ZeroDivisionError("bug inside the CM")

        monkeypatch.setattr(pair.cm, "cm_query", broken)
        with pytest.raises(ZeroDivisionError):
            sender._current_rto()
        monkeypatch.setattr(pair.cm, "cm_close", broken)
        with pytest.raises(ZeroDivisionError):
            sender._on_close()
        monkeypatch.undo()

        pair.cm.cm_close(sender.flow_id)  # an explicit caller got there first
        assert sender._current_rto() == local_rto
        sender.close()  # _on_close meets the unknown flow id and carries on
        assert sender.closed

    def test_sequential_connections_share_congestion_state(self, make_pair):
        """The Figure 7 mechanism: the second connection skips slow start."""
        pair = make_pair(with_cm=True, one_way_delay=0.04, rate_bps=16e6)
        first, first_listener = run_transfer(pair, "cm", 128 * 1024, port=80, timeout=60.0)
        assert first.done
        first_duration = first.complete_time - first.connect_time
        first.close()
        second, second_listener = run_transfer(pair, "cm", 128 * 1024, port=81, timeout=60.0)
        assert second.done
        second_duration = second.complete_time - second.connect_time
        assert second_duration < 0.7 * first_duration
        del first_listener, second_listener

    def test_concurrent_cm_flows_split_the_macroflow_window(self, make_pair):
        pair = make_pair(with_cm=True, one_way_delay=0.01, rate_bps=8e6)
        listener_a = TCPListener(pair.receiver, 80)
        listener_b = TCPListener(pair.receiver, 81)
        a = CMTCPSender(pair.sender, pair.receiver.addr, 80)
        b = CMTCPSender(pair.sender, pair.receiver.addr, 81)
        a.send(2_000_000)
        b.send(2_000_000)
        pair.sim.run(until=4.0)
        total = a.bytes_acked + b.bytes_acked
        assert total > 0
        share = a.bytes_acked / total
        assert 0.3 < share < 0.7
        del listener_a, listener_b

    def test_uses_shared_rtt_for_rto(self, make_pair):
        pair = make_pair(with_cm=True, one_way_delay=0.04)
        # Seed the macroflow with RTT knowledge from a previous flow.
        warm = pair.cm.cm_open(pair.sender.addr, pair.receiver.addr, 999, 999, "udp")
        pair.cm.cm_update(warm, 0, 0, "no_congestion", 0.08)
        sender = CMTCPSender(pair.sender, pair.receiver.addr, 80)
        assert sender._current_rto() >= 0.08

    def test_transfer_with_ecn_marking(self, make_pair):
        pair = make_pair(with_cm=True, one_way_delay=0.01, ecn_threshold=5, queue_limit=30)
        listener = TCPListener(pair.receiver, 80)
        sender = CMTCPSender(pair.sender, pair.receiver.addr, 80, ecn=True)
        sender.send(1_000_000)
        pair.sim.run(until=120.0)
        assert sender.done
        assert listener.total_bytes_received == 1_000_000


class TestReceiver:
    def test_out_of_order_reassembly(self, make_pair):
        pair = make_pair(loss_rate=0.05, one_way_delay=0.01, seed=12)
        sender, listener = run_transfer(pair, "linux", 200_000)
        assert sender.done
        connection = next(iter(listener.connections.values()))
        assert connection.bytes_received == 200_000
        assert connection.dup_acks_sent > 0

    def test_delayed_acks_reduce_ack_count(self, make_pair):
        pair = make_pair(one_way_delay=0.005)
        delayed_sender, delayed_listener = run_transfer(pair, "linux", 400_000, port=80)
        pair2_listener = TCPListener(pair.receiver, 81, delayed_acks=False)
        nodelay_sender = RenoTCPSender(pair.sender, pair.receiver.addr, 81)
        nodelay_sender.send(400_000)
        pair.sim.run(until=pair.sim.now + 300.0)
        delayed_conn = next(iter(delayed_listener.connections.values()))
        nodelay_conn = next(iter(pair2_listener.connections.values()))
        assert delayed_conn.acks_sent < nodelay_conn.acks_sent
        del delayed_sender, nodelay_sender

    def test_data_callback_reports_bytes(self, make_pair):
        pair = make_pair(one_way_delay=0.005)
        seen = []
        listener = TCPListener(pair.receiver, 80, on_data=lambda n, t: seen.append(n))
        sender = RenoTCPSender(pair.sender, pair.receiver.addr, 80)
        sender.send(50_000)
        pair.sim.run(until=30.0)
        assert sum(seen) == 50_000
        del listener


# --------------------------------------------------------------------------- #
# The sender's window arithmetic, written out inline on the segment path, is   #
# the helper chain it replaced (``docs/cm_api_path.md``, round two).           #
# --------------------------------------------------------------------------- #
def _usable_window_bytes(sender):
    return max(0, sender.snd_una + sender.receive_window - sender.snd_nxt)


def _next_new_segment_length(sender):
    """``TCPSenderBase._next_new_segment_length`` as it was, helper by helper."""
    remaining = sender.app_limit - sender.snd_nxt
    if remaining <= 0:
        return 0
    desired = min(sender.mss, remaining)
    usable = _usable_window_bytes(sender)
    if usable >= desired:
        return desired
    if sender.flight_size == 0:
        return min(desired, usable)
    return 0


def _requests_needed(sender):
    """What ``_segments_wanted`` / ``_request_transmissions`` asked the CM for."""
    wanted = 0
    sendable_new = min(sender.app_limit - sender.snd_nxt, _usable_window_bytes(sender))
    if sendable_new > 0:
        wanted += -(-sendable_new // sender.mss)
    return max(0, min(wanted, MAX_PENDING_REQUESTS) - sender._requests_outstanding)


@settings(max_examples=400, deadline=None)
@given(
    snd_una=st.integers(min_value=0, max_value=200_000),
    flight=st.integers(min_value=-3000, max_value=70_000),
    backlog=st.integers(min_value=-3000, max_value=200_000),
    receive_window=st.sampled_from([0, 1, 536, 1448, 4000, 8192, 65_535, 1 << 20]),
    mss=st.sampled_from([1, 536, 1448]),
    outstanding=st.integers(min_value=0, max_value=MAX_PENDING_REQUESTS + 2),
)
def test_inlined_window_arithmetic_equals_the_helper_chain(
        snd_una, flight, backlog, receive_window, mss, outstanding):
    sim = Simulator()
    host = Host(sim, "sender", "10.0.0.1", costs=HostCosts())
    CongestionManager(host)
    sender = CMTCPSender(host, "10.0.0.2", 80, mss=mss, receive_window=receive_window)
    sender.snd_una = snd_una
    sender.snd_nxt = snd_una + flight
    sender.app_limit = sender.snd_nxt + backlog
    sender._requests_outstanding = outstanding
    assert sender._next_new_segment_length() == _next_new_segment_length(sender)

    needed = _requests_needed(sender)
    asked = []
    sender.cm.cm_request = lambda flow_id: asked.append(
        (flow_id, sender._requests_outstanding))
    sender._request_transmissions()
    # One cm_request per missing request, the counter raised before each call.
    assert asked == [(sender.flow_id, outstanding + k) for k in range(1, needed + 1)]
    assert sender._requests_outstanding == outstanding + needed
