#!/usr/bin/env python3
"""Quickstart: an adaptive sender using the Congestion Manager's callback API.

This example builds the smallest complete CM application:

1. a simulated sender and receiver joined by a 2 Mbit/s, 80 ms path;
2. a Congestion Manager installed on the sender;
3. a user-space application (via libcm) that asks the CM for permission to
   send (``cm_request``), transmits one datagram per ``cmapp_send`` grant,
   checks ``cm_query`` to see how fast the path currently looks, and feeds
   the receiver's acknowledgements back with ``cm_update``;
4. a receiver that simply acknowledges every datagram.

Run it with::

    python examples/quickstart.py
"""

from repro import CongestionManager, HostCosts, LibCM
from repro.netsim import Simulator, build_graph
from repro.transport.udp import AckReflector, AppFeedbackTracker, UDPSocket

PACKET_BYTES = 1200
PACKETS_TO_SEND = 400


def main() -> None:
    # --- the simulated network ------------------------------------------------
    sim = Simulator()
    net = build_graph(
        sim,
        nodes=[{"name": "sender", "addr": "10.0.0.1"}, {"name": "receiver", "addr": "10.0.0.2"}],
        links=[{"a": "sender", "b": "receiver", "rate_bps": 2e6, "delay": 0.04,
                "queue_limit": 40}],
        seed=1, host_costs_factory=HostCosts,
    )
    sender, receiver = net.hosts["sender"], net.hosts["receiver"]

    # --- the Congestion Manager and the receiving application -----------------
    CongestionManager(sender)
    reflector = AckReflector(receiver, port=9000)

    # --- the adaptive sending application --------------------------------------
    libcm = LibCM(sender)
    socket = UDPSocket(sender)
    socket.connect(receiver.addr, 9000)
    flow = libcm.cm_open(sender.addr, receiver.addr, socket.local_port, 9000, "udp")

    tracker = AppFeedbackTracker()
    state = {"sent": 0, "acked_bytes": 0}

    def cmapp_send(flow_id: int) -> None:
        """The CM granted permission to send up to one MTU."""
        if state["sent"] >= PACKETS_TO_SEND:
            libcm.cm_notify(flow_id, 0)      # decline: nothing left to send
            return
        seq = state["sent"]
        state["sent"] += 1
        socket.send(PACKET_BYTES, headers={"seq": seq, "ts": sim.now})
        tracker.on_sent(seq, PACKET_BYTES)
        libcm.cm_request(flow_id)            # keep one request in the pipeline

    def on_ack(packet) -> None:
        """Receiver feedback: tell the CM what got through and how fast."""
        report = tracker.on_ack(packet.headers["ack_seq"], packet.headers["ts_echo"], sim.now)
        if report is None:
            return
        state["acked_bytes"] += report.nrecd
        libcm.cm_update(flow, report.nsent, report.nrecd, report.lossmode, report.rtt)

    socket.on_receive = on_ack
    libcm.cm_register_send(flow, cmapp_send)

    # Prime the pipeline with a couple of requests and let the simulation run.
    libcm.cm_request(flow)
    libcm.cm_request(flow)
    sim.run(until=20.0)

    status = libcm.cm_query(flow)
    print("quickstart: adaptive CM sender")
    print(f"  packets sent        : {state['sent']}")
    print(f"  bytes acknowledged  : {state['acked_bytes']}")
    print(f"  CM rate estimate    : {status.rate / 1000:.1f} KB/s "
          f"({status.bandwidth_bps / 1e6:.2f} Mbit/s)")
    print(f"  smoothed RTT        : {status.srtt * 1000:.1f} ms")
    print(f"  congestion window   : {status.cwnd_bytes:.0f} bytes")
    print(f"  loss rate estimate  : {status.loss_rate:.3f}")
    print(f"  acks seen by client : {reflector.acks_sent}")


if __name__ == "__main__":
    main()
