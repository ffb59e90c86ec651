#!/usr/bin/env python3
"""Interactive audio (vat) made adaptive with the CM (paper §3.6, Figure 2).

A 64 kbit/s constant-bit-rate audio source cannot change its encoding, so it
adapts by *preemptively dropping* frames to match what the CM says the path
can carry: audio -> policer -> small application buffer (drop-from-head) ->
CM-paced UDP socket.

The example runs the same application over two paths — one with plenty of
capacity, one too slow for the full stream — and shows how the policer sheds
load on the constrained path while keeping end-to-end delay low.

Run it with::

    python examples/adaptive_audio.py
"""

from repro import CongestionManager, HostCosts
from repro.apps import VatApplication
from repro.netsim import Simulator, build_graph
from repro.transport.udp import AckReflector

RUN_SECONDS = 30.0


def run_path(label: str, rate_bps: float) -> None:
    sim = Simulator()
    net = build_graph(
        sim,
        nodes=[{"name": "vat-sender", "addr": "10.1.0.1"},
               {"name": "vat-receiver", "addr": "10.2.0.1"}],
        links=[{"a": "vat-sender", "b": "vat-receiver", "rate_bps": rate_bps,
                "delay": 0.025, "queue_limit": 12}],
        seed=7, host_costs_factory=HostCosts,
    )
    sender, receiver = net.hosts["vat-sender"], net.hosts["vat-receiver"]
    CongestionManager(sender)
    reflector = AckReflector(receiver, port=4000)

    vat = VatApplication(sender, receiver.addr, 4000)
    vat.start()
    sim.run(until=RUN_SECONDS)
    vat.stop()

    sent_fraction = vat.frames_sent / max(1, vat.frames_generated)
    print(f"\n--- {label} ({rate_bps / 1000:.0f} kbit/s path) ---")
    print(f"  frames generated        : {vat.frames_generated}")
    print(f"  frames transmitted      : {vat.frames_sent} ({sent_fraction:.0%})")
    print(f"  dropped by policer      : {vat.frames_dropped_by_policer}")
    print(f"  dropped by audio buffer : {vat.frames_dropped_by_buffer}")
    print(f"  frames acknowledged     : {vat.frames_acked}")
    print(f"  mean delivery delay     : {vat.mean_delivery_delay() * 1000:.1f} ms")
    print(f"  CM rate callbacks       : {len(vat.rate_updates)}")
    reflector.close()


def main() -> None:
    run_path("uncongested path", 1_000_000)
    run_path("constrained path", 48_000)


if __name__ == "__main__":
    main()
