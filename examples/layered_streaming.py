#!/usr/bin/env python3
"""Layered streaming media server adapting to a changing path (paper §3.4).

Two servers stream the same layered content to two clients over a wide-area
path whose bandwidth is cut and later restored mid-run:

* one uses the ALF (request/callback) API — it asks the CM before every
  packet and picks the layer from ``cm_query`` at the last moment;
* one uses the rate-callback API — it is self-clocked at the current
  layer's nominal rate and only switches layers when ``cmapp_update`` fires.

The output shows how each adapts: the ALF sender reacts to every change,
the rate-callback sender switches in coarser, threshold-driven steps.

Run it with::

    python examples/layered_streaming.py
"""

from repro import CongestionManager, HostCosts
from repro.apps import LayeredStreamingServer
from repro.netsim import Simulator, build_graph
from repro.transport.udp import AckReflector

DURATION = 24.0


def run_mode(mode: str) -> LayeredStreamingServer:
    sim = Simulator()
    net = build_graph(
        sim,
        nodes=[{"name": "server", "addr": "10.1.0.1"}, {"name": "client", "addr": "10.2.0.1"}],
        links=[{"a": "server", "b": "client", "rate_bps": 20e6, "delay": 0.0375,
                "queue_limit": 60}],
        seed=11, host_costs_factory=HostCosts,
    )
    sender, client = net.hosts["server"], net.hosts["client"]
    CongestionManager(sender)
    reflector = AckReflector(client, port=9001)
    server = LayeredStreamingServer(sender, client.addr, 9001, mode=mode)

    # Halve-and-restore the available bandwidth (both directions) during the run.
    sim.schedule(8.0, net.set_rate, "server", "client", 4e6)
    sim.schedule(16.0, net.set_rate, "server", "client", 12e6)

    server.start()
    sim.run(until=DURATION)
    server.stop()
    reflector.close()
    return server


def describe(server: LayeredStreamingServer, mode: str) -> None:
    series = server.transmission_series()
    print(f"\n--- {mode} mode ---")
    print(f"  packets sent   : {server.packets_sent}")
    print(f"  layer switches : {max(0, len(server.layer_history) - 1)}")
    callbacks = len(server.reported_rates) if mode == "rate" else "n/a (queried per packet)"
    print(f"  rate callbacks : {callbacks}")
    print("  transmission rate over time (KB/s):")
    for t, rate in series[:: max(1, len(series) // 12)]:
        bar = "#" * int(rate / 50_000)
        print(f"    t={t:5.1f}s {rate / 1000:8.1f}  {bar}")


def main() -> None:
    for mode in ("alf", "rate"):
        server = run_mode(mode)
        describe(server, mode)


if __name__ == "__main__":
    main()
