#!/usr/bin/env python3
"""Sharing congestion state across web requests (paper §4.3, Figure 7).

A client fetches the same 128 kB file repeatedly from a web server, each
fetch on a brand-new TCP connection.  With a plain TCP stack every
connection slow-starts from scratch; with the Congestion Manager on the
server, all connections to the client share one macroflow, so later fetches
inherit the congestion window and RTT estimate that earlier ones built up
and finish much sooner.

Run it with::

    python examples/web_transfer.py
"""

from repro import CongestionManager, HostCosts
from repro.apps import FileServer, WebClient
from repro.netsim import Simulator, build_graph

FILE_SIZE = 128 * 1024
N_REQUESTS = 9
SPACING = 0.5


def run_variant(variant: str) -> list:
    sim = Simulator()
    net = build_graph(
        sim,
        nodes=[{"name": "server", "addr": "10.1.0.1"}, {"name": "client", "addr": "10.2.0.1"}],
        links=[{"a": "server", "b": "client", "rate_bps": 16e6, "delay": 0.0375,
                "queue_limit": 60}],
        seed=3, host_costs_factory=HostCosts,
    )
    server_host, client_host = net.hosts["server"], net.hosts["client"]
    if variant == "cm":
        CongestionManager(server_host)
    server = FileServer(server_host, 80, variant=variant)
    client = WebClient(client_host, server_host.addr, 80)
    for index in range(N_REQUESTS):
        sim.schedule(index * SPACING, client.fetch, FILE_SIZE)
    sim.run(until=N_REQUESTS * SPACING + 60.0)
    durations = [fetch.duration * 1000 for fetch in client.fetches]
    server.close()
    client.close()
    return durations


def main() -> None:
    cm = run_variant("cm")
    linux = run_variant("linux")
    print("Sequential 128 kB fetches, new TCP connection each time (ms per request)\n")
    print("request   TCP/CM    TCP/Linux   CM saving")
    for index, (a, b) in enumerate(zip(cm, linux), start=1):
        saving = (b - a) / b * 100 if b else 0.0
        print(f"   {index:2d}    {a:8.1f}   {b:8.1f}   {saving:7.1f}%")
    later_cm = sum(cm[2:]) / len(cm[2:])
    later_linux = sum(linux[2:]) / len(linux[2:])
    print(f"\nWarm requests improve by {(later_linux - later_cm) / later_linux:.0%} "
          f"with the Congestion Manager (paper reports ~40%).")


if __name__ == "__main__":
    main()
