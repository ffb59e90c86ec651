"""Discrete-event network simulation substrate.

This package replaces the paper's physical testbed (hosts, switched
Ethernet, Dummynet shaping) with a deterministic simulator; see DESIGN.md
for the substitution rationale.
"""

from .engine import Event, SimulationError, Simulator, Timer
from .graph import GraphNet, build_graph, shortest_path_next_hops
from .link import (GilbertElliottLoss, Link, LinkStats, RedQueue, make_aqm,
                   make_loss_model)
from .node import Host, Router
from .packet import (
    DEFAULT_MSS,
    DEFAULT_MTU,
    IP_HEADER_BYTES,
    PROTO_TCP,
    PROTO_UDP,
    TCP_HEADER_BYTES,
    UDP_HEADER_BYTES,
    Packet,
)
from .trace import RateTracker

__all__ = [
    "GraphNet",
    "build_graph",
    "shortest_path_next_hops",
    "Event",
    "SimulationError",
    "Simulator",
    "Timer",
    "GilbertElliottLoss",
    "Link",
    "LinkStats",
    "RedQueue",
    "make_aqm",
    "make_loss_model",
    "Host",
    "Router",
    "Packet",
    "RateTracker",
    "DEFAULT_MSS",
    "DEFAULT_MTU",
    "IP_HEADER_BYTES",
    "TCP_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "PROTO_TCP",
    "PROTO_UDP",
]
