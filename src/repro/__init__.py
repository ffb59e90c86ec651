"""repro: a reproduction of the Congestion Manager (Andersen et al., OSDI 2000).

The package provides:

* :mod:`repro.core` — the Congestion Manager itself (macroflows, AIMD
  congestion controller, round-robin scheduler, the ``cm_*`` API and the
  user-space ``libcm`` library);
* :mod:`repro.netsim` — the discrete-event network substrate that replaces
  the paper's testbed;
* :mod:`repro.hostmodel` — the end-host CPU cost model used for the API
  overhead studies;
* :mod:`repro.transport` — TCP (native Reno baseline and TCP/CM) and UDP
  (plain and CM-congestion-controlled sockets);
* :mod:`repro.apps` — the paper's application case studies (layered
  streaming, vat-style interactive audio, web server, bulk transfer);
* :mod:`repro.experiments` — harnesses that regenerate every table and
  figure in the paper's evaluation section.

Quick start::

    from repro import CongestionManager, Simulator, build_graph

    sim = Simulator()
    net = build_graph(
        sim,
        nodes=[{"name": "sender", "addr": "10.0.0.1"},
               {"name": "receiver", "addr": "10.0.0.2"}],
        links=[{"a": "sender", "b": "receiver", "rate_bps": 10e6, "delay": 0.03}],
    )
    sender, receiver = net.hosts["sender"], net.hosts["receiver"]
    cm = CongestionManager(sender)
    flow = cm.cm_open(sender.addr, receiver.addr, 5000, 6000)

See ``examples/quickstart.py`` for a complete adaptive sender.
"""

from .core import (
    AimdWindowController,
    CongestionManager,
    LibCM,
    QueryResult,
    RateAimdController,
    RoundRobinScheduler,
    WeightedRoundRobinScheduler,
    CM_ECN_CONGESTION,
    CM_NO_CONGESTION,
    CM_PERSISTENT_CONGESTION,
    CM_TRANSIENT_CONGESTION,
)
from .hostmodel import CostModel, CpuLedger, HostCosts
from .netsim import GraphNet, Host, Link, Packet, Router, Simulator, build_graph

__version__ = "1.0.0"

__all__ = [
    "CongestionManager",
    "LibCM",
    "QueryResult",
    "AimdWindowController",
    "RateAimdController",
    "RoundRobinScheduler",
    "WeightedRoundRobinScheduler",
    "CM_NO_CONGESTION",
    "CM_TRANSIENT_CONGESTION",
    "CM_PERSISTENT_CONGESTION",
    "CM_ECN_CONGESTION",
    "CostModel",
    "CpuLedger",
    "HostCosts",
    "Simulator",
    "Host",
    "Router",
    "Link",
    "Packet",
    "GraphNet",
    "build_graph",
    "__version__",
]
