"""Hosts and routers.

A :class:`Host` is an end system: it owns a routing table, an IP layer, a
CPU cost ledger and (optionally) a Congestion Manager.  A :class:`Router`
is a host with forwarding enabled and no CPU accounting — the paper's
experiments never measure router CPU, only end systems.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..hostmodel import HostCosts
from ..iplayer import IPLayer
from .engine import Simulator
from .link import Link
from .packet import DEFAULT_MTU

__all__ = ["Host", "Router"]


class Host:
    """A simulated end system.

    Parameters
    ----------
    sim:
        Simulation clock shared by all components.
    name:
        Human-readable label used in traces.
    addr:
        Network address; any hashable/opaque string works.
    costs:
        CPU cost facade; pass ``None`` to disable CPU accounting entirely
        (used for routers and for tests that do not care about overhead).
    mtu:
        Link MTU presented to transports and the CM via ``cm_mtu``.
    """

    forwarding = False

    def __init__(
        self,
        sim: Simulator,
        name: str,
        addr: str,
        costs: Optional[HostCosts] = None,
        mtu: int = DEFAULT_MTU,
    ):
        self.sim = sim
        self.name = name
        self.addr = addr
        self.costs = costs
        self.mtu = mtu
        self.ip = IPLayer(self)
        #: The host's Congestion Manager, attached via :meth:`attach_cm`.
        self.cm = None
        self._routes: Dict[str, Link] = {}
        self._default_route: Optional[Link] = None
        self._next_ephemeral_port = 10000

    # ---------------------------------------------------------------- routing
    def add_route(self, dst_addr: str, link: Link) -> None:
        """Send packets for ``dst_addr`` out of ``link``."""
        self._routes[dst_addr] = link

    def add_routes(self, routes: Mapping[str, Link]) -> None:
        """Merge a whole table: one :meth:`add_route` per entry, in its order."""
        self._routes.update(routes)

    def set_default_route(self, link: Link) -> None:
        """Fallback link for destinations without a specific route."""
        self._default_route = link

    def route_for(self, dst_addr: str) -> Optional[Link]:
        """Resolve the outgoing link for a destination (or ``None``)."""
        return self._routes.get(dst_addr, self._default_route)

    # ------------------------------------------------------------------- CM
    def attach_cm(self, cm) -> None:
        """Install a Congestion Manager on this host (sender side only)."""
        self.cm = cm

    # ------------------------------------------------------------------ misc
    def allocate_port(self) -> int:
        """Hand out a fresh ephemeral port number."""
        port = self._next_ephemeral_port
        self._next_ephemeral_port += 1
        return port

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ({self.addr})>"


class Router(Host):
    """An interior node that forwards packets between its links.

    Routers never run transports or the CM, and their CPU is not modelled.
    """

    forwarding = True

    def __init__(self, sim: Simulator, name: str, addr: str = ""):
        super().__init__(sim, name, addr or f"router:{name}", costs=None)
