"""What one shard's build needs that a whole-graph build does not.

A shard is :func:`repro.scenario.builder.build` called with a
:class:`Placement`: the same function, walking the same declaration lists in
the same order, that builds the single-process scenario — it only skips the
nodes, links, apps and workloads placed elsewhere.  Addresses, link RNG
seeds, sequencer ranks, labels and workload RNG streams therefore come from
global declaration indices in both engines because one piece of code derives
them, not because two were kept in step.

Only the two things without a single-process counterpart live here.  Cut
links are owned by the *sending* side as :class:`.boundary.BoundaryLink`
stubs that emit into the placement's outbox; hosts simulated on another
shard appear in ``scenario.hosts`` as :class:`RemoteHost` proxies (name +
addr and nothing else — anything that needs the live object was colocated
by the partitioner, or the build fails loudly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Tuple

from .boundary import BoundaryLink

__all__ = ["Placement", "RemoteHost"]


@dataclass
class RemoteHost:
    """Address-only stand-in for a host simulated on another shard."""

    name: str
    addr: str
    #: Telemetry/validation probes skip hosts without a CM; a proxy never
    #: has one.
    cm = None
    costs = None


@dataclass
class Placement:
    """The slice of a ``graph:`` block one process simulates."""

    #: Names of the nodes simulated here.
    local: FrozenSet[str]
    #: Cut-link emissions accumulated during a window:
    #: ``(deliver_ts, global_link_index, emit_seq, wire_tuple)``.
    outbox: List[Tuple] = field(default_factory=list)

    def boundary_link(self, sim, link_index: int, **kwargs) -> BoundaryLink:
        """A link leaving this slice; it delivers into :attr:`outbox`."""
        return BoundaryLink(sim, self.outbox, link_index, **kwargs)
