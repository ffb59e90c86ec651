"""Arbitrary-graph topologies with static shortest-path routing.

:func:`build_graph` generalises :func:`~repro.netsim.channel.build_dumbbell`:
instead of one fixed shape it wires any set of named hosts and routers
connected by bidirectional links, computes static shortest-path routes and
installs them into the per-node routing tables the existing
:class:`~repro.iplayer.ip.IPLayer` forwarding consumes.  Parking lots,
stars, multi-bottleneck meshes — anything expressible as a graph — compile
into the same :class:`~repro.netsim.node.Host` / :class:`~repro.netsim.link.Link`
machinery every experiment already runs on.

Routing is computed once, at build time (the paper's testbeds were statically
routed, and dynamic routing would perturb the congestion dynamics under
study).  :func:`shortest_path_next_hops` is a pure function of the link set:

* the path metric is ``(total one-way delay, hop count, path names)``, so
  lower-latency routes win, equal-latency routes prefer fewer hops, and any
  remaining tie breaks on the lexicographic node-name sequence;
* because every tie-break is by *name*, the table is invariant under
  permutations of the node/link declaration order — a property the
  hypothesis test layer locks down.
"""

from __future__ import annotations

import heapq
from collections import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Container, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .engine import Simulator
from .ingress import IngressSequencer
from .link import Link
from .node import Host, Router

__all__ = ["GraphNet", "shortest_path_next_hops", "build_graph", "install_routes"]


class _LeafRow(abc.Mapping):
    """The next-hop row of a node whose one out-neighbour is ``via``.

    ``==`` to the dict it stands for — ``via``, then ``via``'s searched row
    minus ``leaf``, every entry mapped to ``via``, in that order — without
    holding one entry per destination.  Read-only: the searched row is
    shared with ``via``'s own row and every other leaf on ``via``.  Built by
    a bare call and three slot stores, so a leaf costs no Python frame.
    """

    __slots__ = ("via", "leaf", "searched")

    def __getitem__(self, dst: str) -> str:
        if dst == self.via or (dst != self.leaf and dst in self.searched):
            return self.via
        raise KeyError(dst)

    def __iter__(self):
        yield self.via
        leaf = self.leaf
        for dst in self.searched:
            if dst != leaf:
                yield dst

    def __len__(self) -> int:
        return len(self.searched) + (self.leaf not in self.searched)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


def shortest_path_next_hops(
    edges: Mapping[Tuple[str, str], float],
    sources: Optional[Iterable[str]] = None,
) -> Dict[str, Mapping[str, str]]:
    """Static next-hop tables for a directed, delay-weighted edge set.

    ``edges`` maps ``(a, b)`` to the one-way propagation delay of the
    directed link from ``a`` to ``b``.  Returns ``table[src][dst] ->
    next_hop_name`` for every reachable ``dst != src``; unreachable
    destinations are simply absent.  ``sources`` restricts the result to
    the rows a caller owns (names without an edge are skipped); a row is a
    function of ``(edges, source)`` alone, so a restricted call returns
    exactly the rows the whole table holds.

    Deterministic and declaration-order independent: neighbours are
    visited in sorted-name order and path ties break on
    ``(delay, hops, lexicographic path)``.

    Only nodes with a choice are searched.  Every path out of a node with
    one out-neighbour ``v`` starts ``(node, v)``, and a common prefix
    preserves the preference order of what follows it, so such a *leaf*
    routes everything ``v`` can reach via ``v``: its row is a read-only
    view over ``v``'s searched row (``==`` to the dict it replaces, same
    keys in the same order), searched once per call however many leaves
    hang off it, so the table holds O(routers x nodes) entries, not
    O(nodes²).  (Exact wherever path delays add exactly, and short of two
    candidate paths within one rounding of each other everywhere else.)
    """
    adjacency: Dict[str, List[Tuple[str, float]]] = {}
    for (a, b), delay in edges.items():
        adjacency.setdefault(a, []).append((b, float(delay)))
        adjacency.setdefault(b, [])
    for neighbours in adjacency.values():
        neighbours.sort()

    searched: Dict[str, Dict[str, str]] = {}

    def search(source: str) -> Dict[str, str]:
        # Dijkstra keyed by the full (delay, hops, path-names) triple: the
        # heap order *is* the path preference order, so the first time a
        # node is popped its best path is final.
        best: Dict[str, Tuple[str, ...]] = {}
        heap: List[Tuple[float, int, Tuple[str, ...]]] = [(0.0, 0, (source,))]
        while heap:
            delay, hops, path = heapq.heappop(heap)
            node = path[-1]
            if node in best:
                continue
            best[node] = path
            for neighbour, edge_delay in adjacency[node]:
                if neighbour not in best:
                    heapq.heappush(heap, (delay + edge_delay, hops + 1, path + (neighbour,)))
        del best[source]
        row = searched[source] = {dst: path[1] for dst, path in best.items()}
        return row

    table: Dict[str, Mapping[str, str]] = {}
    for source in sorted(adjacency) if sources is None else sources:
        neighbours = adjacency.get(source)
        if neighbours is None:
            continue
        if len(neighbours) == 1 and neighbours[0][0] != source:
            row = table[source] = _LeafRow()
            row.via = via = neighbours[0][0]
            row.leaf = source
            row.searched = searched[via] if via in searched else search(via)
        else:
            table[source] = searched[source] if source in searched else search(source)
    return table


@dataclass
class GraphNet:
    """The node and link handles returned by :func:`build_graph`.

    Under a partial build (``local=`` given) ``nodes``, ``hosts``,
    ``ingress`` hold the local nodes only, ``links`` the directed links
    whose *source* is local and ``next_hops`` the local nodes' rows;
    ``host_addrs`` and ``edges`` always describe the whole graph.
    """

    #: Every node in declaration order (hosts and routers).
    nodes: Dict[str, Host]
    #: End systems only — the nodes applications may run on.
    hosts: Dict[str, Host]
    #: Directed links, keyed ``(from, to)``, in declaration order
    #: (forward then reverse per declared link).
    links: Dict[Tuple[str, str], Link] = field(default_factory=dict)
    #: ``next_hops[node][dst_node] -> neighbour`` for every node in
    #: ``nodes`` (name level, for tests and debugging; the installed routes
    #: are keyed by address).  A node with one out-neighbour holds a
    #: read-only view over that neighbour's row, not a copy of its own.
    next_hops: Dict[str, Mapping[str, str]] = field(default_factory=dict)
    #: Per-node ingress sequencers (same-timestamp delivery ordering; see
    #: :mod:`repro.netsim.ingress`).  Links deliver through these, not
    #: straight into ``node.ip.receive``.
    ingress: Dict[str, IngressSequencer] = field(default_factory=dict)
    #: The directed delay-weighted edge set routing was computed from —
    #: kept so mid-run reroutes can recompute the tables incrementally.
    edges: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: Every end system's address in declaration order — routes are keyed
    #: by these, whether or not the destination host is simulated here.
    host_addrs: Dict[str, str] = field(default_factory=dict)

    def link(self, a: str, b: str) -> Link:
        """The directed link from node ``a`` to node ``b``."""
        return self.links[(a, b)]

    def apply_reroute(self, a: str, b: str, delay: float) -> None:
        """Change the cost of the ``a <-> b`` link mid-run and re-route.

        Sets both directions' propagation delay to ``delay``, recomputes the
        shortest-path rows of this build's nodes over the updated edge set
        and reinstalls their routes (a route overwrites by destination
        address, so stale next-hops are simply replaced; a leaf's default
        route is its one link before and after).  Packets already
        propagating keep their old arrival times — the link's no-overtake
        clamp ensures a shortened wire never reorders them.  A row is a pure
        function of the whole edge set, so every partial build replays the
        same change and reinstalls the routes of its own nodes.
        """
        delay = float(delay)
        for pair in ((a, b), (b, a)):
            self.edges[pair] = delay
            link = self.links.get(pair)
            if link is not None:
                link.delay = delay
        self.next_hops = shortest_path_next_hops(self.edges, sources=self.nodes)
        install_routes(self.nodes, self.host_addrs, self.links, self.next_hops)


def install_routes(
    nodes: Mapping[str, Host],
    host_addrs: Mapping[str, str],
    links: Mapping[Tuple[str, str], Link],
    next_hops: Mapping[str, Mapping[str, str]],
) -> None:
    """(Re)install address-keyed routes from name-level next-hop tables.

    Only end systems are packet destinations, so router names absent from
    ``host_addrs`` are skipped.  ``links`` may be a partial view (a shard
    holds only its local nodes' outgoing links); a missing link means the
    route belongs to another process and is skipped.  A node with one
    out-neighbour (a leaf row from :func:`shortest_path_next_hops`) gets
    that link as its default route and no per-destination entries, like a
    host behind its one gateway.  Every other node's table is built whole
    and merged in one ``add_routes`` — the same entries, in the same order,
    as one ``add_route`` per destination.
    """
    outgoing: Dict[str, Dict[str, Link]] = {}
    for (src, via), link in links.items():
        outgoing.setdefault(src, {})[via] = link
    addr_of = host_addrs.get
    for name, node in nodes.items():
        row = next_hops.get(name)
        out = outgoing.get(name)
        if type(row) is _LeafRow:
            # A reroute never changes a node's out-degree, so a leaf never
            # holds per-destination entries that would outrank the default.
            link = out.get(row.via) if out else None
            if link is not None:
                node.set_default_route(link)
        elif row and out:
            node.add_routes({addr: link for dst, via in row.items()
                             if (addr := addr_of(dst)) is not None
                             and (link := out.get(via)) is not None})


def build_graph(
    sim: Simulator,
    nodes: Sequence[Mapping[str, Any]],
    links: Sequence[Mapping[str, Any]],
    seed: int = 0,
    host_costs_factory=None,
    *,
    local: Optional[Container[str]] = None,
    boundary_link: Optional[Callable[..., Link]] = None,
) -> GraphNet:
    """Wire an arbitrary named-node topology with static shortest-path routes.

    Parameters
    ----------
    nodes:
        Mappings with keys ``name``, ``kind`` (``"host"`` or ``"router"``),
        ``addr`` (defaulted when empty) and ``costs`` (host CPU accounting).
    links:
        Mappings with keys ``a``, ``b``, ``rate_bps``, ``delay`` and the
        optional :class:`~repro.netsim.link.Link` knobs ``queue_limit``,
        ``loss_rate``, ``reverse_loss_rate``, ``ecn_threshold``,
        ``seed_offset``, ``loss`` (burst-loss model config) and ``aqm``
        (queue-management config).  Each entry creates one link per
        direction.
    seed:
        Base seed for the links' random-loss RNGs.  Link *i* draws from
        ``seed + (seed_offset or 2*i)`` forward and ``+1`` reverse — the
        same staggering convention :class:`~repro.scenario.spec.LinkSpec`
        uses, so single-path graphs stay byte-compatible with the
        equivalent channel wiring.
    host_costs_factory:
        Factory for per-host CPU ledgers (routers never get one — the
        paper only measures end-system CPU).
    local:
        Names of the nodes to simulate in this process (default: all).  A
        partial build creates only those nodes and the directed links
        leaving them; everything that identifies an object — default
        addresses, sequencer ranks, link indices and RNG seeds — still
        comes from its position in the *full* declaration, so a slice is
        built exactly as the whole graph would have built it.
    boundary_link:
        ``boundary_link(sim, link_index, **link_kwargs)`` builds a link
        whose source is local and whose destination is not (required when
        ``local`` cuts a link).
    """
    net = GraphNet(nodes={}, hosts={})
    for spec in nodes:
        name = spec["name"]
        here = local is None or name in local
        addr = spec.get("addr", "")
        if spec.get("kind", "host") == "router":
            if here:
                net.nodes[name] = Router(sim, name, addr)
            continue
        if not addr:
            addr = f"10.{len(net.host_addrs) + 1}.0.1"
        net.host_addrs[name] = addr
        if here:
            costs = None
            if spec.get("costs", True) and host_costs_factory is not None:
                costs = host_costs_factory()
            net.nodes[name] = net.hosts[name] = Host(sim, name, addr, costs=costs)

    # Deliveries go through per-node sequencers so that same-timestamp
    # arrivals are processed in content-defined (link, seq) order — the
    # order a sharded run reproduces exactly (see repro.netsim.ingress).
    # Drain ranks are node *declaration* indices; links are ranked by
    # global directed link index (2*i forward, 2*i+1 reverse).
    for rank, spec in enumerate(nodes):
        node = net.nodes.get(spec["name"])
        if node is not None:
            net.ingress[spec["name"]] = IngressSequencer(sim, rank, node.ip.receive)
    for index, spec in enumerate(links):
        a, b = spec["a"], spec["b"]
        delay = float(spec["delay"])
        loss = float(spec.get("loss_rate", 0.0))
        reverse_loss = spec.get("reverse_loss_rate")
        offset = spec.get("seed_offset", 0) or 2 * index
        directions = (
            (a, b, loss),
            (b, a, loss if reverse_loss is None else float(reverse_loss)),
        )
        for direction, (src, dst, loss_rate) in enumerate(directions):
            net.edges[(src, dst)] = delay
            if src not in net.nodes:
                continue  # owned, whole, by the process simulating ``src``
            link_index = 2 * index + direction
            # Mapping-valued loss/aqm configs are normalized per Link, so
            # each direction always owns a fresh (stateful) model instance.
            kwargs = dict(
                rate_bps=spec["rate_bps"],
                delay=delay,
                queue_limit=spec.get("queue_limit", 100),
                loss_rate=loss_rate,
                ecn_threshold=spec.get("ecn_threshold"),
                seed=seed + offset + direction,
                loss_model=spec.get("loss"),
                aqm=spec.get("aqm"),
                name=f"{src}->{dst}",
            )
            if dst in net.nodes:
                link = Link(sim, **kwargs)
                link.attach_sequencer(net.ingress[dst], link_index)
            else:
                link = boundary_link(sim, link_index, **kwargs)
            net.links[(src, dst)] = link

    # Only the rows of the nodes built here: a slice of a big graph never
    # pays for (or holds) the routes of nodes simulated elsewhere.
    net.next_hops = shortest_path_next_hops(net.edges, sources=net.nodes)
    install_routes(net.nodes, net.host_addrs, net.links, net.next_hops)
    return net
