"""Compile a :class:`~repro.scenario.spec.ScenarioSpec` into live objects.

:func:`build` is the single place in the repository where a declarative
scenario becomes a wired simulation: it validates the spec, creates the
:class:`~repro.netsim.engine.Simulator`, compiles the topology — a host
pair list, a dumbbell or a graph, all the same way — into one
:func:`~repro.netsim.graph.build_graph` call, attaches Congestion Managers,
and instantiates every application through the
:mod:`~repro.scenario.applications` registry.

Every topology spelling is a graph: explicit ``hosts`` / ``links`` are host
nodes and their links as declared; a ``dumbbell`` is nodes ``sender0…``,
``receiver0…``, then routers ``left`` / ``right``, with the bottleneck as
link 0 and one lossless access link per host.

Construction order is part of the determinism contract (event sequence
numbers break heap ties, link RNGs are seeded by declaration index):

1. nodes in declaration order, then links, link *i*'s RNG seeded with
   ``seed + (seed_offset or 2*i)`` (forward) and ``+ 1`` (reverse);
2. Congestion Managers for ``cm``-flagged hosts, in host order (a
   dumbbell's ``cm_senders``, in list order);
3. scheduled reroutes, applications, workloads (each in spec order), then
   the telemetry attach.

A shard of the parallel engine is the same :func:`build` under a
:class:`~repro.netsim.parallel.shard.Placement` that names its local nodes:
every step above still walks the full declaration and skips what is placed
elsewhere, so each object is built exactly as the whole-graph build builds
it.

With the same spec and seed, :func:`build` therefore produces the same
simulation event for event, which keeps the artifacts byte-identical per
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..core.congestion import AimdWindowController, CongestionController, RateAimdController
from ..core.manager import CongestionManager
from ..core.scheduler import RoundRobinScheduler, Scheduler, WeightedRoundRobinScheduler
from ..hostmodel import HostCosts
from ..netsim import GraphNet, Host, Link, Simulator, build_graph
from ..netsim.parallel.shard import Placement, RemoteHost
from .applications import Application, get_application
from .spec import DumbbellSpec, GraphLinkSpec, ScenarioSpec, SpecError
from .telemetry import ScenarioTelemetry

__all__ = ["Scenario", "build", "workload_rng_seed"]


def workload_rng_seed(run_seed: int, seed_offset: Optional[int], index: int) -> int:
    """RNG seed for the ``index``-th declared workload generator.

    Decorrelated across workloads by declaration order (or the explicit
    ``seed_offset``), fully determined by the run seed.  ``index`` is the
    generator's position in ``spec.workloads`` — a *global* quantity — so the
    sharded engine derives the exact same stream no matter which shard ends
    up hosting the generator (pinned by a test).
    """
    offset = seed_offset if seed_offset else index + 1
    return run_seed * 1_000_003 + 7919 * offset

_CONTROLLER_FACTORIES: Dict[str, Callable[[int], CongestionController]] = {
    "aimd_window": lambda mtu: AimdWindowController(mtu),
    "aimd_rate": lambda mtu: RateAimdController(mtu),
}

_SCHEDULER_FACTORIES: Dict[str, Callable[[], Scheduler]] = {
    "round_robin": RoundRobinScheduler,
    "weighted": WeightedRoundRobinScheduler,
}


@dataclass
class Scenario:
    """A compiled scenario: live simulator, hosts, topology and apps."""

    spec: ScenarioSpec
    seed: int
    sim: Simulator
    hosts: Dict[str, Host]
    #: Always empty and ``None``: every topology compiles into
    #: ``graph_net``.  Kept only because the repository benchmark's link
    #: walk still reads both names.
    channels: Dict[Tuple[str, str], Any] = field(default_factory=dict)
    dumbbell: None = None
    #: The wired topology (nodes incl. routers, directed links, next-hop
    #: tables); set by :func:`build` for every spec.
    graph_net: Optional[GraphNet] = None
    apps: List[Application] = field(default_factory=list)
    #: Stochastic traffic generators (see :mod:`repro.workloads`), started
    #: and stopped by the runner alongside the static apps.
    workloads: List = field(default_factory=list)
    #: Telemetry wiring, present when the spec has a ``telemetry:`` block or
    #: the caller asked for a trace file; ``None`` means every probe slot in
    #: the simulation stays a compiled no-op.
    telemetry: Optional[ScenarioTelemetry] = None
    #: Which nodes of the ``graph:`` block live in this process; ``None``
    #: (every single-process build) means all of them.  Under a placement,
    #: ``hosts`` still names every host — the remote ones as address-only
    #: proxies — while ``apps``/``workloads``/``graph_net`` hold the local
    #: slice.
    placement: Optional[Placement] = None

    def is_local(self, node: str) -> bool:
        """Whether the named node is simulated in this process."""
        return self.placement is None or node in self.placement.local

    def directed_links(self) -> Iterator[Tuple[int, str, Link]]:
        """``(declaration index, result name, link)`` of every link simulated here.

        The one walk the result collector, the telemetry wiring and the
        service's link lookup share.  Indices count directed links over the
        whole topology (forward ``2*i``, reverse ``2*i + 1``), so the slices
        of a sharded run interleave back into declaration order.
        """
        links = self.graph_net.links
        for index, pair in enumerate(self.graph_net.edges):
            link = links.get(pair)
            if link is not None:
                yield index, link.name, link

    def host(self, name: str) -> Host:
        """Look up a host by spec name."""
        return self.hosts[name]


def _attach_cm(host: Host, host_spec) -> CongestionManager:
    """Attach a CM per a HostSpec/GraphNodeSpec's controller/scheduler choice."""
    return CongestionManager(
        host,
        controller_factory=_CONTROLLER_FACTORIES[host_spec.cm_controller],
        scheduler_factory=_SCHEDULER_FACTORIES[host_spec.cm_scheduler],
    )


#: A dumbbell's access links are fast, lossless and deep-buffered.
_ACCESS_QUEUE_LIMIT = 1000


def _dumbbell_payloads(bell: DumbbellSpec) -> Tuple[List[dict], List[dict]]:
    """The node and link payloads of a ``dumbbell:`` block.

    Sender *i* is ``10.0.1.(i+1)`` and receiver *i* ``10.0.2.(i+1)``; the
    bottleneck ``left -> right`` is link 0 (so its seeds are the run seed
    and ``+ 1``) and carries the loss, forward only.
    """
    hosts = [(f"{role}{i}", f"10.0.{subnet}.{i + 1}")
             for role, subnet in (("sender", 1), ("receiver", 2))
             for i in range(bell.n_pairs)]
    nodes = [{"name": name, "kind": "host", "addr": addr, "costs": bell.with_costs}
             for name, addr in hosts]
    nodes += [{"name": "left", "kind": "router"}, {"name": "right", "kind": "router"}]
    links = [{
        "a": "left", "b": "right",
        "rate_bps": bell.bottleneck_bps,
        "delay": bell.bottleneck_delay,
        "queue_limit": bell.queue_limit,
        "loss_rate": bell.loss_rate,
        "reverse_loss_rate": 0.0,
        "ecn_threshold": bell.ecn_threshold,
    }]
    access = {"rate_bps": bell.access_bps, "delay": bell.access_delay,
              "queue_limit": _ACCESS_QUEUE_LIMIT}
    for i in range(bell.n_pairs):
        links.append({"a": f"sender{i}", "b": "left", **access})
        links.append({"a": "right", "b": f"receiver{i}", **access})
    return nodes, links


def _declared_payloads(nodes, links) -> Tuple[List[dict], List[dict]]:
    """The node and link payloads of explicit hosts/links or a ``graph:`` block.

    An empty host ``addr`` stays empty: ``build_graph`` fills in the same
    ``10.<i+1>.0.1`` default the validator checks collisions against.
    """
    return ([{key: getattr(node, key) for key in ("name", "kind", "addr", "costs")}
             for node in nodes],
            [{key: getattr(link, key) for key in GraphLinkSpec.FIELDS} for link in links])


def _build_topology(scenario: Scenario, spec: ScenarioSpec, run_seed: int) -> None:
    """Compile the spec's topology into one :func:`~repro.netsim.graph.build_graph` call.

    Node and link declaration order is preserved (construction order is part
    of the determinism contract); static shortest-path routes are installed
    into every node's routing table, and CMs attach to ``cm``-flagged hosts
    in node order afterwards.
    """
    graph_spec, bell, placement = spec.graph, spec.dumbbell, scenario.placement
    if bell is not None:
        node_payloads, link_payloads = _dumbbell_payloads(bell)
        declared_nodes, cm_senders, reroutes = (), bell.cm_senders, ()
    elif graph_spec is None:
        node_payloads, link_payloads = _declared_payloads(spec.hosts, spec.links)
        declared_nodes, cm_senders, reroutes = spec.hosts, (), ()
    else:
        node_payloads, link_payloads = _declared_payloads(graph_spec.nodes, graph_spec.links)
        declared_nodes, cm_senders, reroutes = graph_spec.nodes, (), graph_spec.reroutes
    slice_inputs = {} if placement is None else {
        "local": placement.local,
        "boundary_link": placement.boundary_link,
    }
    net = build_graph(
        scenario.sim, node_payloads, link_payloads,
        seed=run_seed, host_costs_factory=HostCosts, **slice_inputs,
    )
    scenario.graph_net = net
    # Node declaration order, live hosts and proxies alike: telemetry
    # sources and the hosts section follow this dict's order.
    for name, addr in net.host_addrs.items():
        scenario.hosts[name] = net.hosts[name] if name in net.hosts else RemoteHost(name, addr)
    for node in declared_nodes:
        if node.cm and node.name in net.hosts:
            _attach_cm(net.hosts[node.name], node)
    for index in cm_senders:
        CongestionManager(net.hosts[f"sender{index}"])
    # Reroute events are scheduled at build time (not by the runner), after
    # CM attach and before the apps, so the event sequence numbering is the
    # same in every process of either engine.  The partitioner already
    # bounded the lookahead by each cut link's post-reroute minimum delay.
    for reroute in reroutes:
        scenario.sim.schedule(reroute.time, net.apply_reroute,
                              reroute.a, reroute.b, reroute.delay)


def _placed_here(scenario: Scenario, path: str, member_spec, member_cls) -> bool:
    """Whether this process builds the app/workload declared at ``path``."""
    if not scenario.is_local(member_spec.host):
        return False
    if (member_cls.colocate_peer and member_spec.peer
            and not scenario.is_local(member_spec.peer)):
        raise SpecError(  # the partitioner guarantees this; fail loud if not
            path, f"{member_cls.name!r} needs its peer {member_spec.peer!r} on the same shard")
    return True


def build(spec: ScenarioSpec, seed: Optional[int] = None,
          trace_path: Optional[str] = None,
          placement: Optional[Placement] = None) -> Scenario:
    """Validate ``spec`` and wire the simulation it describes.

    ``seed`` overrides ``spec.seed``; it feeds every link's loss RNG (offset
    per link) so a multi-seed sweep re-uses one spec.  ``trace_path``
    additionally streams every telemetry event and sample to a JSON-lines
    file (attaching probes even when the spec carries no telemetry block —
    the result payload is unaffected in that case).  ``placement`` is the
    sharded engine's hook (graph specs only): build just the slice it names,
    cut links emitting into its outbox.
    """
    spec.validate()
    run_seed = spec.seed if seed is None else int(seed)

    sim = Simulator()
    hosts: Dict[str, Host] = {}
    scenario = Scenario(spec=spec, seed=run_seed, sim=sim, hosts=hosts, placement=placement)

    _build_topology(scenario, spec, run_seed)

    # Labels, ``index`` (the result collector's merge key) and workload RNG
    # streams all come from the position in the *full* declaration.
    for index, app_spec in enumerate(spec.apps):
        app_cls = get_application(app_spec.app)
        if placement is not None and not _placed_here(
                scenario, f"apps[{index}]", app_spec, app_cls):
            continue
        # spec.validate() above already walked every app's schema and cached
        # the defaults-applied params; reuse them instead of re-validating
        # on the per-trial construction path.
        params = app_spec.normalized_params()
        peer = hosts[app_spec.peer] if app_spec.peer else None
        try:
            app = app_cls(hosts[app_spec.host], peer, app_spec, params)
        except SpecError:
            raise
        except (RuntimeError, ValueError) as exc:
            raise SpecError(f"apps[{index}]", f"building {app_spec.app!r} failed: {exc}") from exc
        if not app_spec.label:
            app.label = f"{app_spec.app}[{index}]"
        app.index = index
        scenario.apps.append(app)

    if spec.workloads:
        from ..workloads import get_workload

        for index, workload_spec in enumerate(spec.workloads):
            workload_cls = get_workload(workload_spec.kind)
            if placement is not None and not _placed_here(
                    scenario, f"workloads[{index}]", workload_spec, workload_cls):
                continue
            # Each generator draws from its own RNG stream (see
            # workload_rng_seed for the shard-invariance contract).
            rng = random.Random(workload_rng_seed(run_seed, workload_spec.seed_offset, index))
            try:
                workload = workload_cls(
                    scenario, workload_spec, workload_spec.normalized_params(), rng)
            except SpecError:
                raise
            except (RuntimeError, ValueError) as exc:
                raise SpecError(f"workloads[{index}]",
                                f"building {workload_spec.kind!r} failed: {exc}") from exc
            if not workload_spec.label:
                workload.label = f"{workload_spec.kind}[{index}]"
            workload.index = index
            scenario.workloads.append(workload)

    if spec.telemetry is not None or trace_path is not None:
        # Subscribing sinks happens inside ScenarioTelemetry *before*
        # attach() binds any probe slot — the hub's dispatch table is read
        # once per slot, at attach time.
        scenario.telemetry = ScenarioTelemetry(
            spec.telemetry, run_seed, sim, trace_path=trace_path
        )
        scenario.telemetry.attach(scenario)
    return scenario
