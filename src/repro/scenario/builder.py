"""Compile a :class:`~repro.scenario.spec.ScenarioSpec` into live objects.

:func:`build` is the single place in the repository where a declarative
scenario becomes a wired simulation: it validates the spec, creates the
:class:`~repro.netsim.engine.Simulator`, the hosts (with their CPU cost
ledgers), the channels or dumbbell, attaches Congestion Managers, and
instantiates every application through the
:mod:`~repro.scenario.applications` registry.

Construction order is part of the determinism contract (event sequence
numbers break heap ties, link RNGs are seeded in creation order):

1. hosts in spec order (explicit list, or dumbbell senders-then-receivers);
2. channels in spec order, link RNG seeded with ``seed + link.seed_offset``
   (forward) and ``+ 1`` (reverse) — exactly how the hand-wired testbeds of
   the seed repository did it;
3. Congestion Managers for ``cm``-flagged hosts, in host order;
4. scheduled reroutes, applications, workloads (each in spec order), then
   the telemetry attach.

A shard of the parallel engine is the same :func:`build` under a
:class:`~repro.netsim.parallel.shard.Placement` that names its local nodes:
every step above still walks the full declaration and skips what is placed
elsewhere, so each object is built exactly as the whole-graph build builds
it.

With the same spec and seed, :func:`build` therefore produces a simulation
that is event-for-event identical to the legacy hand-wired construction,
which is what keeps the experiment artifacts byte-identical per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.congestion import AimdWindowController, CongestionController, RateAimdController
from ..core.manager import CongestionManager
from ..core.scheduler import RoundRobinScheduler, Scheduler, WeightedRoundRobinScheduler
from ..hostmodel import HostCosts
from ..netsim import Channel, Dumbbell, GraphNet, Host, Link, Simulator, build_dumbbell, build_graph
from ..netsim.parallel.shard import Placement, RemoteHost
from .applications import Application, get_application
from .spec import ScenarioSpec, SpecError, default_addr
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
    """A compiled scenario: live simulator, hosts, channels and apps."""

    spec: ScenarioSpec
    seed: int
    sim: Simulator
    hosts: Dict[str, Host]
    channels: Dict[Tuple[str, str], Channel] = field(default_factory=dict)
    dumbbell: Optional[Dumbbell] = None
    #: The wired graph topology (nodes incl. routers, directed links,
    #: next-hop tables), present when the spec carries a ``graph:`` block.
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
        whole spec (forward ``2*i``, reverse ``2*i + 1``), so the slices of
        a sharded run interleave back into declaration order.
        """
        for index, ((a, b), channel) in enumerate(self.channels.items()):
            yield 2 * index, f"{a}->{b}", channel.forward
            yield 2 * index + 1, f"{b}->{a}", channel.reverse
        if self.dumbbell is not None:
            yield 0, "bottleneck", self.dumbbell.bottleneck
            yield 1, "bottleneck-rev", self.dumbbell.bottleneck_reverse
        if self.graph_net is not None:
            links = self.graph_net.links
            for index, link_spec in enumerate(self.spec.graph.links):
                a, b = link_spec.a, link_spec.b
                for key, pair in ((2 * index, (a, b)), (2 * index + 1, (b, a))):
                    if pair in links:
                        yield key, f"{pair[0]}->{pair[1]}", links[pair]

    def host(self, name: str) -> Host:
        """Look up a host by spec name."""
        return self.hosts[name]

    def channel(self, a: str, b: str) -> Channel:
        """Look up the channel between two hosts (order as in the spec)."""
        return self.channels[(a, b)]


def _attach_cm(host: Host, host_spec) -> CongestionManager:
    """Attach a CM per a HostSpec/GraphNodeSpec's controller/scheduler choice."""
    return CongestionManager(
        host,
        controller_factory=_CONTROLLER_FACTORIES[host_spec.cm_controller],
        scheduler_factory=_SCHEDULER_FACTORIES[host_spec.cm_scheduler],
    )


def _build_graph_topology(scenario: Scenario, spec: ScenarioSpec, run_seed: int) -> None:
    """Wire a ``graph:`` block through :func:`repro.netsim.graph.build_graph`.

    Node and link declaration order is preserved (construction order is part
    of the determinism contract); static shortest-path routes are installed
    into every node's routing table, and CMs attach to ``cm``-flagged hosts
    in node order afterwards — the same phasing the explicit-hosts branch
    uses.
    """
    graph_spec = spec.graph
    placement = scenario.placement
    host_index = 0
    node_payloads = []
    for node in graph_spec.nodes:
        addr = node.addr
        if not addr and node.kind == "host":
            addr = default_addr(host_index)
        if node.kind == "host":
            host_index += 1
        node_payloads.append({
            "name": node.name,
            "kind": node.kind,
            "addr": addr,
            "costs": node.costs,
        })
    link_payloads = [
        {
            "a": link.a,
            "b": link.b,
            "rate_bps": link.rate_bps,
            "delay": link.delay,
            "queue_limit": link.queue_limit,
            "loss_rate": link.loss_rate,
            "reverse_loss_rate": link.reverse_loss_rate,
            "ecn_threshold": link.ecn_threshold,
            "seed_offset": link.seed_offset,
            "loss": link.loss,
            "aqm": link.aqm,
        }
        for link in graph_spec.links
    ]
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
    for node in graph_spec.nodes:
        if node.cm and node.name in net.hosts:
            _attach_cm(net.hosts[node.name], node)
    # Reroute events are scheduled at build time (not by the runner), after
    # CM attach and before the apps, so the event sequence numbering is the
    # same in every process of either engine.  The partitioner already
    # bounded the lookahead by each cut link's post-reroute minimum delay.
    for reroute in graph_spec.reroutes:
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

    if spec.dumbbell is not None:
        dumbbell_spec = spec.dumbbell
        dumbbell = build_dumbbell(
            sim,
            n_pairs=dumbbell_spec.n_pairs,
            bottleneck_bps=dumbbell_spec.bottleneck_bps,
            bottleneck_delay=dumbbell_spec.bottleneck_delay,
            access_bps=dumbbell_spec.access_bps,
            access_delay=dumbbell_spec.access_delay,
            queue_limit=dumbbell_spec.queue_limit,
            loss_rate=dumbbell_spec.loss_rate,
            ecn_threshold=dumbbell_spec.ecn_threshold,
            host_costs_factory=HostCosts if dumbbell_spec.with_costs else None,
            seed=run_seed,
        )
        scenario.dumbbell = dumbbell
        for index, host in enumerate(dumbbell.senders):
            hosts[f"sender{index}"] = host
        for index, host in enumerate(dumbbell.receivers):
            hosts[f"receiver{index}"] = host
        for index in dumbbell_spec.cm_senders:
            CongestionManager(dumbbell.senders[index])
    elif spec.graph is not None:
        _build_graph_topology(scenario, spec, run_seed)
    else:
        for index, host_spec in enumerate(spec.hosts):
            addr = host_spec.addr or default_addr(index)
            hosts[host_spec.name] = Host(
                sim, host_spec.name, addr,
                costs=HostCosts() if host_spec.costs else None,
            )
        for index, link in enumerate(spec.links):
            # Explicit seed_offset wins; otherwise stagger by position (a
            # channel consumes two consecutive seeds, forward + reverse) so
            # co-existing links draw independent loss streams by default.
            offset = link.seed_offset if link.seed_offset else 2 * index
            scenario.channels[(link.a, link.b)] = Channel(
                sim,
                hosts[link.a],
                hosts[link.b],
                rate_bps=link.rate_bps,
                one_way_delay=link.delay,
                queue_limit=link.queue_limit,
                loss_rate=link.loss_rate,
                reverse_loss_rate=link.reverse_loss_rate,
                ecn_threshold=link.ecn_threshold,
                seed=run_seed + offset,
                loss_model=link.loss,
                aqm=link.aqm,
            )
        for host_spec in spec.hosts:
            if host_spec.cm:
                _attach_cm(hosts[host_spec.name], host_spec)

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
