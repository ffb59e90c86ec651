"""Microbenchmark harness for the engine / CM hot paths.

Each benchmark measures the optimised implementation and (where one exists)
the seed implementation from :mod:`repro.perf.legacy` on an identical
workload, reporting ops/sec, wall-clock and the speedup ratio.  Timings are
best-of-N wall clock via :func:`time.perf_counter` — "best of" because the
minimum is the least noisy estimator of the achievable time on a shared
machine.

The harness has two sizes: the default calibrated for a developer machine
and ``quick`` for CI smoke runs (same benchmarks, smaller workloads).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.manager import CongestionManager
from ..hostmodel.ledger import HostCosts
from ..netsim.engine import Simulator, Timer
from ..netsim.node import Host
from .legacy import LegacySimulator, LegacyTimer, legacy_dummynet_pair, unbatched_maybe_grant

__all__ = ["BenchResult", "run_benchmarks", "write_report", "bench_telemetry_overhead"]


@dataclass
class BenchResult:
    """Outcome of one benchmark (optimised vs. optional seed baseline)."""

    name: str
    ops: int
    wall_s: float
    baseline_wall_s: Optional[float] = None
    notes: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def baseline_ops_per_sec(self) -> Optional[float]:
        if self.baseline_wall_s is None or self.baseline_wall_s <= 0:
            return None
        return self.ops / self.baseline_wall_s

    @property
    def speedup(self) -> Optional[float]:
        """How many times faster than the seed implementation (>1 is faster)."""
        if self.baseline_wall_s is None or self.wall_s <= 0:
            return None
        return self.baseline_wall_s / self.wall_s

    def to_dict(self) -> dict:
        payload = {
            "ops": self.ops,
            "wall_s": self.wall_s,
            "ops_per_sec": self.ops_per_sec,
        }
        if self.baseline_wall_s is not None:
            payload["baseline_wall_s"] = self.baseline_wall_s
            payload["baseline_ops_per_sec"] = self.baseline_ops_per_sec
            payload["speedup"] = self.speedup
        if self.notes:
            payload["notes"] = self.notes
        payload.update(self.extra)
        return payload


def _best_of(fn: Callable[[], float], repeats: int) -> float:
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return min(fn() for _ in range(max(1, repeats)))
    finally:
        if gc_was_enabled:
            gc.enable()


def _best_of_pair(fn: Callable[[], float], baseline_fn: Callable[[], float], repeats: int):
    """Best-of timing for an optimised/baseline pair, interleaving the runs.

    Alternating the two implementations repeat-by-repeat spreads warmup,
    allocator and frequency-scaling drift over both sides instead of
    crediting whichever ran second; GC is paused so collection pauses from
    one side's garbage don't land in the other side's timed region.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        walls = []
        baseline_walls = []
        for _ in range(max(1, repeats)):
            walls.append(fn())
            baseline_walls.append(baseline_fn())
            gc.collect()
        return min(walls), min(baseline_walls)
    finally:
        if gc_was_enabled:
            gc.enable()


def _noop(*_args) -> None:
    return None


# ====================================================================== #
# Event churn: schedule / cancel / dispatch                              #
# ====================================================================== #
#: Concurrent event chains in the churn benchmark — the steady-state heap
#: depth, comparable to the packets+timers a busy simulated host keeps in
#: flight.
_CHURN_CHAINS = 128


def _event_churn_workload(sim_cls, n: int) -> float:
    """Steady-state schedule/dispatch/cancel churn.

    ``_CHURN_CHAINS`` self-rescheduling callbacks model in-flight packets:
    every dispatch schedules its successor, and every fourth dispatch also
    schedules-then-cancels a decoy (the retracted-timeout pattern).  This is
    the shape of the real simulation load — a small rolling heap with heavy
    schedule/dispatch traffic — rather than one giant pre-built heap.
    """
    sim = sim_cls()
    schedule = sim.schedule
    count = [0]

    def chain() -> None:
        count[0] += 1
        if count[0] <= n:
            schedule(1e-4, chain)
            if not count[0] & 3:
                schedule(5e-4, _noop).cancel()

    for i in range(_CHURN_CHAINS):
        schedule(i * 1e-6, chain)
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def bench_event_churn(n: int, repeats: int) -> BenchResult:
    wall, base = _best_of_pair(
        lambda: _event_churn_workload(Simulator, n),
        lambda: _event_churn_workload(LegacySimulator, n),
        repeats,
    )
    return BenchResult(
        name="event_churn",
        ops=n,
        wall_s=wall,
        baseline_wall_s=base,
        notes="steady-state dispatch+reschedule with 25% cancelled decoys; ops = chained dispatches",
    )


# ====================================================================== #
# Timer restart: the per-ACK RTO refresh pattern                         #
# ====================================================================== #
def _timer_restart_workload(sim_cls, timer_cls, n: int) -> float:
    sim = sim_cls()
    timer = timer_cls(sim, _noop)
    restart = timer.restart
    at = sim.at
    start = time.perf_counter()
    # One restart per simulated "ACK", arriving every 100us with an RTO of
    # 50ms: the deadline always moves later, which is what TCP does on every
    # ACK that advances the window.
    for i in range(n):
        at(i * 1e-4, restart, 0.05)
    sim.run()
    timer.cancel()
    return time.perf_counter() - start


def bench_timer_restart(n: int, repeats: int) -> BenchResult:
    wall, base = _best_of_pair(
        lambda: _timer_restart_workload(Simulator, Timer, n),
        lambda: _timer_restart_workload(LegacySimulator, LegacyTimer, n),
        repeats,
    )
    return BenchResult(
        name="timer_restart",
        ops=n,
        wall_s=wall,
        baseline_wall_s=base,
        notes="per-ACK RTO refresh; ops = timer restarts",
    )


# ====================================================================== #
# Grant dispatch: scheduler pop + window bookkeeping per MTU             #
# ====================================================================== #
def _build_grant_testbed(flows: int):
    sim = Simulator()
    host = Host(sim, "bench", "10.0.0.1", costs=HostCosts())
    cm = CongestionManager(host, feedback_watchdog=False)
    flow_ids: List[int] = []
    for i in range(flows):
        fid = cm.cm_open("10.0.0.1", "10.0.0.2", 10_000 + i, 80, "tcp")
        cm.cm_register_send(fid, _noop)
        flow_ids.append(fid)
    return sim, cm, flow_ids


def _grant_dispatch_workload(grant_fn, sim, cm, flow_ids, requests_per_flow: int) -> float:
    macroflow = cm.macroflow_of(flow_ids[0])
    scheduler = macroflow.scheduler
    enqueue = scheduler.enqueue
    for fid in flow_ids:
        for _ in range(requests_per_flow):
            enqueue(fid)
    total = len(flow_ids) * requests_per_flow
    # A window big enough for every request, so the measured region is pure
    # dispatch (no window stalls).
    macroflow.controller._cwnd = float((total + 8) * macroflow.mtu)
    start = time.perf_counter()
    grant_fn(macroflow)
    elapsed = time.perf_counter() - start
    # Drain the deferred cmapp_send callbacks and reset the grant state so
    # the next repetition starts identically.
    sim.run()
    macroflow.reserved_bytes = 0.0
    for flow in macroflow.flows.values():
        flow.granted_unnotified = 0
    return elapsed


def bench_grant_dispatch(flows: int, requests_per_flow: int, repeats: int) -> BenchResult:
    sim, cm, flow_ids = _build_grant_testbed(flows)
    wall, base = _best_of_pair(
        lambda: _grant_dispatch_workload(cm._maybe_grant, sim, cm, flow_ids, requests_per_flow),
        lambda: _grant_dispatch_workload(
            lambda mf: unbatched_maybe_grant(cm, mf), sim, cm, flow_ids, requests_per_flow
        ),
        repeats,
    )
    return BenchResult(
        name="grant_dispatch",
        ops=flows * requests_per_flow,
        wall_s=wall,
        baseline_wall_s=base,
        notes=f"{flows} flows x {requests_per_flow} pending requests; ops = grants issued",
    )


# ====================================================================== #
# End-to-end: one Figure-3 transfer                                      #
# ====================================================================== #
def bench_figure3_scenario(transfer_bytes: int, repeats: int) -> BenchResult:
    from ..experiments import figure3
    from ..experiments.topology import build_testbed, dummynet_pair_spec
    from ..transport.tcp import CMTCPSender, TCPListener

    def once() -> float:
        testbed = build_testbed(dummynet_pair_spec(loss_rate=0.01), seed=1)
        TCPListener(testbed.receiver, 5001)
        CongestionManager(testbed.sender)
        sender = CMTCPSender(
            testbed.sender, testbed.receiver.addr, 5001, receive_window=figure3.RECEIVE_WINDOW
        )
        sender.send(transfer_bytes)
        start = time.perf_counter()
        testbed.sim.run(until=900.0)
        elapsed = time.perf_counter() - start
        once.events = testbed.sim.events_dispatched
        return elapsed

    once.events = 0
    wall = _best_of(once, repeats)
    return BenchResult(
        name="figure3_scenario",
        ops=once.events,
        wall_s=wall,
        notes="TCP/CM transfer, 10 Mbps / 60 ms / 1% loss; ops = events dispatched",
    )


# ====================================================================== #
# Packet pool: segment construction via recycle vs seed allocation       #
# ====================================================================== #
def bench_packet_pool(n: int, repeats: int) -> BenchResult:
    """Cost of building one TCP data segment, pooled vs seed-allocated.

    The optimised side is the real ``data_segment`` builder handed a
    :class:`~repro.netsim.packet.PacketPool` — after warmup every build is
    a free-list pop plus slot assignments on the recycled
    :class:`TCPHeader`.  The baseline is the seed's builder preserved in
    :mod:`repro.perf.legacy`: a fresh dataclass instance plus a fresh
    4-entry header dict per segment.  This is the per-packet fixed cost
    every simulated transmission pays.
    """
    from ..netsim.packet import PacketPool
    from ..transport.tcp.segments import data_segment

    from .legacy import legacy_data_segment

    pool = PacketPool()

    def pooled_side() -> float:
        release = pool.release
        start = time.perf_counter()
        for index in range(n):
            packet = data_segment(
                "10.0.0.1", "10.0.0.2", 10_000, 80, index * 1448, 1448,
                index * 1e-4, pool=pool,
            )
            release(packet)
        return time.perf_counter() - start

    def legacy_side() -> float:
        start = time.perf_counter()
        for index in range(n):
            legacy_data_segment(
                "10.0.0.1", "10.0.0.2", 10_000, 80, index * 1448, 1448,
                index * 1e-4,
            )
        return time.perf_counter() - start

    wall, base = _best_of_pair(pooled_side, legacy_side, repeats)
    return BenchResult(
        name="packet_pool",
        ops=n,
        wall_s=wall,
        baseline_wall_s=base,
        notes=(
            "TCP data_segment via pool acquire/release vs the seed's "
            "dataclass + per-packet header dict; ops = segments built"
        ),
        extra={"pool_created": float(pool.created)},
    )


# ====================================================================== #
# Packet churn: end-to-end per-packet cost through link + IP + TCP       #
# ====================================================================== #
def bench_packet_churn(transfer_bytes: int, repeats: int) -> BenchResult:
    """Wall clock per simulated packet on a clean bulk TCP transfer.

    One Reno transfer over a fast, loss-free channel: nearly every
    dispatched event is packet machinery (serialise, propagate, deliver,
    demux, ACK), so the ``wall_us_per_packet`` extra is the end-to-end
    price of moving one packet through link + IP + transport.  The CI job
    summary prints it as the per-packet budget; ops = packets delivered
    across both directions.
    """
    from ..netsim import Channel, Host, Simulator
    from ..transport.tcp import RenoTCPSender, TCPListener

    delivered = [0]
    pool_created = [0]

    def once() -> float:
        sim = Simulator()
        sender_host = Host(sim, "snd", "10.0.0.1")
        receiver_host = Host(sim, "rcv", "10.0.0.2")
        channel = Channel(sim, sender_host, receiver_host, rate_bps=50e6,
                          one_way_delay=0.005, queue_limit=200, seed=1)
        TCPListener(receiver_host, 80)
        sender = RenoTCPSender(sender_host, receiver_host.addr, 80)
        sender.send(transfer_bytes)
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        assert sender.done
        delivered[0] = (channel.forward.stats.delivered_packets
                        + channel.reverse.stats.delivered_packets)
        pool_created[0] = sim.packet_pool.created if sim.packet_pool else 0
        return elapsed

    wall = _best_of(once, repeats)
    per_packet_us = wall / delivered[0] * 1e6 if delivered[0] else 0.0
    return BenchResult(
        name="packet_churn",
        ops=delivered[0],
        wall_s=wall,
        notes=(
            "bulk Reno transfer, 50 Mbps / 10 ms RTT / no loss; ops = packets "
            "delivered in both directions; the whole run recycles "
            "pool_created pooled segments"
        ),
        extra={
            "wall_us_per_packet": per_packet_us,
            "pool_created": float(pool_created[0]),
        },
    )


# ====================================================================== #
# Scenario compile: declarative spec -> wired simulation                 #
# ====================================================================== #
def bench_scenario_build(builds: int, repeats: int) -> BenchResult:
    """Spec-compile + wiring cost versus the seed's hand-wired construction.

    The optimised side is what every experiment now does per trial
    (``build_testbed(dummynet_pair_spec(...))`` — validation, registry
    checks, host/channel wiring through the scenario compiler); the
    baseline is the pre-scenario hand-wired ``dummynet_pair`` preserved in
    :mod:`repro.perf.legacy`.  The ratio is the price of the declarative
    layer on the construction path, which trial caching and the actual
    simulation work are expected to dwarf.
    """
    from ..experiments.topology import build_testbed, dummynet_pair_spec

    def spec_side() -> float:
        start = time.perf_counter()
        for index in range(builds):
            build_testbed(dummynet_pair_spec(loss_rate=0.01), seed=index)
        return time.perf_counter() - start

    def legacy_side() -> float:
        start = time.perf_counter()
        for index in range(builds):
            legacy_dummynet_pair(loss_rate=0.01, seed=index)
        return time.perf_counter() - start

    wall, base = _best_of_pair(spec_side, legacy_side, repeats)
    return BenchResult(
        name="scenario_build",
        ops=builds,
        wall_s=wall,
        baseline_wall_s=base,
        notes=(
            "dummynet_pair testbed: declarative ScenarioSpec compile (memoized sealed "
            "pair specs, whose validate() is a no-op, + wiring) vs the seed's "
            "hand-wired construction; ops = testbeds built"
        ),
    )


# ====================================================================== #
# Graph compile: arbitrary topology -> routed simulation                 #
# ====================================================================== #
def bench_graph_build(builds: int, repeats: int) -> BenchResult:
    """Cost of compiling a mesh GraphSpec: validation + routing + wiring.

    The workload is a 6x4 grid (24 routers, 12 hosts hanging off the edge,
    46 links) — bigger than any bundled preset, so the all-pairs
    shortest-path computation and the route installation dominate.  There
    is no seed baseline (the seed repository could not express graphs);
    the row exists to catch regressions in the spec->simulation path that
    every scale sweep now pays per trial.
    """
    from ..scenario.builder import build
    from ..scenario.spec import GraphLinkSpec, GraphNodeSpec, GraphSpec, ScenarioSpec

    rows, cols = 4, 6
    nodes = [GraphNodeSpec(name=f"r{r}_{c}", kind="router")
             for r in range(rows) for c in range(cols)]
    links = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                links.append(GraphLinkSpec(a=f"r{r}_{c}", b=f"r{r}_{c + 1}",
                                           rate_bps=10e6, delay=0.005))
            if r + 1 < rows:
                links.append(GraphLinkSpec(a=f"r{r}_{c}", b=f"r{r + 1}_{c}",
                                           rate_bps=10e6, delay=0.005))
    for r in range(rows):
        nodes.append(GraphNodeSpec(name=f"h{r}_w"))
        nodes.append(GraphNodeSpec(name=f"h{r}_e"))
        links.append(GraphLinkSpec(a=f"h{r}_w", b=f"r{r}_0", rate_bps=100e6, delay=0.001))
        links.append(GraphLinkSpec(a=f"h{r}_e", b=f"r{r}_{cols - 1}", rate_bps=100e6, delay=0.001))
    for c in range(cols):
        nodes.append(GraphNodeSpec(name=f"h{c}_n"))
        links.append(GraphLinkSpec(a=f"h{c}_n", b=f"r0_{c}", rate_bps=100e6, delay=0.001))
    spec = ScenarioSpec(name="bench_graph", graph=GraphSpec(nodes=nodes, links=links),
                        metrics=("links",))
    n_nodes, n_links = len(nodes), len(links)

    def side() -> float:
        start = time.perf_counter()
        for index in range(builds):
            build(spec, seed=index)
        return time.perf_counter() - start

    wall = _best_of(side, repeats)
    return BenchResult(
        name="graph_build",
        ops=builds,
        wall_s=wall,
        notes=(
            f"{n_nodes}-node / {n_links}-link grid mesh: GraphSpec validation + "
            "all-pairs shortest-path routing + host/link wiring; ops = graphs built"
        ),
        extra={"nodes": float(n_nodes), "links": float(n_links)},
    )


# ====================================================================== #
# Workload churn: runtime app attach/detach through the event engine     #
# ====================================================================== #
def bench_workload_churn(duration: float, repeats: int) -> BenchResult:
    """Throughput of the stochastic-workload attach/detach machinery.

    A high-rate ``tcp_flows`` generator churns small TCP/CM transfers over
    a fast two-host path: every arrival validates app params, constructs a
    listener + sender, opens a CM flow into the shared macroflow; every
    reap closes them again.  ops = attach/detach cycles completed (started
    flows), so the row tracks the fixed per-flow machinery cost rather
    than raw packet throughput.
    """
    from ..scenario.runner import run as run_scenario
    from ..scenario.spec import HostSpec, LinkSpec, ScenarioSpec, StopSpec, WorkloadSpec

    spec = ScenarioSpec(
        name="bench_workload_churn",
        hosts=[HostSpec(name="src", cm=True), HostSpec(name="dst")],
        links=[LinkSpec(a="src", b="dst", rate_bps=50e6, delay=0.002, queue_limit=200)],
        workloads=[WorkloadSpec(
            kind="tcp_flows", host="src", peer="dst", label="churn",
            params={"rate": 40.0, "min_bytes": 4_000, "pareto_alpha": 2.0,
                    "max_bytes": 40_000, "max_active": 64, "reap_interval": 0.05},
        )],
        stop=StopSpec(until=duration),
        metrics=("links",),
        seed=3,
    )
    flows = [0]

    def once() -> float:
        start = time.perf_counter()
        result = run_scenario(spec, seed=3)
        elapsed = time.perf_counter() - start
        metrics = result.workload("churn")["metrics"]
        flows[0] = metrics["flows_started"]
        return elapsed

    wall = _best_of(once, repeats)
    return BenchResult(
        name="workload_churn",
        ops=flows[0],
        wall_s=wall,
        notes=(
            f"tcp_flows generator at 40 flows/s over a 50 Mbps path for {duration:.0f}s "
            "simulated; ops = flows attached+detached through the event engine"
        ),
    )


# ====================================================================== #
# Link realism: RED gate and Gilbert-Elliott loss on the packet path     #
# ====================================================================== #
def _red_queue_workload(n: int, aqm) -> float:
    """Offer ``n`` packets through one Link at 2x its drain rate.

    The overload keeps the queue occupancy inside the RED threshold band
    for most of the run, so the timed region exercises the EWMA update and
    the mark-or-drop gate on (nearly) every arrival rather than the
    below-``min_th`` fast accept.
    """
    from ..netsim.link import Link
    from ..netsim.packet import PROTO_UDP, Packet

    sim = Simulator()
    link = Link(sim, rate_bps=8e6, delay=0.001, queue_limit=1000, seed=7,
                aqm=aqm)
    link.attach(_noop)
    offered = [0]
    gap = 0.0005  # 1000-byte packets drain in 1 ms: 2x overload

    def offer() -> None:
        if offered[0] < n:
            offered[0] += 1
            link.send(Packet(src="a", dst="b", sport=1, dport=2,
                             protocol=PROTO_UDP, payload_bytes=1000))
            sim.schedule(gap, offer)

    offer()
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def bench_red_queue(n: int, repeats: int) -> BenchResult:
    """Per-arrival cost of the RED gate versus plain drop-tail.

    Same link, same 2x-overload arrival pattern; the only difference is the
    ``aqm`` block, so ``speedup`` reads as the *overhead factor* of the
    EWMA + gate logic per packet (>1 = RED costs that much over drop-tail).
    """
    # Drop-tail is the timed side, RED the "baseline", so speedup follows
    # the telemetry_overhead convention: RED wall over drop-tail wall.
    wall, base = _best_of_pair(
        lambda: _red_queue_workload(n, None),
        lambda: _red_queue_workload(
            n, {"kind": "red", "min_th": 5, "max_th": 50, "max_p": 0.1}),
        repeats,
    )
    return BenchResult(
        name="red_queue",
        ops=n,
        wall_s=wall,
        baseline_wall_s=base,
        notes=(
            "RED (EWMA + count-corrected gate) vs drop-tail on a 2x-overloaded "
            "link; ops = packets offered, speedup = overhead factor of the gate"
        ),
    )


def bench_gilbert_elliott_churn(duration: float, repeats: int) -> BenchResult:
    """End-to-end cost of the stateful burst-loss model under flow churn.

    A ``tcp_flows`` generator churns TCP/CM transfers across a hop whose
    losses come from the two-state Markov model; the baseline is the same
    scenario with Bernoulli loss at the model's long-run rate.  The per-
    arrival state advance rides the same private-RNG draw path as Bernoulli
    loss, so ``speedup`` (GE over Bernoulli) should sit near 1.0 — the row
    exists to catch a regression that makes correlated loss expensive.
    """
    from ..scenario.runner import run as run_scenario
    from ..scenario.spec import HostSpec, LinkSpec, ScenarioSpec, StopSpec, WorkloadSpec

    def spec_for(loss_kwargs: dict) -> ScenarioSpec:
        return ScenarioSpec(
            name="bench_ge_churn",
            hosts=[HostSpec(name="src", cm=True), HostSpec(name="dst")],
            links=[LinkSpec(a="src", b="dst", rate_bps=20e6, delay=0.003,
                            queue_limit=100, **loss_kwargs)],
            workloads=[WorkloadSpec(
                kind="tcp_flows", host="src", peer="dst", label="churn",
                params={"rate": 20.0, "min_bytes": 4_000, "pareto_alpha": 2.0,
                        "max_bytes": 40_000, "max_active": 32},
            )],
            stop=StopSpec(until=duration),
            metrics=("links",),
            seed=5,
        )

    # 2% long-run loss either way: p_gb/(p_gb+p_bg) = 0.01/0.5 with the
    # 0/1 state loss defaults.
    ge_spec = spec_for({"loss": {"kind": "gilbert_elliott",
                                 "p_good_bad": 0.0102, "p_bad_good": 0.5}})
    bernoulli_spec = spec_for({"loss_rate": 0.02})
    packets = [0]

    def run_spec(spec: ScenarioSpec) -> float:
        start = time.perf_counter()
        result = run_scenario(spec, seed=5)
        elapsed = time.perf_counter() - start
        hop = result.links[0]
        packets[0] = (hop["delivered_packets"] + hop["dropped_random"]
                      + hop["dropped_overflow"])
        return elapsed

    wall, base = _best_of_pair(
        lambda: run_spec(bernoulli_spec),
        lambda: run_spec(ge_spec),
        repeats,
    )
    return BenchResult(
        name="gilbert_elliott_churn",
        ops=packets[0],
        wall_s=wall,
        baseline_wall_s=base,
        notes=(
            f"tcp_flows churn across a 2% GE burst-lossy hop for {duration:.0f}s "
            "simulated vs Bernoulli at the same long-run rate; ops = packets "
            "through the lossy hop, speedup = overhead factor of the Markov state"
        ),
    )


# ====================================================================== #
# Telemetry overhead: probes-off vs probes-on on one scenario            #
# ====================================================================== #
def bench_telemetry_overhead(duration: float, repeats: int) -> BenchResult:
    """The unified telemetry layer's cost on a dumbbell bulk-transfer run.

    The probes-off side runs the scenario with no telemetry block — every
    probe slot stays ``None`` (the compiled no-op), which is the default
    state of every experiment in the repository; its wall clock should sit
    within noise of the pre-telemetry code (cross-check the unchanged
    ``figure3_scenario`` row against BENCH_PR3.json for the regression
    story).  The probes-on side attaches the full catalog: all event probes
    recorded into a bounded ring plus every periodic sampler at 100 ms.
    The ``speedup`` column therefore reads as the *overhead factor* of
    probes-on over probes-off (>1 = instrumentation costs that much).
    """
    from ..scenario.runner import run as run_scenario
    from ..scenario.spec import (
        AppSpec,
        DumbbellSpec,
        ScenarioSpec,
        StopSpec,
        TelemetrySpec,
    )
    from ..telemetry.probes import EVENT_NAMES

    def spec_for(telemetry) -> ScenarioSpec:
        apps = []
        for index in range(2):
            apps.append(AppSpec(app="tcp_listener", host=f"receiver{index}",
                                label=f"listener{index}", params={"port": 5001}))
            apps.append(AppSpec(
                app="tcp_sender", host=f"sender{index}", peer=f"receiver{index}",
                label=f"flow{index}",
                params={"variant": "cm", "port": 5001, "transfer_bytes": 50_000_000,
                        "receive_window": 128 * 1024},
            ))
        return ScenarioSpec(
            name="bench_telemetry",
            dumbbell=DumbbellSpec(n_pairs=2, bottleneck_bps=8e6, bottleneck_delay=0.010,
                                  queue_limit=40, cm_senders=(0, 1)),
            apps=apps,
            stop=StopSpec(until=duration),
            telemetry=telemetry,
            metrics=("links",),
            seed=3,
        )

    probes_on_spec = spec_for(TelemetrySpec(
        sample_interval=0.1,
        samplers=("macroflows", "schedulers", "links", "apps"),
        events=EVENT_NAMES,
    ))
    probes_off_spec = spec_for(None)
    delivered = [0]

    def one_run(spec) -> float:
        start = time.perf_counter()
        result = run_scenario(spec, seed=3)
        elapsed = time.perf_counter() - start
        delivered[0] = sum(entry["delivered_packets"] for entry in result.links)
        return elapsed

    wall, base = _best_of_pair(
        lambda: one_run(probes_off_spec),
        lambda: one_run(probes_on_spec),
        repeats,
    )
    return BenchResult(
        name="telemetry_overhead",
        ops=delivered[0],
        wall_s=wall,
        baseline_wall_s=base,
        notes=(
            f"dumbbell bulk scenario, {duration:.0f}s simulated: probes-off (no telemetry "
            "block, every probe slot a compiled no-op) vs probes-on (all event probes + "
            "all samplers at 100 ms); 'speedup' = probes-on wall / probes-off wall, i.e. "
            "the instrumentation overhead factor; ops = packets delivered"
        ),
        extra={
            "probes_off_wall_s": wall,
            "probes_on_wall_s": base,
            "overhead_ratio": base / wall if wall > 0 else 0.0,
        },
    )


# ====================================================================== #
# Result store: BENCH-report ingestion throughput                        #
# ====================================================================== #
def bench_result_store(reports: int, repeats: int) -> BenchResult:
    """Ingestion cost of the sqlite result store (PR 6's fleet backbone).

    Each iteration ingests ``reports`` synthetic BENCH-shaped reports (9
    rows each, mirroring the real harness output) into a fresh in-memory
    store — the fixed per-artifact cost the CI perf-regression job and
    every ``--store`` flag pay.  ops = benchmark rows landed.
    """
    from ..results.store import ResultStore

    row_names = [f"bench_{index}" for index in range(9)]

    def report_for(index: int) -> dict:
        return {
            "meta": {"label": f"BENCH_PR{index + 1}", "quick": False, "python": "3.11.7",
                     "implementation": "CPython", "platform": "bench", "timestamp": ""},
            "benchmarks": {
                name: {"ops": 1000 + index, "wall_s": 0.5, "ops_per_sec": 2000.0 + index,
                       "baseline_wall_s": 1.0, "baseline_ops_per_sec": 1000.0,
                       "speedup": 2.0, "notes": "synthetic"}
                for name in row_names
            },
        }

    payloads = [report_for(index) for index in range(reports)]
    total_rows = reports * len(row_names)

    def once() -> float:
        store = ResultStore(":memory:")
        start = time.perf_counter()
        for payload in payloads:
            store.ingest_bench_report(payload)
        elapsed = time.perf_counter() - start
        store.close()
        return elapsed

    wall = _best_of(once, repeats)
    return BenchResult(
        name="result_store_ingest",
        ops=total_rows,
        wall_s=wall,
        notes=(
            f"{reports} synthetic BENCH reports x {len(row_names)} rows into an in-memory "
            "sqlite store; ops = benchmark rows ingested"
        ),
    )


# ====================================================================== #
# Parallel experiment runner: trial sharding across a process pool       #
# ====================================================================== #
def bench_experiments_parallel(
    n_seeds: int, transfer_bytes: int, jobs: int, repeats: int
) -> BenchResult:
    """Figure-3 trial shards at ``jobs`` workers vs. the serial (jobs=1) path.

    The baseline is the exact same trial list executed serially in-process,
    so the speedup column reads as the pool's scaling factor; on a single
    core it hovers around (or slightly below) 1.0 — the fork/IPC overhead —
    and approaches the worker count on multi-core machines.
    """
    from ..experiments import figure3
    from ..experiments.parallel import time_trials

    specs = figure3.trials(
        loss_rates=(0.01,), transfer_bytes=transfer_bytes, seeds=tuple(range(1, n_seeds + 1))
    )
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        # More workers than cores: the pool cannot scale, it can only add
        # fork/IPC overhead, and a "speedup" column would read as a parallel
        # scaling number it is not.  Measure the pool wall honestly, skip
        # the serial comparison, and say why in the row itself.
        wall = _best_of(lambda: time_trials(specs, jobs=jobs), repeats)
        base = None
        comparison = (f"jobs={jobs} > cpu_count={cpus}: serial baseline skipped — "
                      "a ratio here would measure pool overhead, not scaling")
    else:
        wall, base = _best_of_pair(
            lambda: time_trials(specs, jobs=jobs),
            lambda: time_trials(specs, jobs=1),
            repeats,
        )
        comparison = f"jobs={jobs} pool vs jobs=1 serial on cpu_count={cpus}"
    return BenchResult(
        name="experiments_parallel",
        ops=len(specs),
        wall_s=wall,
        baseline_wall_s=base,
        notes=f"{len(specs)} figure3 trials, {comparison}; ops = trials",
        extra={"jobs": float(jobs), "cpu_count": float(cpus)},
    )


# ====================================================================== #
# Sharded engine: conservative-lookahead multi-process graph runs        #
# ====================================================================== #
def _barbell_spec(hosts_per_cluster: int, flows_per_cluster: int,
                  transfer_bytes: int, horizon: float):
    """Two host clusters joined by one high-delay trunk (the natural cut).

    Traffic is intra-cluster TCP/CM transfers (each cluster's flows stay on
    its own shard) plus one cross-trunk flow so the boundary path is
    exercised; the idle hosts are deliberate — the sharded engine exists
    for big graphs, so the row should pay big-graph build and routing
    costs, not just flow work.
    """
    from ..scenario.spec import (AppSpec, GraphLinkSpec, GraphNodeSpec, GraphSpec,
                                 ScenarioSpec, StopSpec)

    nodes = [GraphNodeSpec(name="r0", kind="router"), GraphNodeSpec(name="r1", kind="router")]
    links = [GraphLinkSpec(a="r0", b="r1", rate_bps=100e6, delay=0.01, queue_limit=200)]
    for cluster in range(2):
        for i in range(hosts_per_cluster):
            name = f"c{cluster}h{i}"
            sender = i < flows_per_cluster or i == 2 * flows_per_cluster
            nodes.append(GraphNodeSpec(name=name, cm=sender, costs=False))
            links.append(GraphLinkSpec(a=name, b=f"r{cluster}", rate_bps=50e6,
                                       delay=0.002, queue_limit=100))
    apps = []
    for cluster in range(2):
        for i in range(flows_per_cluster):
            receiver = f"c{cluster}h{flows_per_cluster + i}"
            apps.append(AppSpec(
                app="tcp_listener", host=receiver,
                label=f"c{cluster}listener{i}", params={"port": 5001 + i}))
            apps.append(AppSpec(
                app="tcp_sender", host=f"c{cluster}h{i}", peer=receiver,
                label=f"c{cluster}flow{i}",
                params={"variant": "cm", "port": 5001 + i,
                        "transfer_bytes": transfer_bytes},
            ))
    trunk_receiver = f"c1h{2 * flows_per_cluster}"
    apps.append(AppSpec(app="tcp_listener", host=trunk_receiver,
                        label="trunk_listener", params={"port": 5999}))
    apps.append(AppSpec(
        app="tcp_sender", host=f"c0h{2 * flows_per_cluster}",
        peer=trunk_receiver, label="trunk_flow",
        params={"variant": "cm", "port": 5999, "transfer_bytes": transfer_bytes},
    ))
    return ScenarioSpec(
        name="shard_barbell",
        graph=GraphSpec(nodes=nodes, links=links),
        apps=apps,
        stop=StopSpec(until=horizon),
        metrics=("apps",),
        seed=7,
    )


def _sharded_vs_single(spec, shards: int, repeats: int):
    """(wall, baseline_wall_or_None, note) for a shards=N vs shards=1 pair.

    On a machine with fewer cores than shards the single-process comparison
    is skipped — N workers time-slicing one core measure barrier/IPC
    overhead, and reporting that as a scaling factor would be exactly the
    misleading row this harness refuses to produce.
    """
    from ..scenario.runner import run

    def timed(shard_count: int) -> float:
        start = time.perf_counter()
        run(spec, seed=spec.seed, shards=shard_count)
        return time.perf_counter() - start

    cpus = os.cpu_count() or 1
    if shards > cpus:
        wall = _best_of(lambda: timed(shards), repeats)
        return wall, None, (
            f"shards={shards} > cpu_count={cpus}: single-process baseline "
            "skipped — a ratio here would measure barrier/IPC overhead, not scaling")
    wall, base = _best_of_pair(lambda: timed(shards), lambda: timed(1), repeats)
    return wall, base, f"shards={shards} workers vs single-process on cpu_count={cpus}"


def bench_shard_scaling(shards: int, repeats: int) -> BenchResult:
    """Sharded vs single-process wall clock on the mesh preset.

    Byte-identical output is pinned elsewhere (goldens + shard-smoke CI);
    this row tracks what the determinism costs or buys in wall-clock on a
    *small* graph, where barrier overhead is at its most visible.
    """
    from ..scenario.presets import get_preset

    spec = get_preset("mesh_macroflow_sharing")
    wall, base, comparison = _sharded_vs_single(spec, shards, repeats)
    return BenchResult(
        name="shard_scaling",
        ops=1,
        wall_s=wall,
        baseline_wall_s=base,
        notes=f"mesh_macroflow_sharing preset, {comparison}; ops = runs",
        extra={"shards": float(shards), "cpu_count": float(os.cpu_count() or 1)},
    )


def bench_scale_sharded(hosts_per_cluster: int, flows_per_cluster: int,
                        transfer_bytes: int, horizon: float, shards: int,
                        repeats: int) -> BenchResult:
    """Sharded vs single-process on a big two-cluster barbell graph.

    The workload the sharded engine was built for: a graph large enough
    that one process is the bottleneck.  On a multi-core runner the speedup
    column is the real scaling factor at ``shards=2``; single-core runners
    record the sharded wall only (see :func:`_sharded_vs_single`).
    """
    spec = _barbell_spec(hosts_per_cluster, flows_per_cluster, transfer_bytes, horizon)
    total_hosts = 2 * hosts_per_cluster
    wall, base, comparison = _sharded_vs_single(spec, shards, repeats)
    return BenchResult(
        name="scale_sharded",
        ops=total_hosts,
        wall_s=wall,
        baseline_wall_s=base,
        notes=(f"{total_hosts}-host barbell, {2 * flows_per_cluster + 1} TCP/CM "
               f"flows, {comparison}; ops = hosts simulated"),
        extra={"shards": float(shards), "cpu_count": float(os.cpu_count() or 1),
               "hosts": float(total_hosts)},
    )


# ====================================================================== #
# Service control plane: job throughput through the in-process router    #
# ====================================================================== #
def bench_service_submit(jobs: int, repeats: int) -> BenchResult:
    """Jobs/s through the service stack vs. direct ``scenario.run`` calls.

    The service side submits ``jobs`` short scenarios through the JSON
    router (``POST /v1/jobs``) into a 4-slot :class:`JobManager` and waits
    for the fleet to drain — dispatch, validation, worker hand-off, the
    per-job control tick and result collection all included.  The baseline
    runs the identical (spec, seed) list as plain in-process ``run()``
    calls, so the speedup column reads as the control plane's overhead
    (expected near, and with multiple cores idle-waiting below, 1.0 — the
    simulations themselves dominate).  ops = jobs completed.
    """
    import json as _json

    from ..scenario.presets import get_preset
    from ..scenario.runner import run
    from ..service.api import ServiceApi
    from ..service.jobs import JobManager

    spec = get_preset("web_vat_mix")
    spec.stop.until = 1.0  # short horizon: measure the control plane, not the sim
    spec.validate()
    seeds = list(range(1, jobs + 1))
    body = _json.dumps({"spec": spec.to_dict(), "seeds": seeds}).encode()

    def service_side() -> float:
        manager = JobManager(slots=4)
        api = ServiceApi(manager)
        start = time.perf_counter()
        response = api.dispatch("POST", "/v1/jobs", body)
        if response.status != 201:
            raise RuntimeError(f"bench submit failed: {response.payload}")
        for entry in response.json()["jobs"]:
            manager.wait(entry["id"], timeout=300.0)
        elapsed = time.perf_counter() - start
        manager.shutdown()
        return elapsed

    def baseline_side() -> float:
        start = time.perf_counter()
        for seed in seeds:
            run(spec, seed=seed)
        return time.perf_counter() - start

    wall, base = _best_of_pair(service_side, baseline_side, repeats)
    return BenchResult(
        name="service_submit",
        ops=jobs,
        wall_s=wall,
        baseline_wall_s=base,
        notes=(
            f"{jobs} web_vat_mix jobs via POST /v1/jobs into a 4-slot JobManager vs "
            "the same (spec, seed) list as direct scenario.run calls; ops = jobs"
        ),
        extra={"slots": 4.0},
    )


# ====================================================================== #
# Driver                                                                 #
# ====================================================================== #
#: Workload sizes: (event_churn_n, timer_restart_n, grant_flows,
#: grant_requests_per_flow, figure3_bytes, parallel_seeds,
#: parallel_transfer_bytes, scenario_builds, telemetry_duration,
#: graph_builds, churn_duration, store_reports, packet_pool_n,
#: packet_churn_bytes, service_jobs, shard_hosts_per_cluster,
#: shard_flows_per_cluster, shard_transfer_bytes, shard_horizon,
#: red_queue_n, ge_churn_duration, repeats)
_FULL = (200_000, 200_000, 64, 256, 500_000, 8, 200_000, 2_000, 10.0, 300, 5.0, 200,
         500_000, 5_000_000, 8, 512, 8, 400_000, 3.0, 20_000, 5.0, 5)
_QUICK = (30_000, 30_000, 32, 64, 100_000, 4, 60_000, 400, 4.0, 60, 2.0, 40,
          100_000, 1_000_000, 4, 64, 4, 150_000, 2.0, 4_000, 2.0, 3)


def run_benchmarks(quick: bool = False, label: Optional[str] = None) -> dict:
    """Run every benchmark and return the JSON-ready report dict.

    ``label`` defaults to :func:`repro.results.labels.derive_bench_label`
    (``REPRO_BENCH_LABEL`` env var, else the next PR number after the
    checked-in ``BENCH_PR<k>.json`` history) so neither callers nor the CI
    workflow hard-code a PR number.
    """
    from ..results.labels import derive_bench_label

    if label is None:
        label = derive_bench_label()
    sizes = _QUICK if quick else _FULL
    (churn_n, timer_n, grant_flows, grant_reqs, fig3_bytes, par_seeds, par_bytes,
     scenario_builds, telemetry_duration, graph_builds, churn_duration, store_reports,
     packet_pool_n, packet_churn_bytes, service_jobs, shard_hosts, shard_flows,
     shard_bytes, shard_horizon, red_queue_n, ge_duration, repeats) = sizes
    pool_jobs = max(2, min(4, os.cpu_count() or 1))
    results = [
        bench_event_churn(churn_n, repeats),
        bench_timer_restart(timer_n, repeats),
        bench_grant_dispatch(grant_flows, grant_reqs, repeats),
        bench_figure3_scenario(fig3_bytes, repeats),
        bench_packet_pool(packet_pool_n, repeats),
        bench_packet_churn(packet_churn_bytes, repeats),
        bench_scenario_build(scenario_builds, repeats),
        bench_graph_build(graph_builds, repeats),
        bench_workload_churn(churn_duration, repeats),
        bench_red_queue(red_queue_n, repeats),
        bench_gilbert_elliott_churn(ge_duration, repeats),
        bench_telemetry_overhead(telemetry_duration, repeats),
        bench_result_store(store_reports, repeats),
        bench_service_submit(service_jobs, min(repeats, 2)),
        bench_experiments_parallel(par_seeds, par_bytes, pool_jobs, min(repeats, 2)),
        bench_shard_scaling(2, min(repeats, 2)),
        bench_scale_sharded(shard_hosts, shard_flows, shard_bytes, shard_horizon,
                            2, min(repeats, 2)),
    ]
    from ..experiments.artifacts import git_revision

    return {
        "meta": {
            "label": label,
            "quick": quick,
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "benchmarks": {result.name: result.to_dict() for result in results},
    }


def write_report(report: dict, path: str) -> None:
    """Write the report as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_report(report: dict) -> str:
    """Human-readable one-line-per-benchmark summary."""
    lines = [f"perf report {report['meta']['label']} (quick={report['meta']['quick']})"]
    for name, payload in sorted(report["benchmarks"].items()):
        line = f"  {name:<18} {payload['ops_per_sec']:>14,.0f} ops/s  wall {payload['wall_s'] * 1e3:8.2f} ms"
        speedup = payload.get("speedup")
        if speedup is not None:
            line += f"  x{speedup:.2f} vs seed"
        lines.append(line)
    return "\n".join(lines)
