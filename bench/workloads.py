"""The six benchmark workloads, generated from public ``repro.scenario.spec`` classes.

Every generator takes ``scale`` (1.0 = the measured size; the warm-up runs at
0.1, the smoke tests at 0.05) and returns a fresh, unvalidated
:class:`~repro.scenario.spec.ScenarioSpec`.  The run seed is *not* baked into
the spec: the driver passes ``--seed`` to ``build(spec, seed=N)`` /
``run(spec, seed=N)`` / the job body, so the program under test only ever
sees generated inputs.

``WORKLOADS`` carries the one-sentence *why* of each workload; the same
sentences are in ``BENCHMARK.json`` (a test keeps the two in step).

Sizes: one repeat of each workload costs about one second of host time on
the 2-core reference box, so a 12 s run holds ~10 repeats and the reported
median survives the multi-second slow phases a shared host goes through.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

from repro.scenario.presets import get_preset
from repro.scenario.spec import (
    AppSpec,
    GraphLinkSpec,
    GraphNodeSpec,
    GraphSpec,
    HostSpec,
    LinkSpec,
    ScenarioSpec,
    StopSpec,
    WorkloadSpec,
)

__all__ = ["WORKLOADS", "Workload", "DEFAULT_SEED", "MSS",
           "SERVICE_CLIENTS", "SERVICE_JOBS_PER_CLIENT"]

#: The seed whose result digests are pinned under ``bench/expected/``.
DEFAULT_SEED = 1

#: TCP payload bytes per segment (the ``tcp_sender`` default), the packet
#: denominator of ``barbell_sharded`` whose result carries no link section.
MSS = 1448

#: Closed-loop client threads of ``service_jobs`` (= ``nproc`` of the
#: reference box), one connection each, and jobs each submits per repeat.
SERVICE_CLIENTS = 2
SERVICE_JOBS_PER_CLIENT = 10


def bulk_share(scale: float = 1.0) -> ScenarioSpec:
    """8 staggered TCP/CM senders into one receiver over one link."""
    apps: List[AppSpec] = []
    for index in range(8):
        port = 5001 + index
        apps.append(AppSpec(app="tcp_listener", host="receiver",
                            label=f"listener{index}", params={"port": port}))
        apps.append(AppSpec(
            app="tcp_sender", host="sender", peer="receiver", label=f"flow{index}",
            params={"variant": "cm", "port": port,
                    "transfer_bytes": max(MSS, int(2_000_000 * scale)),
                    "receive_window": 256 * 1024, "start_at": 0.25 * index},
        ))
    return ScenarioSpec(
        name="bulk_share",
        description="8 staggered TCP/CM transfers sharing one macroflow on a "
                    "40 Mbps / 20 ms / queue-100 link.",
        hosts=[HostSpec(name="sender", cm=True), HostSpec(name="receiver")],
        links=[LinkSpec(a="sender", b="receiver", rate_bps=40e6, delay=0.02,
                        queue_limit=100)],
        apps=apps,
        stop=StopSpec(until=120.0, when_apps_done=True),
        metrics=("apps", "links", "hosts"),
    )


def stream_adapt(scale: float = 1.0) -> ScenarioSpec:
    """Layered ALF streaming + vat from one CM server over a stepping link."""
    horizon = 10.0 * scale
    steps = tuple((horizon * share, rate)
                  for share, rate in ((0.25, 4e6), (0.5, 12e6), (0.75, 6e6)))
    return ScenarioSpec(
        name="stream_adapt",
        description="layered_streaming (ALF, libcm select) + vat from one CM "
                    "server; the 16 Mbps link steps 16->4->12->6 Mbps.",
        hosts=[HostSpec(name="server", cm=True), HostSpec(name="client")],
        links=[LinkSpec(a="server", b="client", rate_bps=16e6, delay=0.0375,
                        queue_limit=60, rate_schedule=steps)],
        apps=[
            AppSpec(app="ack_reflector", host="client", label="media_sink",
                    params={"port": 9001}),
            AppSpec(app="layered_streaming", host="server", peer="client",
                    label="media",
                    params={"port": 9001, "mode": "alf", "libcm_mode": "select"}),
            AppSpec(app="ack_reflector", host="client", label="vat_sink",
                    params={"port": 9002}),
            AppSpec(app="vat", host="server", peer="client", label="vat",
                    params={"port": 9002}),
        ],
        stop=StopSpec(until=horizon),
        metrics=("apps", "links", "hosts"),
    )


def graph_churn(scale: float = 1.0) -> ScenarioSpec:
    """The ``parking_lot_mix`` topology under long-running mixed churn.

    The driver runs every seed it is given, and the end-to-end times of a
    seed scale with the packets that seed happens to generate.  The traffic
    is therefore shaped so that the volume barely depends on the seed: many
    small light-tailed churn flows and a constant-rate blast carry most of
    it, and the never-finishing long flow is window-limited (8 kB) so that
    its luck with burst losses moves little.  Across seeds 1-10 the delivered
    packets spread by an interquartile 3 % (the preset's own shape: 19 %).
    """
    horizon = 25.0 * scale
    routers = [GraphNodeSpec(name=f"r{i}", kind="router") for i in range(4)]
    hosts = [GraphNodeSpec(name="lsrc", cm=True), GraphNodeSpec(name="ldst")]
    for i in range(3):
        hosts += [GraphNodeSpec(name=f"c{i}s", cm=True), GraphNodeSpec(name=f"c{i}d")]
    access = dict(rate_bps=40e6, delay=0.001, queue_limit=100)
    segment = dict(rate_bps=8e6, delay=0.008, queue_limit=40)
    links = [
        GraphLinkSpec(a="r0", b="r1", **segment),
        GraphLinkSpec(a="r1", b="r2", **dict(
            segment, queue_limit=60,
            aqm={"kind": "red", "min_th": 6, "max_th": 18, "max_p": 0.1})),
        GraphLinkSpec(a="r2", b="r3", **dict(
            segment, loss={"kind": "gilbert_elliott",
                           "p_good_bad": 0.002, "p_bad_good": 0.5})),
        GraphLinkSpec(a="lsrc", b="r0", **access),
        GraphLinkSpec(a="ldst", b="r3", **access),
    ]
    for i in range(3):
        links += [GraphLinkSpec(a=f"c{i}s", b=f"r{i}", **access),
                  GraphLinkSpec(a=f"c{i}d", b=f"r{i + 1}", **access)]
    churn = {"arrival": "poisson", "rate": 6.0, "min_bytes": 10_000,
             "pareto_alpha": 2.5, "max_bytes": 30_000, "max_active": 32}
    workloads = [
        WorkloadSpec(kind="tcp_flows", host=f"c{i}s", peer=f"c{i}d",
                     label=f"segment{i}_churn", params=dict(churn))
        for i in range(3)
    ]
    workloads.append(WorkloadSpec(
        kind="web_sessions", host="c0d", peer="c0s", label="web",
        params={"rate": 1.0, "requests_mean": 3.0, "think_mean": 0.4,
                "min_bytes": 12_288, "pareto_alpha": 2.5, "max_bytes": 60_000}))
    workloads.append(WorkloadSpec(
        kind="udp_blast", host="c1s", peer="c1d", label="blast",
        start=horizon * 0.1, stop=horizon * 0.9,
        params={"rate_bps": 3e6, "packet_bytes": 1_000, "port": 9900}))
    return ScenarioSpec(
        name="graph_churn",
        description="Parking-lot chain (RED on one segment, Gilbert-Elliott "
                    "loss on another) under a never-finishing long flow, "
                    "per-segment TCP churn, web sessions and a UDP blast.",
        graph=GraphSpec(nodes=hosts[:2] + routers + hosts[2:], links=links),
        apps=[
            AppSpec(app="tcp_listener", host="ldst", label="long_listener",
                    params={"port": 5001}),
            AppSpec(app="tcp_sender", host="lsrc", peer="ldst", label="long_flow",
                    params={"variant": "cm", "port": 5001,
                            "transfer_bytes": 10 ** 9,
                            "receive_window": 8 * 1024}),
            AppSpec(app="web_server", host="c0s", label="web_server",
                    params={"port": 80, "variant": "cm"}),
        ],
        workloads=workloads,
        stop=StopSpec(until=horizon),
        metrics=("apps", "links", "hosts"),
    )


def barbell_sharded(scale: float = 1.0) -> ScenarioSpec:
    """2 x 256-host barbell: intra-cluster TCP/CM flows plus one trunk flow.

    The idle hosts are deliberate: the sharded engine exists for big graphs,
    so the workload pays big-graph build and routing costs in every worker.
    """
    hosts_per_cluster, flows_per_cluster = 256, 8
    transfer_bytes = 8_000_000  # more than the horizon lets any flow finish
    nodes = [GraphNodeSpec(name="r0", kind="router"),
             GraphNodeSpec(name="r1", kind="router")]
    links = [GraphLinkSpec(a="r0", b="r1", rate_bps=100e6, delay=0.01,
                           queue_limit=200)]
    for cluster in range(2):
        for i in range(hosts_per_cluster):
            name = f"c{cluster}h{i}"
            sender = i < flows_per_cluster or i == 2 * flows_per_cluster
            nodes.append(GraphNodeSpec(name=name, cm=sender, costs=False))
            links.append(GraphLinkSpec(a=name, b=f"r{cluster}", rate_bps=50e6,
                                       delay=0.002, queue_limit=100))
    apps: List[AppSpec] = []
    for cluster in range(2):
        for i in range(flows_per_cluster):
            receiver = f"c{cluster}h{flows_per_cluster + i}"
            apps.append(AppSpec(app="tcp_listener", host=receiver,
                                label=f"c{cluster}listener{i}",
                                params={"port": 5001 + i}))
            apps.append(AppSpec(
                app="tcp_sender", host=f"c{cluster}h{i}", peer=receiver,
                label=f"c{cluster}flow{i}",
                params={"variant": "cm", "port": 5001 + i,
                        "transfer_bytes": transfer_bytes}))
    trunk_receiver = f"c1h{2 * flows_per_cluster}"
    apps.append(AppSpec(app="tcp_listener", host=trunk_receiver,
                        label="trunk_listener", params={"port": 5999}))
    apps.append(AppSpec(
        app="tcp_sender", host=f"c0h{2 * flows_per_cluster}", peer=trunk_receiver,
        label="trunk_flow",
        params={"variant": "cm", "port": 5999, "transfer_bytes": transfer_bytes}))
    return ScenarioSpec(
        name="barbell_sharded",
        description="2 x 256-host barbell, 8 intra-cluster TCP/CM flows per "
                    "side plus one trunk flow, run on 2 shard processes.",
        graph=GraphSpec(nodes=nodes, links=links),
        apps=apps,
        stop=StopSpec(until=2.0 * scale),
        metrics=("apps",),
    )


def service_jobs(scale: float = 1.0) -> ScenarioSpec:
    """The job each ``service_jobs`` client submits: a short ``web_vat_mix``."""
    spec = get_preset("web_vat_mix")
    spec.name = "service_jobs"
    spec.stop = StopSpec(until=3.0 * scale)
    return spec


class Workload(NamedTuple):
    """One benchmark workload: its spec generator, how it runs, and why."""

    spec: Callable[[float], ScenarioSpec]
    #: ``inproc`` (build + run_built), ``probed`` (same, with a JSONL trace),
    #: ``sharded`` (run(spec, shards=2)) or ``service`` (HTTP closed loop).
    mode: str
    why: str


WORKLOADS: Dict[str, Workload] = {
    "bulk_share": Workload(
        bulk_share, "inproc",
        "The paper's core case, many TCP flows in one macroflow: per-packet path "
        "engine->link->ip->tcp->CM and nothing else, so core + transport.tcp lead."),
    "stream_adapt": Workload(
        stream_adapt, "inproc",
        "The content-adaptation half: libcm, UDP, apps, rate callbacks and the "
        "hostmodel ledger lead and TCP is absent, so a TCP or link gain must not move it."),
    "graph_churn": Workload(
        graph_churn, "inproc",
        "Multi-hop forwarding under flow churn with RED and burst loss: engine, link, "
        "ingress and ip lead and CM per hop is small, so an engine/link gain shows here."),
    "bulk_share_probed": Workload(
        bulk_share, "probed",
        "bulk_share with every probe and sampler attached and streamed to a file: same "
        "result bytes, and the wall gap to bulk_share is the telemetry cost."),
    "barbell_sharded": Workload(
        barbell_sharded, "sharded",
        "The only workload entering netsim.parallel (partition, barrier, pipe) and the "
        "only one where graph build and routing, paid per worker, is a visible share."),
    "service_jobs": Workload(
        service_jobs, "service",
        "Closed-loop submit-to-result round trips through HTTP, job fleet, control tick "
        "and store ingest with a small simulation, so the control plane is most of the time."),
}
