"""The metric catalogue, the layer map and the small statistics the ledger uses.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names and units
this benchmark prints; ``BENCHMARK.json`` lists the same names (a test keeps
the two in step) and additionally owns the regression bounds, which ``python
-m bench agree`` reads from it.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "Metric", "END_TO_END", "PER_LAYER", "LAYERS", "LAYER_RULES", "ISOLATED",
    "EXACT_COUNTS", "layer_of", "median", "percentile",
    "highest_supported_percentile",
]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median an end-to-end metric may worsen by;
    #: ``None`` for per-layer metrics, which carry no bound.
    bound: Optional[float] = None


#: Defined on every workload (see README for the per-workload denominators).
#: Every time is net of hypervisor steal (bench.steal).  Bounds: even so,
#: whole 12 s runs on this box differ by an interquartile 3-20 %, so every
#: time metric takes the contract's ceiling; memory is steadier (up to 5 %).
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_wall_s", "s", "lower", 0.25),
    Metric("run_cpu_s", "s", "lower", 0.25),
    Metric("wall_us_per_packet", "us", "lower", 0.25),
    Metric("cpu_us_per_packet", "us", "lower", 0.25),
    Metric("wall_s_per_sim_s", "s/s", "lower", 0.25),
    Metric("job_latency_s_p50", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

#: cProfile attribution layers, in ledger order.  ``python-other`` is the
#: interpreter, the stdlib and every ``repro`` package no workload's event
#: loop enters (service, experiments, perf, analysis).
LAYERS: Tuple[str, ...] = (
    "netsim.engine", "netsim.link", "netsim.packet", "netsim.node",
    "netsim.ingress", "netsim.parallel", "iplayer", "transport.tcp",
    "transport.udp", "core", "core.libcm", "hostmodel", "apps", "workloads",
    "telemetry", "scenario", "results", "python-other",
)

#: Path prefix (relative to ``src/repro/``) -> layer; the longest matching
#: prefix wins, and a module matching no prefix is an error.
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("__init__.py", "python-other"),
    ("analysis/", "python-other"),
    ("experiments/", "python-other"),
    ("perf/", "python-other"),
    ("service/", "python-other"),
    ("netsim/", "netsim.node"),          # node.py, graph.py (topology wiring)
    ("netsim/engine.py", "netsim.engine"),
    ("netsim/link.py", "netsim.link"),
    ("netsim/channel.py", "netsim.link"),
    ("netsim/packet.py", "netsim.packet"),
    ("netsim/ingress.py", "netsim.ingress"),
    ("netsim/parallel/", "netsim.parallel"),
    ("netsim/trace.py", "telemetry"),
    ("iplayer/", "iplayer"),
    ("transport/", "transport.tcp"),
    ("transport/udp/", "transport.udp"),
    ("core/", "core"),
    ("core/libcm.py", "core.libcm"),
    ("hostmodel/", "hostmodel"),
    ("apps/", "apps"),
    ("workloads/", "workloads"),
    ("telemetry/", "telemetry"),
    ("scenario/", "scenario"),
    ("scenario/telemetry.py", "telemetry"),
    ("results/", "results"),
)


def layer_of(relative_path: str) -> str:
    """The layer owning ``src/repro/<relative_path>``; raises if none does."""
    best: Optional[Tuple[str, str]] = None
    for prefix, layer in LAYER_RULES:
        if relative_path.startswith(prefix) and (best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    if best is None:
        raise KeyError(f"src/repro/{relative_path} maps to no benchmark layer; "
                       "add a rule to bench.metrics.LAYER_RULES")
    return best[1]


#: Isolated drivers in ``bench/layers.py`` (median microseconds per operation).
ISOLATED: Tuple[str, ...] = (
    "netsim.engine.schedule_dispatch_us", "netsim.engine.timer_restart_us",
    "netsim.link.send_deliver_us", "netsim.link.red_admit_us",
    "netsim.link.ge_admit_us", "netsim.packet.acquire_release_us",
    "iplayer.forward_us", "core.request_grant_update_us", "core.open_close_us",
    "core.query_us", "core.libcm.request_dispatch_us", "hostmodel.charge_us",
    "telemetry.probe_noop_us", "telemetry.probe_emit_us",
    "scenario.spec.validate_us", "scenario.spec.roundtrip_us",
    "scenario.builder.build_pair_us", "scenario.builder.build_graph_us",
    "workloads.arrivals.draw_us", "results.store.ingest_bench_row_us",
    "service.http_roundtrip_us", "service.http_keepalive_roundtrip_us",
    "service.mailbox_roundtrip_us",
)

#: Counts read from results and public attributes; they repeat exactly for a
#: fixed seed, and ``agree`` requires them equal between two result sets.
EXACT_COUNTS: Tuple[Tuple[str, str], ...] = (
    ("netsim.engine.events_dispatched", "lower"),
    ("netsim.link.delivered_packets", "higher"),
    ("netsim.link.dropped_overflow", "lower"),
    ("netsim.link.dropped_random", "lower"),
    ("netsim.link.ecn_marked", "lower"),
    ("netsim.packet.pool_created", "lower"),
    ("transport.tcp.retransmissions", "lower"),
    ("transport.tcp.timeouts", "lower"),
    ("core.libcm.selects", "lower"),
    ("core.libcm.ioctls", "lower"),
    ("workloads.flows_started", "higher"),
    ("telemetry.trace_lines", "lower"),
    ("telemetry.trace_bytes", "lower"),
)

PER_LAYER: Tuple[Metric, ...] = (
    # Phase spans around the calls the driver makes (medians; 0 where the
    # workload never makes the call, e.g. service.* off service_jobs).
    Metric("scenario.spec.validate_s", "s", "lower"),
    Metric("scenario.builder.build_s", "s", "lower"),
    Metric("scenario.runner.run_s", "s", "lower"),
    Metric("scenario.runner.collect_s", "s", "lower"),
    Metric("results.store.ingest_s", "s", "lower"),
    Metric("netsim.parallel.partition_s", "s", "lower"),
    Metric("netsim.parallel.single_wall_s", "s", "lower"),
    Metric("netsim.parallel.speedup", "ratio", "higher"),
    Metric("service.submit_s", "s", "lower"),
    Metric("service.queue_wait_s", "s", "lower"),
    Metric("service.job_run_s", "s", "lower"),
    Metric("service.fetch_s", "s", "lower"),
    Metric("service.poll_count", "count", "lower"),
    Metric("service.direct_run_s", "s", "lower"),
    Metric("service.job_latency_s_p90", "s", "lower"),
    Metric("service.jobs_per_s", "1/s", "higher"),
    # cProfile attribution of the run phase.
    Metric("trace_overhead_ratio", "ratio", "lower"),
    *(Metric(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS),
    *(Metric(f"{layer}.calls_per_packet", "1/packet", "lower") for layer in LAYERS),
    *(Metric(name, "us", "lower") for name in ISOLATED),
    *(Metric(name, "count", better) for name, better in EXACT_COUNTS),
    Metric("netsim.engine.events_per_packet", "1/packet", "lower"),
    Metric("hostmodel.cpu_total_us", "us", "lower"),
)


def median(values: Sequence[float]) -> float:
    """Median, 0.0 for an empty sample (a span that never ran)."""
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


def highest_supported_percentile(n: int,
                                 candidates: Sequence[float] = (90, 95, 99)) -> Optional[float]:
    """The highest candidate percentile with at least ten samples beyond it.

    ``None`` means the sample supports the median only (n = 5 repeats do).
    """
    supported: List[float] = [p for p in candidates if n * (100 - p) / 100 >= 10]
    return max(supported) if supported else None


def as_entries(values: Dict[str, float], catalogue: Sequence[Metric]) -> Dict[str, Dict[str, object]]:
    """``{name: {"value", "unit"}}`` for exactly the catalogue's names."""
    missing = [metric.name for metric in catalogue if metric.name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    return {metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in catalogue}
