"""CM fairness against an unresponsive UDP blast sharing the bottleneck.

The CM paper's scheduler can only regulate traffic that *joins* the manager;
an application that blasts UDP from an unconnected socket bypasses the
per-destination macroflow entirely and never backs off.  This experiment
puts two persistent TCP/CM transfers behind one 8 Mbps bottleneck, then
sweeps an unresponsive constant-bit-rate blast from 0 up to beyond the
bottleneck rate, and measures two things:

* **Jain fairness among the CM flows** — the managed flows must keep
  dividing whatever capacity the hog leaves them *evenly*; hostile
  cross-traffic is no excuse for intra-ensemble unfairness.  The
  acceptance bar is Jain >= 0.9 at every blast rate.
* **CM share of the bottleneck** — how much the responsive flows concede,
  the textbook "TCP-friendly flows lose to a firehose" curve.

Topology mirrors the ``cm_vs_udp_blast`` preset: two CM senders and the
blast source on fast access links into a router, one constrained hop, and
separate sinks so the blast never shares a macroflow with the transfers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis import jain_fairness
from ..analysis.stats import summarize
from .base import ExperimentResult
from .sweep import Sweep, TrialOutcome

__all__ = ["SWEEP", "run_trial", "reduce", "hostile_spec"]

#: Blast rate as a fraction of the bottleneck rate.  1.25 overdrives the
#: hop: the hog alone can fill the queue, the worst case for the CM flows.
DEFAULT_BLAST_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.25)
DEFAULT_SEEDS = (1,)
DEFAULT_DURATION = 20.0

BOTTLENECK_BPS = 8e6
BOTTLENECK_DELAY = 0.010
ACCESS_BPS = 40e6
ACCESS_DELAY = 1e-3
N_CM_FLOWS = 2
BLAST_PACKET_BYTES = 1_000
RECEIVE_WINDOW = 256 * 1024

FAIRNESS_BAR = 0.9


def hostile_spec(blast_fraction: float, duration: float):
    """Two persistent CM transfers plus a CBR UDP blast on one bottleneck."""
    from ..scenario import (
        AppSpec,
        GraphLinkSpec,
        GraphNodeSpec,
        GraphSpec,
        ScenarioSpec,
        StopSpec,
        WorkloadSpec,
    )

    nodes = [
        GraphNodeSpec(name="srv", cm=True),
        GraphNodeSpec(name="hog"),
        GraphNodeSpec(name="r0", kind="router"),
        GraphNodeSpec(name="r1", kind="router"),
        GraphNodeSpec(name="cli"),
        GraphNodeSpec(name="hogsink"),
    ]
    links = [
        GraphLinkSpec(a="srv", b="r0", rate_bps=ACCESS_BPS, delay=ACCESS_DELAY,
                      queue_limit=100),
        GraphLinkSpec(a="hog", b="r0", rate_bps=ACCESS_BPS, delay=ACCESS_DELAY,
                      queue_limit=100),
        GraphLinkSpec(a="r0", b="r1", rate_bps=BOTTLENECK_BPS,
                      delay=BOTTLENECK_DELAY, queue_limit=40),
        GraphLinkSpec(a="cli", b="r1", rate_bps=ACCESS_BPS, delay=ACCESS_DELAY,
                      queue_limit=100),
        GraphLinkSpec(a="hogsink", b="r1", rate_bps=ACCESS_BPS, delay=ACCESS_DELAY,
                      queue_limit=100),
    ]
    apps: List = []
    for i in range(N_CM_FLOWS):
        apps.append(AppSpec(app="tcp_listener", host="cli",
                            label=f"listener{i}", params={"port": 5001 + i}))
        apps.append(AppSpec(
            app="tcp_sender", host="srv", peer="cli", label=f"cm_flow{i}",
            params={"variant": "cm", "port": 5001 + i, "transfer_bytes": 10 ** 9,
                    "receive_window": RECEIVE_WINDOW},
        ))
    workloads: List = []
    if blast_fraction > 0.0:
        workloads.append(WorkloadSpec(
            kind="udp_blast", host="hog", peer="hogsink", label="blast",
            params={"rate_bps": blast_fraction * BOTTLENECK_BPS,
                    "packet_bytes": BLAST_PACKET_BYTES, "port": 9900},
        ))
    return ScenarioSpec(
        name=f"hostile_{int(round(blast_fraction * 100))}pct",
        description=(
            f"{N_CM_FLOWS} CM transfers vs. a {blast_fraction:.2f}x-bottleneck "
            "unresponsive UDP blast"
        ),
        graph=GraphSpec(nodes=nodes, links=links),
        apps=apps,
        workloads=workloads,
        stop=StopSpec(until=duration),
        metrics=("apps", "links"),
        seed=1,
    )


def run_trial(params: dict) -> dict:
    """Run one (blast fraction, seed) scenario; return shares and fairness."""
    from ..scenario.runner import run as run_scenario

    fraction = params["blast_fraction"]
    duration = params["duration"]
    spec = hostile_spec(fraction, duration)
    result = run_scenario(spec, seed=params["seed"])

    cm_bytes = [
        result.app(f"cm_flow{i}")["metrics"]["bytes_acked"]
        for i in range(N_CM_FLOWS)
    ]
    blast_bytes = 0
    if fraction > 0.0:
        blast_bytes = result.workload("blast")["metrics"]["bytes_delivered"]
    bottleneck = next(e for e in result.links if e["link"] == "r0->r1")
    return {
        "blast_fraction": fraction,
        "seed": params["seed"],
        "cm_bytes": cm_bytes,
        "cm_jain_fairness": jain_fairness([float(b) for b in cm_bytes]),
        "cm_goodput_Bps": sum(cm_bytes) / duration,
        "blast_goodput_Bps": blast_bytes / duration,
        "bottleneck_drops": bottleneck["dropped_overflow"],
    }


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Average over seeds per blast fraction and tabulate the shares."""
    result = ExperimentResult(
        name="hostile",
        title="CM flows sharing a bottleneck with an unresponsive UDP blast",
        columns=["blast_fraction", "cm_jain_fairness", "cm_share",
                 "blast_share", "bottleneck_drops"],
    )
    capacity = BOTTLENECK_BPS / 8.0
    grouped: Dict[float, List[dict]] = {}
    for outcome in outcomes:
        grouped.setdefault(outcome.spec.params["blast_fraction"], []).append(outcome.value)
    worst_fairness = 1.0
    for fraction, values in grouped.items():
        fairness = summarize([v["cm_jain_fairness"] for v in values]).mean
        worst_fairness = min(worst_fairness, min(v["cm_jain_fairness"] for v in values))
        result.add_row(
            fraction,
            fairness,
            summarize([v["cm_goodput_Bps"] for v in values]).mean / capacity,
            summarize([v["blast_goodput_Bps"] for v in values]).mean / capacity,
            sum(v["bottleneck_drops"] for v in values),
        )
    result.notes.append(
        "The blast never joins the CM (unconnected UDP socket), so it takes its "
        "configured rate regardless of congestion; the managed flows concede the "
        "remainder but must keep splitting it evenly between themselves.  "
        f"Acceptance: CM-flow Jain fairness >= {FAIRNESS_BAR} at every blast rate "
        f"(worst observed: {worst_fairness:.4f} — "
        f"{'PASS' if worst_fairness >= FAIRNESS_BAR else 'FAIL'})."
    )
    return result


SWEEP = Sweep(
    "hostile",
    axes=[("blast_fraction", DEFAULT_BLAST_FRACTIONS), ("seed", DEFAULT_SEEDS)],
    fixed={"duration": DEFAULT_DURATION},
    trial=run_trial,
    reduce=reduce,
    smoke={"blast_fraction": (0.0, 0.5), "duration": 8.0},
)
