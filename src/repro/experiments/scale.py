"""Host-count scaling: per-macroflow fairness under stochastic flow churn.

The CM paper argues its per-destination aggregation keeps an ensemble of
flows *stable and fair*; its testbeds, however, never exceeded a handful of
hosts.  This experiment sweeps the number of sender hosts competing on one
shared bottleneck — each host running a persistent TCP/CM transfer *plus* a
seeded stochastic churn of short flows through the same macroflow — and
measures how fairly the bottleneck divides between the macroflows.

Topology (built from a :class:`~repro.scenario.spec.GraphSpec`): ``n``
sender hosts on fast access links into a left router, one constrained
left->right link, one sink host.  All of host *i*'s traffic (the persistent
flow and every churned flow) targets the sink, so it aggregates into a
single macroflow per host and the per-host byte count *is* the macroflow's
share of the bottleneck.

The headline metric is Jain's fairness index over those shares; the
ROADMAP-level acceptance bar is >= 0.9 with 16 hosts of churning flows.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis import jain_fairness
from ..analysis.stats import summarize
from .base import ExperimentResult
from .sweep import Sweep, TrialOutcome

__all__ = ["SWEEP", "run_trial", "reduce", "scale_spec"]

DEFAULT_HOST_COUNTS = (4, 8, 16)
DEFAULT_SEEDS = (1,)
#: Long enough to amortise the AIMD convergence transient; at shorter
#: horizons the index is dominated by who won the first slow-start race.
DEFAULT_DURATION = 40.0

BOTTLENECK_BPS = 12e6
BOTTLENECK_DELAY = 0.010
ACCESS_BPS = 200e6
ACCESS_DELAY = 0.5e-3
RECEIVE_WINDOW = 256 * 1024


def scale_spec(n_hosts: int, duration: float):
    """The n-sender shared-bottleneck graph with per-host churn workloads."""
    from ..scenario import (
        AppSpec,
        GraphLinkSpec,
        GraphNodeSpec,
        GraphSpec,
        ScenarioSpec,
        StopSpec,
        WorkloadSpec,
    )

    nodes = [GraphNodeSpec(name=f"s{i}", cm=True) for i in range(n_hosts)]
    nodes += [
        GraphNodeSpec(name="sink"),
        GraphNodeSpec(name="rl", kind="router"),
        GraphNodeSpec(name="rr", kind="router"),
    ]
    links = [
        GraphLinkSpec(a=f"s{i}", b="rl", rate_bps=ACCESS_BPS, delay=ACCESS_DELAY,
                      queue_limit=200)
        for i in range(n_hosts)
    ]
    links.append(GraphLinkSpec(a="rl", b="rr", rate_bps=BOTTLENECK_BPS,
                               delay=BOTTLENECK_DELAY, queue_limit=50))
    links.append(GraphLinkSpec(a="rr", b="sink", rate_bps=ACCESS_BPS, delay=ACCESS_DELAY,
                               queue_limit=200))

    apps: List = []
    workloads: List = []
    churn = {
        "arrival": "poisson",
        "rate": 1.0,
        "variant": "cm",
        "min_bytes": 15_000,
        "pareto_alpha": 1.5,
        "max_bytes": 300_000,
        "max_active": 8,
        "receive_window": RECEIVE_WINDOW,
    }
    for i in range(n_hosts):
        apps.append(AppSpec(app="tcp_listener", host="sink",
                            label=f"listener{i}", params={"port": 5001 + i}))
        # The persistent flow keeps host i's macroflow backlogged, so the
        # fairness measurement reflects contention, not idleness.
        apps.append(AppSpec(
            app="tcp_sender", host=f"s{i}", peer="sink", label=f"persistent{i}",
            params={"variant": "cm", "port": 5001 + i, "transfer_bytes": 10 ** 9,
                    "receive_window": RECEIVE_WINDOW},
        ))
        workloads.append(WorkloadSpec(
            kind="tcp_flows", host=f"s{i}", peer="sink", label=f"churn{i}",
            params=dict(churn, port_base=20_000 + 1_000 * i),
        ))
    return ScenarioSpec(
        name=f"scale_{n_hosts}hosts",
        description=f"{n_hosts} churning senders sharing one {BOTTLENECK_BPS / 1e6:.0f} Mbps bottleneck",
        graph=GraphSpec(nodes=nodes, links=links),
        apps=apps,
        workloads=workloads,
        stop=StopSpec(until=duration),
        metrics=("apps", "links"),
        seed=1,
    )


def run_trial(params: dict) -> dict:
    """Run one (host count, seed) scenario; return per-macroflow shares."""
    from ..scenario.runner import run as run_scenario

    n_hosts = params["n_hosts"]
    spec = scale_spec(n_hosts, params["duration"])
    result = run_scenario(spec, seed=params["seed"])

    per_macroflow: List[int] = []
    for i in range(n_hosts):
        persistent = result.app(f"persistent{i}")["metrics"]["bytes_acked"]
        churned = result.workload(f"churn{i}")["metrics"]["bytes_acked"]
        per_macroflow.append(persistent + churned)
    flows_churned = sum(
        result.workload(f"churn{i}")["metrics"]["flows_started"] for i in range(n_hosts)
    )
    bottleneck = next(entry for entry in result.links if entry["link"] == "rl->rr")
    total_bytes = sum(per_macroflow)
    return {
        "n_hosts": n_hosts,
        "seed": params["seed"],
        "per_macroflow_bytes": per_macroflow,
        "jain_fairness": jain_fairness([float(b) for b in per_macroflow]),
        "flows_churned": flows_churned,
        "goodput_Bps": total_bytes / params["duration"],
        "bottleneck_delivered": bottleneck["delivered_packets"],
        "bottleneck_drops": bottleneck["dropped_overflow"],
    }


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Average the fairness index over seeds per host count and tabulate."""
    result = ExperimentResult(
        name="scale",
        title="Per-macroflow Jain fairness on a shared bottleneck vs. host count",
        columns=["n_hosts", "jain_fairness", "min_fairness", "flows_churned",
                 "goodput_MBps", "utilization"],
    )
    grouped: Dict[int, List[dict]] = {}
    for outcome in outcomes:
        grouped.setdefault(outcome.spec.params["n_hosts"], []).append(outcome.value)
    for n_hosts, values in grouped.items():
        fairness = [v["jain_fairness"] for v in values]
        goodput = summarize([v["goodput_Bps"] for v in values]).mean
        result.add_row(
            n_hosts,
            summarize(fairness).mean,
            min(fairness),
            sum(v["flows_churned"] for v in values),
            goodput / 1e6,
            min(1.0, goodput * 8.0 / BOTTLENECK_BPS),
        )
    result.notes.append(
        "Each host aggregates a persistent TCP/CM transfer plus Poisson-churned "
        "Pareto-sized flows into one per-destination macroflow; Jain's index over the "
        "per-macroflow byte counts measures how fairly the CM ensembles share the "
        "bottleneck.  The paper's stability claim predicts the index stays near 1.0 "
        "as hosts are added; the acceptance bar is >= 0.9 at 16 hosts."
    )
    return result


SWEEP = Sweep(
    "scale",
    axes=[("n_hosts", DEFAULT_HOST_COUNTS), ("seed", DEFAULT_SEEDS)],
    fixed={"duration": DEFAULT_DURATION},
    trial=run_trial,
    reduce=reduce,
    smoke={"n_hosts": (2, 4), "duration": 6.0},
)
