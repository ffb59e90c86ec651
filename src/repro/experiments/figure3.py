"""Figure 3: throughput vs. packet loss rate for TCP/CM and TCP/Linux.

Paper setup: bulk transfers over a 10 Mbps Dummynet pipe with a 60 ms RTT
while the forward-path random loss rate sweeps from 0 to 5 %.  The claim
being reproduced is that TCP with its congestion control performed by the CM
degrades with loss the same way native TCP does (the two curves lie on top
of each other), with TCP/CM slightly below at very low loss because of its
1-MTU initial window and byte counting.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis.stats import summarize
from ..scenario import AppSpec, StopSpec, run as run_scenario
from .base import ExperimentResult
from .sweep import Sweep, TrialOutcome
from .topology import dummynet_pair_spec

__all__ = ["SWEEP", "run_trial", "reduce", "DEFAULT_LOSS_RATES", "DEFAULT_SEEDS"]

DEFAULT_SEEDS = (1, 2)

DEFAULT_LOSS_RATES = (0.0, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05)

#: Receive window matching the era's Linux default socket buffers; it is what
#: capped the paper's zero-loss throughput near 500 KB/s on this path.
RECEIVE_WINDOW = 32 * 1024


def run_trial(params: dict) -> float:
    """Throughput of one (variant, loss, seed) transfer; pure function of ``params``."""
    transfer_bytes = params["transfer_bytes"]
    cm = params["variant"] == "cm"
    spec = dummynet_pair_spec(
        loss_rate=params["loss"],
        cm=cm,
        apps=[
            AppSpec(app="tcp_listener", host="receiver", params={"port": 5001}),
            AppSpec(app="tcp_sender", host="sender", peer="receiver", label="transfer", params={
                "variant": "cm" if cm else "reno", "port": 5001,
                "transfer_bytes": transfer_bytes, "receive_window": RECEIVE_WINDOW,
            }),
        ],
        stop=StopSpec(until=900.0, when_apps_done=True),
    )
    sender = run_scenario(spec, seed=params["seed"]).app("transfer")["metrics"]
    elapsed = sender["duration_s"] or 0.0
    if elapsed <= 0.0:
        # Degenerate short transfer (or incomplete run): a zero-or-negative
        # wall-clock window would crash the whole trial shard, so fall back
        # to the sender's own rate estimate instead of dividing by it.
        return sender["throughput_Bps"]
    return transfer_bytes / elapsed


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Average the per-seed throughputs into the Figure 3 table with error bars."""
    result = ExperimentResult(
        name="figure3",
        title="Throughput vs. loss, 10 Mbps / 60 ms RTT (KB/s)",
        columns=[
            "loss_%", "tcp_cm_kBps", "tcp_linux_kBps", "ratio_cm_over_linux",
            "cm_stddev_kBps", "cm_ci95_kBps", "linux_stddev_kBps", "linux_ci95_kBps", "seeds",
        ],
    )
    grouped: Dict[float, Dict[str, List[float]]] = {}
    for outcome in outcomes:
        params = outcome.spec.params
        per_loss = grouped.setdefault(params["loss"], {"cm": [], "linux": []})
        per_loss[params["variant"]].append(outcome.value / 1000.0)
    for loss, values in grouped.items():
        cm = summarize(values["cm"])
        linux = summarize(values["linux"])
        ratio = cm.mean / linux.mean if linux.mean > 0 else 0.0
        result.add_row(
            loss * 100.0, cm.mean, linux.mean, ratio,
            cm.stddev, cm.ci95, linux.stddev, linux.ci95, cm.n,
        )
    result.notes.append(
        "Paper: both variants degrade together from ~450-500 KB/s at zero loss; "
        "TCP/CM sits slightly below TCP/Linux at low loss (initial window of 1 vs 2)."
    )
    return result


SWEEP = Sweep(
    "figure3",
    # Several seeds average independent loss patterns per point and feed the
    # stddev/CI columns; the paper's curves are single runs.
    axes=[("loss", DEFAULT_LOSS_RATES), ("variant", ("cm", "linux")), ("seed", DEFAULT_SEEDS)],
    fixed={"transfer_bytes": 2_000_000},
    trial=run_trial,
    reduce=reduce,
    smoke={"loss": (0.0, 0.01, 0.03), "transfer_bytes": 200_000},
)
