"""Goodput vs. loss burstiness at a fixed long-run loss rate.

Independent (Bernoulli) loss and bursty (Gilbert–Elliott) loss with the
*same average rate* are very different beasts for a congestion-managed
sender: independent drops arrive one per window and each one halves the
rate, while a fade that takes out a whole flight costs a single backoff
but risks a retransmission timeout.  This experiment holds the long-run
loss rate constant and sweeps the mean fade length — the knob the
two-state Markov model exposes — then measures bulk goodput through the
lossy hop.

For a Gilbert–Elliott channel with ``loss_good=0`` / ``loss_bad=1`` the
stationary loss rate is ``p_gb / (p_gb + p_bg)`` and the mean burst length
is ``1 / p_bg``; given a target rate *L* and burst length *B* we set
``p_bg = 1/B`` and ``p_gb = L / (B * (1 - L))``.  Burst length 1 *still
differs from Bernoulli* (a packet that just survived the good state is
safer than average), so the table includes a true Bernoulli row as the
baseline.

Topology mirrors the ``gilbert_wireless_bulk`` preset: fast edges around a
2 Mbps "wireless" hop that carries the configured loss process, one bulk
TCP/CM transfer pushing through it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis.stats import summarize
from .base import ExperimentResult
from .sweep import Sweep, TrialOutcome

__all__ = ["SWEEP", "run_trial", "reduce", "burstloss_spec"]

#: Mean fade lengths (packets); 0 encodes the Bernoulli baseline.
DEFAULT_BURST_LENGTHS = (0, 1, 2, 4, 8)
DEFAULT_LOSS_RATE = 0.03
#: Fade placement relative to flight boundaries dominates a single run, so
#: the default curve averages a few seeds (each trial is ~40 ms).
DEFAULT_SEEDS = (1, 2, 3)
DEFAULT_DURATION = 30.0

BOTTLENECK_BPS = 2e6
BOTTLENECK_DELAY = 0.015
ACCESS_BPS = 30e6
ACCESS_DELAY = 1e-3
TRANSFER_BYTES = 10 ** 9
RECEIVE_WINDOW = 128 * 1024


def ge_params(loss_rate: float, burst_length: float) -> dict:
    """Gilbert–Elliott transition probabilities for a target (rate, burst)."""
    if not 0.0 < loss_rate < 1.0:
        raise ValueError("loss_rate must be in (0, 1)")
    if burst_length < 1.0:
        raise ValueError("burst_length must be >= 1")
    p_bad_good = 1.0 / burst_length
    p_good_bad = loss_rate * p_bad_good / (1.0 - loss_rate)
    return {"kind": "gilbert_elliott", "p_good_bad": p_good_bad,
            "p_bad_good": p_bad_good}


def burstloss_spec(burst_length: float, loss_rate: float, duration: float):
    """A bulk CM transfer over a lossy hop; burst_length 0 = Bernoulli."""
    from ..scenario import (
        AppSpec,
        GraphLinkSpec,
        GraphNodeSpec,
        GraphSpec,
        ScenarioSpec,
        StopSpec,
    )

    lossy = dict(a="r0", b="r1", rate_bps=BOTTLENECK_BPS,
                 delay=BOTTLENECK_DELAY, queue_limit=25)
    if burst_length:
        lossy["loss"] = ge_params(loss_rate, burst_length)
    else:
        lossy["loss_rate"] = loss_rate
    return ScenarioSpec(
        name=f"burstloss_b{burst_length:g}",
        description=(
            f"Bulk CM transfer over a {loss_rate:.0%} lossy hop, "
            + (f"mean fade {burst_length:g} packets" if burst_length
               else "independent (Bernoulli) drops")
        ),
        graph=GraphSpec(
            nodes=[
                GraphNodeSpec(name="src", cm=True),
                GraphNodeSpec(name="r0", kind="router"),
                GraphNodeSpec(name="r1", kind="router"),
                GraphNodeSpec(name="dst"),
            ],
            links=[
                GraphLinkSpec(a="src", b="r0", rate_bps=ACCESS_BPS,
                              delay=ACCESS_DELAY, queue_limit=100),
                GraphLinkSpec(**lossy),
                GraphLinkSpec(a="r1", b="dst", rate_bps=ACCESS_BPS,
                              delay=ACCESS_DELAY, queue_limit=100),
            ],
        ),
        apps=[
            AppSpec(app="tcp_listener", host="dst", label="listener",
                    params={"port": 5001}),
            AppSpec(app="tcp_sender", host="src", peer="dst", label="bulk",
                    params={"variant": "cm", "port": 5001,
                            "transfer_bytes": TRANSFER_BYTES,
                            "receive_window": RECEIVE_WINDOW}),
        ],
        stop=StopSpec(until=duration),
        metrics=("apps", "links"),
        seed=1,
    )


def run_trial(params: dict) -> dict:
    """Run one (burst length, seed) scenario; return goodput and loss stats."""
    from ..scenario.runner import run as run_scenario

    burst = params["burst_length"]
    duration = params["duration"]
    spec = burstloss_spec(burst, params["loss_rate"], duration)
    result = run_scenario(spec, seed=params["seed"])

    bulk = result.app("bulk")["metrics"]
    hop = next(e for e in result.links if e["link"] == "r0->r1")
    offered = hop["delivered_packets"] + hop["dropped_random"] + hop["dropped_overflow"]
    return {
        "burst_length": burst,
        "seed": params["seed"],
        "goodput_Bps": bulk["bytes_acked"] / duration,
        "retransmissions": bulk["retransmissions"],
        "timeouts": bulk["timeouts"],
        "observed_loss": hop["dropped_random"] / offered if offered else 0.0,
        "dropped_random": hop["dropped_random"],
    }


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Average over seeds per burst length: the goodput-vs-burstiness curve."""
    result = ExperimentResult(
        name="burstloss",
        title="Bulk CM goodput vs. loss burstiness at a fixed mean loss rate",
        columns=["mean_burst", "goodput_KBps", "utilization", "observed_loss",
                 "retransmissions", "timeouts"],
    )
    grouped: Dict[float, List[dict]] = {}
    for outcome in outcomes:
        grouped.setdefault(outcome.spec.params["burst_length"], []).append(outcome.value)
    for burst, values in grouped.items():
        goodput = summarize([v["goodput_Bps"] for v in values]).mean
        result.add_row(
            burst if burst else "bernoulli",
            goodput / 1e3,
            min(1.0, goodput * 8.0 / BOTTLENECK_BPS),
            summarize([v["observed_loss"] for v in values]).mean,
            sum(v["retransmissions"] for v in values),
            sum(v["timeouts"] for v in values),
        )
    result.notes.append(
        "Every row sees the same long-run loss rate "
        f"({DEFAULT_LOSS_RATE:.0%} by default); only the correlation structure "
        "changes.  Rows with mean_burst >= 1 use a Gilbert-Elliott channel "
        "(p_bad_good = 1/burst, p_good_bad solved for the target rate); the "
        "bernoulli row is the independent-drop baseline.  Longer fades "
        "concentrate drops into fewer congestion events, trading window "
        "backoffs for timeout risk."
    )
    return result


SWEEP = Sweep(
    "burstloss",
    axes=[("burst_length", DEFAULT_BURST_LENGTHS), ("seed", DEFAULT_SEEDS)],
    fixed={"loss_rate": DEFAULT_LOSS_RATE, "duration": DEFAULT_DURATION},
    trial=run_trial,
    reduce=reduce,
    smoke={"burst_length": (0, 4), "duration": 10.0},
)
