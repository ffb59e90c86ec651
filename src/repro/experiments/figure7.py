"""Figure 7: sharing TCP congestion state across sequential web requests.

A client fetches the same 128 kB file nine times, starting a new request
500 ms after the previous request started, and each request uses a brand-new
TCP connection.  Without the CM every connection slow-starts from scratch;
with the CM all the connections (being to the same destination) share one
macroflow, so later connections start with the congestion window and RTT
estimate the earlier ones built up — the paper measures roughly a 40 %
improvement in completion time for the later requests, while the *first* CM
request is one RTT slower because the CM's initial window is 1 MTU versus
Linux's 2.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis.stats import summarize
from ..scenario import AppSpec, StopSpec, build, run_built
from .base import ExperimentResult
from .sweep import Sweep, TrialOutcome
from .topology import wan_pair_spec

__all__ = ["SWEEP", "run_trial", "reduce"]

FILE_SIZE = 128 * 1024
N_REQUESTS = 9
REQUEST_SPACING = 0.5
DEFAULT_SEEDS = (3,)


def run_trial(params: dict) -> List[float]:
    """All request durations for one (variant, seed) run of the fetch train."""
    variant, n_requests, spacing = params["variant"], params["n_requests"], params["spacing"]
    spec = wan_pair_spec(
        cm=variant == "cm",
        apps=[
            AppSpec(app="web_server", host="sender", params={"port": 80, "variant": variant}),
            AppSpec(app="web_client", host="receiver", peer="sender", params={
                "server_port": 80, "n_requests": n_requests, "spacing": spacing,
                "size": params["file_size"],
            }),
        ],
        stop=StopSpec(until=n_requests * spacing + 120.0),
    )
    scenario = build(spec, seed=params["seed"])
    run_built(scenario)
    # In seconds and unrounded: the web_client metrics report milliseconds.
    return [fetch.duration for fetch in scenario.apps[1].client.fetches]


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Average per-request durations across seeds for both variants."""
    by_variant: Dict[str, List[List[float]]] = {"cm": [], "linux": []}
    n_requests = 0
    for outcome in outcomes:
        by_variant[outcome.spec.params["variant"]].append(list(outcome.value))
        n_requests = outcome.spec.params["n_requests"]
    result = ExperimentResult(
        name="figure7",
        title="Sequential 128 kB fetches, ms to complete each request",
        columns=["request", "tcp_cm_ms", "tcp_linux_ms", "cm_speedup_%", "cm_ci95_ms", "linux_ci95_ms"],
    )
    n_common = min(len(durations) for durations in by_variant["cm"] + by_variant["linux"])
    cm_durations: List[float] = []
    linux_durations: List[float] = []
    for index in range(n_common):
        cm = summarize([durations[index] for durations in by_variant["cm"]])
        linux = summarize([durations[index] for durations in by_variant["linux"]])
        cm_durations.append(cm.mean)
        linux_durations.append(linux.mean)
        speedup = 100.0 * (linux.mean - cm.mean) / linux.mean if linux.mean > 0 else 0.0
        result.add_row(
            index + 1, cm.mean * 1000.0, linux.mean * 1000.0, speedup,
            cm.ci95 * 1000.0, linux.ci95 * 1000.0,
        )
    later_cm = sum(cm_durations[2:]) / max(1, len(cm_durations[2:]))
    later_linux = sum(linux_durations[2:]) / max(1, len(linux_durations[2:]))
    if later_linux > 0:
        result.notes.append(
            f"Later requests (3..{n_requests}) improve by "
            f"{100.0 * (later_linux - later_cm) / later_linux:.1f}% with the CM (paper: ~40%)."
        )
    result.notes.append(
        "Paper: the first CM request pays one extra RTT (initial window 1 vs 2); subsequent "
        "requests avoid slow start entirely by inheriting the macroflow's window."
    )
    return result


SWEEP = Sweep(
    "figure7",
    axes=[("variant", ("cm", "linux")), ("seed", DEFAULT_SEEDS)],
    fixed={"file_size": FILE_SIZE, "n_requests": N_REQUESTS, "spacing": REQUEST_SPACING},
    trial=run_trial,
    reduce=reduce,
    smoke={"file_size": 64 * 1024, "n_requests": 5},
)
