"""Figure 8: adaptive layered application using the ALF (request/callback) API.

The server picks the layer to transmit from ``cm_query`` at every send
opportunity and otherwise sends as fast as the CM permits.  The reproduced
behaviour: the transmission rate tracks the CM-reported rate closely and
reacts quickly (many small layer oscillations), following the bandwidth
steps imposed on the path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..analysis import oscillation_count
from .base import ExperimentResult
from .layered_common import DEFAULT_BANDWIDTH_SCHEDULE, run_layered_trial
from .parallel import TrialOutcome, TrialSpec, run_trials

__all__ = ["run", "trials", "run_trial", "reduce"]

run_trial = run_layered_trial


def trials(
    duration: float = 25.0,
    bandwidth_schedule: Sequence[Tuple[float, float]] = DEFAULT_BANDWIDTH_SCHEDULE,
) -> List[TrialSpec]:
    """A single trial: one ALF-mode layered-streaming run.

    Every knob of :func:`run_layered_trial` appears in the params explicitly —
    the cache contract forbids hidden defaults.
    """
    return [
        TrialSpec(
            "figure8",
            {
                "mode": "alf",
                "duration": duration,
                "bandwidth_schedule": [list(step) for step in bandwidth_schedule],
                "ack_every_packets": 1,
                "ack_delay": None,
                "thresh": 1.5,
                "seed": 11,
                "rate_bin": 0.5,
            },
        )
    ]


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Turn the layered-run dict into the Figure 8 series and summary rows."""
    outcome = outcomes[0].value
    transmission_series = [tuple(point) for point in outcome["transmission_series"]]
    result = ExperimentResult(
        name="figure8",
        title="Layered application, ALF API: rate over time (bytes/s)",
        columns=["metric", "value"],
    )
    result.add_series("transmission_rate", transmission_series)
    result.add_series("cm_reported_rate", [tuple(point) for point in outcome["reported_series"]])
    mean_tx = (
        sum(v for _t, v in transmission_series) / len(transmission_series)
        if transmission_series
        else 0.0
    )
    result.add_row("mean_transmission_rate_Bps", mean_tx)
    result.add_row("packets_sent", outcome["packets_sent"])
    result.add_row("bytes_received_at_client", outcome["bytes_received"])
    result.add_row("layer_switches", oscillation_count([layer for _t, layer in outcome["layer_history"]]))
    result.add_row("loss_events", outcome["loss_events"])
    result.notes.append(
        "Paper: the ALF sender tracks the CM-reported rate closely and oscillates between "
        "layers more often than the rate-callback sender of Figure 9."
    )
    return result


def run(
    duration: float = 25.0,
    bandwidth_schedule: Sequence[Tuple[float, float]] = DEFAULT_BANDWIDTH_SCHEDULE,
    progress: Optional[callable] = None,
) -> ExperimentResult:
    """Run the ALF-mode layered server and report its rate time-series."""
    specs = trials(duration=duration, bandwidth_schedule=bandwidth_schedule)
    return reduce(run_trials(specs, jobs=1, progress=progress))


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().to_text())
