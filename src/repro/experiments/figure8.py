"""Figure 8: adaptive layered application using the ALF (request/callback) API.

The server picks the layer to transmit from ``cm_query`` at every send
opportunity and otherwise sends as fast as the CM permits.  The reproduced
behaviour: the transmission rate tracks the CM-reported rate closely and
reacts quickly (many small layer oscillations), following the bandwidth
steps imposed on the path.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis import oscillation_count
from .base import ExperimentResult
from .layered_common import layered_params, run_layered_trial
from .sweep import Sweep, TrialOutcome

__all__ = ["SWEEP", "reduce"]


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


SWEEP = Sweep(
    "figure8",
    axes=(),
    fixed=layered_params(mode="alf", duration=25.0),
    trial=run_layered_trial,
    reduce=reduce,
    smoke={"duration": 12.0},
)
