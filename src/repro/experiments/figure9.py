"""Figure 9: adaptive layered application using the rate-callback API.

The server is self-clocked at the nominal rate of its current layer and only
switches layer when a ``cmapp_update`` callback (armed with ``cm_thresh``)
reports that conditions changed beyond the configured factors.  Compared to
the ALF sender of Figure 8 it adapts in coarser steps and relies on
short-term kernel buffering for smoothing — the reproduced observable is
that it switches layers noticeably less often while still following the
imposed bandwidth changes.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis import oscillation_count
from .base import ExperimentResult
from .layered_common import layered_params, run_layered_trial
from .sweep import Sweep, TrialOutcome

__all__ = ["SWEEP", "reduce"]


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Turn the layered-run dict into the Figure 9 series and summary rows."""
    outcome = outcomes[0].value
    transmission_series = [tuple(point) for point in outcome["transmission_series"]]
    reported_series = [tuple(point) for point in outcome["reported_series"]]
    result = ExperimentResult(
        name="figure9",
        title="Layered application, rate-callback API: rate over time (bytes/s)",
        columns=["metric", "value"],
    )
    result.add_series("transmission_rate", transmission_series)
    result.add_series("cm_reported_rate", reported_series)
    mean_tx = (
        sum(v for _t, v in transmission_series) / len(transmission_series)
        if transmission_series
        else 0.0
    )
    result.add_row("mean_transmission_rate_Bps", mean_tx)
    result.add_row("packets_sent", outcome["packets_sent"])
    result.add_row("bytes_received_at_client", outcome["bytes_received"])
    result.add_row("layer_switches", oscillation_count([layer for _t, layer in outcome["layer_history"]]))
    result.add_row("rate_callbacks", len(reported_series))
    result.notes.append(
        "Paper: the rate-callback sender adapts with fewer, threshold-driven layer changes "
        "than the ALF sender (Figure 8) at a much lower notification overhead."
    )
    return result


SWEEP = Sweep(
    "figure9",
    axes=(),
    fixed=layered_params(mode="rate", duration=20.0),
    trial=run_layered_trial,
    reduce=reduce,
    smoke={"duration": 10.0},
)
