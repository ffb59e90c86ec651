"""Figure 10: the effect of delaying receiver feedback.

Same rate-callback layered application as Figure 9, but the receiver batches
its acknowledgements: feedback is sent only every ``min(500 packets, 2
seconds)``.  The paper's observations, reproduced here as series and summary
rows:

* the initial slow start is delayed by about two seconds while the sender
  waits for the first feedback;
* once the pipe fills, feedback arrives in large bursts, so the reported
  rate (and hence the transmission rate) becomes bursty rather than smooth.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .base import ExperimentResult
from .layered_common import layered_params, run_layered_trial
from .sweep import Sweep, TrialOutcome

__all__ = ["SWEEP", "reduce"]

#: Constant-bandwidth path; the burstiness comes from the feedback batching,
#: not from path changes.
FLAT_SCHEDULE: Tuple[Tuple[float, float], ...] = ((0.0, 16e6),)


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Turn the layered-run dict into the Figure 10 series and summary rows."""
    outcome = outcomes[0].value
    transmission_series = [tuple(point) for point in outcome["transmission_series"]]
    reported_series = [tuple(point) for point in outcome["reported_series"]]
    result = ExperimentResult(
        name="figure10",
        title="Rate-callback application with delayed feedback min(500 pkts, 2 s)",
        columns=["metric", "value"],
    )
    result.add_series("transmission_rate", transmission_series)
    result.add_series("cm_reported_rate", reported_series)

    # When does the transmission rate first exceed the lowest layer?  With
    # prompt feedback this happens almost immediately; with delayed feedback
    # it waits for the first feedback batch (~2 s).
    first_rise = next(
        (t for t, v in transmission_series if v > 150_000), float("nan")
    )
    result.add_row("time_of_first_rate_increase_s", first_rise)
    result.add_row("packets_sent", outcome["packets_sent"])
    result.add_row("rate_callbacks", len(reported_series))
    tx_values = [v for _t, v in transmission_series if v > 0]
    if tx_values:
        mean_tx = sum(tx_values) / len(tx_values)
        peak = max(tx_values)
        result.add_row("mean_transmission_rate_Bps", mean_tx)
        result.add_row("peak_to_mean_ratio", peak / mean_tx if mean_tx else 0.0)
    result.notes.append(
        "Paper: the initial slow start is delayed about 2 s waiting for the first feedback batch, "
        "and the reported rate is bursty because 500 acknowledgements arrive at once."
    )
    return result


SWEEP = Sweep(
    "figure10",
    axes=(),
    fixed=layered_params(mode="rate", duration=70.0, bandwidth_schedule=FLAT_SCHEDULE,
                         ack_every_packets=500, ack_delay=2.0, rate_bin=1.0),
    trial=run_layered_trial,
    reduce=reduce,
    smoke={"duration": 30.0},
)
