"""Figure 10 benchmark: rate-callback application with delayed receiver feedback."""

import math

from repro.experiments.runner import run_experiment


def test_bench_figure10_delayed_feedback(benchmark, once):
    result = once(benchmark, run_experiment, "figure10", duration=60.0)
    rows = {r[0]: r[1] for r in result.rows}

    # The initial ramp is delayed waiting for the first feedback batch
    # (paper: ~2 s; the staircase ramp makes it a few seconds here).
    assert not math.isnan(rows["time_of_first_rate_increase_s"])
    assert rows["time_of_first_rate_increase_s"] >= 1.5
    # Feedback batching makes the behaviour bursty rather than smooth.
    assert rows["peak_to_mean_ratio"] > 1.3
    # Despite the burstiness the application still reaches a high rate.
    assert rows["mean_transmission_rate_Bps"] > 200_000
    print(result.to_text())
