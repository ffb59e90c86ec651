"""Figure 9 benchmark: layered streaming over the rate-callback API."""

from repro.analysis import series_mean
from repro.experiments.runner import run_experiment


def test_bench_figure9_rate_callback_adaptation(benchmark, once):
    schedule = ((0.0, 20e6), (8.0, 4e6), (14.0, 12e6))
    result = once(benchmark, run_experiment, "figure9", duration=20.0, bandwidth_schedule=schedule)
    alf = run_experiment("figure8", duration=20.0, bandwidth_schedule=schedule)

    tx = result.series["transmission_rate"]
    rows = {r[0]: r[1] for r in result.rows}
    alf_rows = {r[0]: r[1] for r in alf.rows}

    # The rate-callback sender still adapts to the imposed bandwidth drop...
    before = series_mean([(t, v) for t, v in tx if 4.0 <= t < 8.0])
    during = series_mean([(t, v) for t, v in tx if 10.0 <= t < 14.0])
    assert before > 1.5 * during
    # ...but with far fewer notifications and fewer layer switches than the
    # ALF sender (the paper's Figure 8 vs Figure 9 contrast).
    assert rows["rate_callbacks"] < 200
    assert rows["layer_switches"] <= alf_rows["layer_switches"]
    print(result.to_text())
