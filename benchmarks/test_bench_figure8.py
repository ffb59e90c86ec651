"""Figure 8 benchmark: layered streaming over the ALF (request/callback) API."""

from repro.analysis import series_mean
from repro.experiments.runner import run_experiment


def test_bench_figure8_alf_adaptation(benchmark, once):
    result = once(benchmark, run_experiment, "figure8", duration=20.0,
                  bandwidth_schedule=((0.0, 20e6), (8.0, 4e6), (14.0, 12e6)))
    tx = result.series["transmission_rate"]
    rows = {r[0]: r[1] for r in result.rows}

    # The sender must actually adapt: high rate before the bandwidth drop,
    # clearly lower during it, and recovering afterwards.
    before = series_mean([(t, v) for t, v in tx if 4.0 <= t < 8.0])
    during = series_mean([(t, v) for t, v in tx if 9.0 <= t < 14.0])
    after = series_mean([(t, v) for t, v in tx if 16.0 <= t < 20.0])
    assert before > 1.5 * during
    assert after > during
    # ALF mode consults the CM constantly and oscillates between layers.
    assert rows["layer_switches"] >= 4
    assert result.series["cm_reported_rate"]
    print(result.to_text())
