"""Benchmark: a CM ensemble competes like one flow, parallel TCPs do not."""

from repro.experiments.runner import run_experiment


def test_bench_ensemble_aggressiveness(benchmark, once):
    result = once(benchmark, run_experiment, "aggressiveness", n=(4,), duration=10.0)
    row = result.rows[0]
    _n, share_vs_cm, share_vs_independent, _ideal_single, ideal_independent = row
    # Against the CM ensemble the single reference flow keeps a share much
    # closer to one half; against 4 independent connections it is squeezed
    # towards 1/5.
    assert share_vs_cm > share_vs_independent + 0.1
    assert share_vs_cm > 0.3
    assert share_vs_independent < ideal_independent + 0.15
    print(result.to_text())
