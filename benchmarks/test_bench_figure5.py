"""Figure 5 benchmark: CPU overhead of the CM during bulk transfers."""

from repro.experiments.runner import run_experiment


def test_bench_figure5_cpu_overhead(benchmark, once):
    result = once(benchmark, run_experiment, "figure5", nbuffers=(1_000, 5_000, 20_000))
    # The CM costs a little CPU, and for long transfers the difference
    # settles close to the paper's "slightly under 1%" (allow up to ~3 points
    # for the scaled-down transfers of this harness).
    final_difference = result.rows[-1][3]
    assert 0.0 < final_difference < 3.0
    # The difference must not grow with transfer length (it converges).
    assert result.rows[-1][3] <= result.rows[0][3] + 1.5
    print(result.to_text())
