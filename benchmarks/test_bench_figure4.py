"""Figure 4 benchmark: 100 Mbps bulk TCP throughput, CM vs native."""

from repro.experiments.runner import run_experiment


def test_bench_figure4_bulk_throughput(benchmark, once):
    result = once(benchmark, run_experiment, "figure4", nbuffers=(1_000, 5_000, 20_000))
    # The paper's claim: throughput essentially identical, worst case ~0.5%
    # (we allow a few percent at the truncated transfer sizes, and require the
    # gap to shrink as transfers get longer).
    differences = [abs(row[3]) for row in result.rows]
    assert differences[-1] < 2.0
    assert all(d < 10.0 for d in differences)
    # Both saturate the link: >10 MB/s goodput on 100 Mbps Ethernet.
    assert result.rows[-1][1] > 10_000
    assert result.rows[-1][2] > 10_000
    print(result.to_text())
