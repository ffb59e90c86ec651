"""Figure 3 benchmark: TCP/CM vs TCP/Linux throughput under loss."""

from repro.experiments.runner import run_experiment


def test_bench_figure3_throughput_vs_loss(benchmark, once):
    result = once(
        benchmark,
        run_experiment,
        "figure3",
        loss=(0.0, 0.01, 0.03, 0.05),
        transfer_bytes=1_000_000,
        seed=(1, 2),
    )
    cm = result.column("tcp_cm_kBps")
    linux = result.column("tcp_linux_kBps")

    # Shape of the paper's Figure 3: throughput falls monotonically-ish with
    # loss for both variants, starting near the receive-window limit
    # (~450-500 KB/s), and the two curves track each other.
    assert cm[0] > cm[-1] * 2
    assert linux[0] > linux[-1] * 2
    assert 350 < cm[0] < 600
    assert 350 < linux[0] < 600
    assert 0.85 < cm[0] / linux[0] < 1.15
    for cm_val, linux_val in zip(cm, linux):
        assert 0.35 < cm_val / linux_val < 1.6
    print(result.to_text())
