"""Figure 7 benchmark: sharing congestion state across sequential web requests."""

from repro.experiments.runner import run_experiment


def test_bench_figure7_state_sharing(benchmark, once):
    result = once(benchmark, run_experiment, "figure7")
    cm_ms = result.column("tcp_cm_ms")
    linux_ms = result.column("tcp_linux_ms")

    # Later CM requests avoid slow start and are much faster than the first;
    # without the CM every request costs about the same.
    later_cm = sum(cm_ms[2:]) / len(cm_ms[2:])
    later_linux = sum(linux_ms[2:]) / len(linux_ms[2:])
    improvement = (later_linux - later_cm) / later_linux
    assert 0.2 < improvement < 0.8          # paper reports ~40%
    assert cm_ms[-1] < 0.75 * cm_ms[0]      # warm requests clearly faster
    assert abs(linux_ms[-1] - linux_ms[0]) < 0.25 * linux_ms[0]
    # The first CM request must not be dramatically slower than native TCP
    # (only about one extra RTT from the 1-MTU initial window).
    assert cm_ms[0] < 1.3 * linux_ms[0]
    print(result.to_text())
