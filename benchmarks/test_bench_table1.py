"""Table 1 benchmark: cumulative per-packet operation counts for each API."""

from repro.experiments.runner import run_experiment


def test_bench_table1_operation_counts(benchmark, once):
    result = once(benchmark, run_experiment, "table1", packet_size=1000, npackets=800)
    rows = {row[0]: dict(zip(result.columns[1:], row[1:])) for row in result.rows}

    # The paper's cumulative structure:
    #   ALF/noconnect = ALF + 1 cm_notify ioctl
    assert 0.8 < rows["alf_noconnect"]["ioctl"] - rows["alf"]["ioctl"] < 1.2
    #   ALF adds a cm_request ioctl (and the control socket in the select set)
    assert rows["alf"]["ioctl"] > rows["buffered"]["ioctl"]
    assert rows["alf"]["select_call"] > 0
    #   Buffered adds one recv and two gettimeofday calls per packet
    assert 0.8 < rows["buffered"]["recv_call"] < 1.2
    assert 1.6 < rows["buffered"]["gettimeofday"] < 2.4
    #   TCP/CM is the baseline: no per-packet ioctls, no user-space ack recv
    assert rows["tcp_cm"]["ioctl"] == 0.0
    assert rows["tcp_cm"]["recv_call"] == 0.0
    print(result.to_text())
