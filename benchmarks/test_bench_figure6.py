"""Figure 6 benchmark: per-packet cost of every CM API variant."""

from repro.experiments.runner import run_experiment


def test_bench_figure6_api_costs(benchmark, once):
    result = once(
        benchmark,
        run_experiment,
        "figure6",
        packet_size=(168, 700, 1400),
        npackets=1000,
    )
    variants = result.columns[1:]
    by_size = {row[0]: dict(zip(variants, row[1:])) for row in result.rows}

    smallest = by_size[168]
    largest = by_size[1400]

    # Ordering of API costs (paper Figure 6 / Table 1).
    assert smallest["alf_noconnect"] > smallest["alf"] > smallest["buffered"] > smallest["tcp_cm"]
    assert smallest["tcp_linux"] <= smallest["tcp_cm"] * 1.05

    # Worst case: ALF/noconnect vs TCP/CM-nodelay at 168 bytes costs tens of
    # percent of throughput (paper: ~25%; accept 10-50% for the cost model).
    reduction = 1.0 - largest_base(smallest)
    assert 0.10 < reduction < 0.50

    # Per-packet cost grows with packet size for every API.
    for variant in variants:
        assert largest[variant] > smallest[variant]
    print(result.to_text())


def largest_base(row):
    """TCP/CM-nodelay cost as a fraction of the ALF/noconnect cost."""
    return row["tcp_cm_nodelay"] / row["alf_noconnect"]
