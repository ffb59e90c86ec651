"""Steal corrections: the arithmetic, not the host."""

import pytest

from bench.steal import CPU_SHARE_OF_STEAL, cpu_net_of_steal, net_of_steal, steal_s


def test_steal_is_subtracted_from_a_serial_interval():
    assert net_of_steal(1.2, 1.0, 0.2) == pytest.approx(1.0)
    assert net_of_steal(1.0, 0.2, 0.0) == pytest.approx(1.0)  # waiting is left as measured


def test_steal_on_parallel_intervals_is_shared_between_the_busy_cpus():
    # Two processes busy for the whole second: 0.4 s of summed steal delayed
    # the critical path by about 0.2 s.
    assert net_of_steal(1.0, 2.0, 0.4) == pytest.approx(0.8)


def test_cpu_time_loses_its_share_of_the_steal():
    assert cpu_net_of_steal(1.0, 0.0) == 1.0
    assert cpu_net_of_steal(1.0, 0.2) == pytest.approx(1.0 - CPU_SHARE_OF_STEAL * 0.2)


def test_more_steal_than_time_reads_zero_not_negative():
    assert net_of_steal(0.1, 0.1, 0.5) == 0.0
    assert cpu_net_of_steal(0.1, 5.0) == 0.0


def test_the_steal_counter_reads():
    assert steal_s() >= 0.0
