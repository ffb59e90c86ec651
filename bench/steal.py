"""Host noise: hypervisor steal, read from ``/proc/stat`` and taken out of the times.

The reference box is a 2-vCPU guest on an overcommitted host.  A quarter of
its lifetime CPU has been stolen by the hypervisor, in bursts that outlast a
run; a workload that sleeps and wakes often (``service_jobs``) loses more than
half of its wall time to it.  Measured over back-to-back 12 s windows of the
same code, the median raw wall time spread by an interquartile 15-40 % and
the raw CPU time by 8-18 %, depending on the workload, and windows of 10 and
of 30 repeats spread alike: no estimator inside one window removes that.
Taking the steal out does (the same windows: walls 3-8 %, CPU times 3-7 %).

``/proc/stat`` counts, in 10 ms ticks and for the whole guest, the time the
hypervisor ran something else while a vCPU wanted to run:

* a **wall** interval loses the steal counted during it, divided by the
  interval's parallelism (steal on two busy vCPUs delays the critical path by
  about half their sum);
* the guest's **CPU** clock keeps counting through part of the stolen time:
  per second stolen, a process's CPU time reads 0.4-0.5 s more (Theil-Sen
  slopes over 1 000 repeats of four workloads), so a CPU interval loses
  ``CPU_SHARE_OF_STEAL`` of the steal counted during it.

Nothing here depends on the program under test, so a real regression still
reads as one; on a host that steals nothing the times are as measured.
Linux only (``/proc``).
"""

from __future__ import annotations

import os

__all__ = ["CPU_SHARE_OF_STEAL", "steal_s", "net_of_steal", "cpu_net_of_steal"]

#: Seconds a process's CPU clock advances per second stolen from the guest.
CPU_SHARE_OF_STEAL = 0.5

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Seconds the hypervisor has stolen from this guest's vCPUs since boot."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        return int(handle.readline().split()[8]) / _CLOCK_TICKS


def net_of_steal(wall_s: float, cpu_s: float, stolen_s: float) -> float:
    """One wall interval minus the steal that delayed its critical path."""
    parallelism = max(1.0, cpu_s / wall_s)
    return max(wall_s - stolen_s / parallelism, 0.0)


def cpu_net_of_steal(cpu_s: float, stolen_s: float) -> float:
    """One CPU interval minus the stolen time its clock counted."""
    return max(cpu_s - CPU_SHARE_OF_STEAL * stolen_s, 0.0)
