"""Figure 5: sender-side CPU overhead of TCP/CM versus native TCP.

Same ``ttcp`` workload as Figure 4; the measurement is the sending host's
CPU utilisation during the transfer.  The paper's claim: the CPU difference
between TCP/Linux and TCP/CM converges to slightly under 1 % (percentage
points) for long connections.
"""

from __future__ import annotations

from typing import Sequence

from . import figure4
from .base import ExperimentResult
from .figure4 import _group_by_buffers
from .sweep import Sweep, TrialOutcome

__all__ = ["SWEEP", "reduce"]


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Build the Figure 5 CPU-utilisation table from bulk-transfer outcomes."""
    result = ExperimentResult(
        name="figure5",
        title="CPU utilisation during bulk TCP transfers (%)",
        columns=["buffers", "cm_cpu_%", "linux_cpu_%", "difference_points"],
    )
    for nbuffers, by_variant in _group_by_buffers(outcomes).items():
        cm_result = by_variant["cm"]
        linux_result = by_variant["linux"]
        result.add_row(
            nbuffers,
            cm_result.cpu_utilization * 100.0,
            linux_result.cpu_utilization * 100.0,
            (cm_result.cpu_utilization - linux_result.cpu_utilization) * 100.0,
        )
    result.notes.append(
        "Paper: the CPU difference converges to slightly under one percentage point "
        "for long transfers (the CM's per-packet kernel bookkeeping)."
    )
    return result


#: Figure 5 reads Figure 4's trials: one run of both reduces the same outcomes.
SWEEP = Sweep("figure5", axes=(), fixed={}, trial=figure4.SWEEP, reduce=reduce)
