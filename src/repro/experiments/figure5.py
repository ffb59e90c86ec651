"""Figure 5: sender-side CPU overhead of TCP/CM versus native TCP.

Same ``ttcp`` workload as Figure 4; the measurement is the sending host's
CPU utilisation during the transfer.  The paper's claim: the CPU difference
between TCP/Linux and TCP/CM converges to slightly under 1 % (percentage
points) for long connections.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .base import ExperimentResult
from .figure4 import DEFAULT_BUFFER_COUNTS, _group_by_buffers
from .figure4 import trials as figure4_trials
from .parallel import TrialOutcome, TrialSpec, run_trials

__all__ = ["run", "trials", "reduce"]


def trials(
    buffer_counts: Sequence[int] = DEFAULT_BUFFER_COUNTS,
    seed: int = 7,
) -> List[TrialSpec]:
    """Figure 5 shares Figure 4's trials (and therefore its cache entries)."""
    return figure4_trials(buffer_counts, seed=seed)


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


def run(
    buffer_counts: Sequence[int] = DEFAULT_BUFFER_COUNTS,
    progress: Optional[callable] = None,
) -> ExperimentResult:
    """Produce the Figure 5 CPU-utilisation table."""
    return reduce(run_trials(trials(buffer_counts), jobs=1, progress=progress))


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(run().to_text())
