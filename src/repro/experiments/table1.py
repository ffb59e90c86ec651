"""Table 1: cumulative sources of per-packet overhead for each CM API.

The paper's table lists what each API adds, per packet, on top of plain
TCP/CM:

    ALF/noconnect   1 cm_notify (ioctl)
    ALF             1 cm_request (ioctl), 1 extra socket (select)
    Buffered        1 recv, 2 gettimeofday
    TCP/CM          -- baseline --

Instead of restating the table, this harness *measures* it: it runs each API
for a fixed packet count and reports the per-packet counts of the relevant
operations straight from the host cost ledger, then derives the incremental
step from one API to the next.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .base import ExperimentResult
from .figure6 import run_variant
from .sweep import Sweep, TrialOutcome

__all__ = ["SWEEP", "run_trial", "reduce", "TRACKED_OPERATIONS"]

#: Ledger operations that appear in the paper's Table 1.
TRACKED_OPERATIONS = ("ioctl", "select_call", "recv_call", "gettimeofday", "send_call")

#: Order in which the paper stacks the APIs (baseline last).
API_ORDER = ("alf_noconnect", "alf", "buffered", "tcp_cm")


def run_trial(params: dict) -> Dict[str, float]:
    """Per-packet operation counts for one API; pure function of ``params``."""
    outcome = run_variant(params["api"], params["packet_size"], npackets=params["npackets"])
    return {op: outcome.ops_per_packet(op) for op in TRACKED_OPERATIONS}


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Build the Table 1 operation-count table and cumulative-difference notes."""
    per_api: Dict[str, Dict[str, float]] = {
        outcome.spec.params["api"]: dict(outcome.value) for outcome in outcomes
    }
    apis = [outcome.spec.params["api"] for outcome in outcomes]

    result = ExperimentResult(
        name="table1",
        title="Per-packet operation counts by API (sender host)",
        columns=["api"] + list(TRACKED_OPERATIONS),
    )
    for api in apis:
        result.add_row(api, *[per_api[api][op] for op in TRACKED_OPERATIONS])

    # The paper presents the *cumulative differences*; derive them here.
    baseline = per_api.get("tcp_cm", {op: 0.0 for op in TRACKED_OPERATIONS})
    for api in apis:
        if api == "tcp_cm":
            continue
        deltas = {op: per_api[api][op] - baseline.get(op, 0.0) for op in TRACKED_OPERATIONS}
        summary = ", ".join(f"+{v:.2f} {op}" for op, v in deltas.items() if v > 0.05)
        result.notes.append(f"{api} relative to TCP/CM: {summary or 'no additional operations'}")
    result.notes.append(
        "Paper's Table 1: ALF/noconnect adds a cm_notify ioctl over ALF; ALF adds a cm_request ioctl "
        "and an extra selected socket over Buffered; "
        "Buffered adds a recv and two gettimeofday calls over TCP/CM."
    )
    return result


SWEEP = Sweep(
    "table1",
    axes=[("api", API_ORDER)],
    fixed={"packet_size": 1000, "npackets": 1000},
    trial=run_trial,
    reduce=reduce,
    smoke={"packet_size": 700, "npackets": 250},
)
