"""Figure 6: per-packet cost of each CM API on a 100 Mbps path.

The paper sends packets of several sizes under six different send paths
(ALF/noconnect, ALF, Buffered CM-UDP, TCP/CM without delayed ACKs, TCP/CM,
TCP/Linux) and reports the wall-clock microseconds needed to send one packet
and process its acknowledgement.  The reproducible claims:

* the APIs order from cheapest to most expensive exactly as Table 1's
  cumulative-overhead breakdown predicts;
* the curves grow with packet size (copies and wire time);
* the worst case — ALF/noconnect versus TCP/CM-without-delayed-ACKs at the
  smallest packet size (168 bytes) — costs roughly 25 % of throughput.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from typing import Dict, List, Sequence

from ..apps.alfapp import ApiOverheadResult, TCP_VARIANTS, UDP_VARIANTS
from ..scenario import AppSpec, StopSpec, run as run_scenario
from .base import ExperimentResult
from .sweep import Sweep, TrialOutcome
from .topology import lan_pair_spec

__all__ = ["SWEEP", "run_trial", "reduce", "run_variant", "DEFAULT_PACKET_SIZES", "ALL_VARIANTS"]

DEFAULT_PACKET_SIZES = (168, 400, 700, 1000, 1400)
ALL_VARIANTS = UDP_VARIANTS + TCP_VARIANTS
_RESULT_FIELDS = [field.name for field in fields(ApiOverheadResult)]


def run_variant(variant: str, packet_size: int, npackets: int = 2000, seed: int = 0) -> ApiOverheadResult:
    """Run one (variant, packet size) cell of the Figure 6 matrix on the LAN pair."""
    params = {"variant": variant, "packet_size": packet_size, "npackets": npackets}
    if variant in UDP_VARIANTS:
        apps = [
            AppSpec(app="ack_reflector", host="receiver", params={"port": 7001}),
            AppSpec(app="udp_api", host="sender", peer="receiver", label="api",
                    params={"port": 7001, **params}),
        ]
    else:
        apps = [AppSpec(app="tcp_api", host="sender", peer="receiver", label="api", params=params)]
    spec = lan_pair_spec(cm=True, apps=apps, stop=StopSpec(until=300.0, when_apps_done=True))
    metrics = run_scenario(spec, seed=seed).app("api")["metrics"]
    return ApiOverheadResult(**{name: metrics[name] for name in _RESULT_FIELDS})


def run_trial(params: dict) -> dict:
    """One (variant, packet size) cell; returns the ApiOverheadResult as a dict."""
    outcome = run_variant(
        params["variant"],
        params["packet_size"],
        npackets=params["npackets"],
        seed=params["seed"],
    )
    return asdict(outcome)


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Assemble the per-packet cost matrix from the trial cells."""
    cells: Dict[int, Dict[str, ApiOverheadResult]] = {}
    variants: List[str] = []
    for outcome in outcomes:
        params = outcome.spec.params
        cells.setdefault(params["packet_size"], {})[params["variant"]] = ApiOverheadResult(
            **outcome.value
        )
        if params["variant"] not in variants:
            variants.append(params["variant"])
    packet_sizes = list(cells)
    result = ExperimentResult(
        name="figure6",
        title="API cost per packet on a 100 Mbps link (microseconds)",
        columns=["packet_size"] + list(variants),
    )
    for size in packet_sizes:
        result.add_row(size, *[cells[size][v].us_per_packet for v in variants])
    if "alf_noconnect" in variants and "tcp_cm_nodelay" in variants:
        smallest = min(packet_sizes)
        worst = cells[smallest]["alf_noconnect"].us_per_packet
        base = cells[smallest]["tcp_cm_nodelay"].us_per_packet
        if worst > 0:
            reduction = 100.0 * (1.0 - base / worst)
            result.notes.append(
                f"Worst-case throughput reduction (ALF/noconnect vs TCP/CM nodelay at {smallest} B): "
                f"{reduction:.1f}% (paper: ~25%)."
            )
    result.notes.append(
        "Costs are sending-host CPU per packet plus wire time; the ordering "
        "ALF/noconnect > ALF > Buffered > TCP/CM nodelay > TCP/CM ~ TCP/Linux is the reproduced claim."
    )
    return result


SWEEP = Sweep(
    "figure6",
    axes=[("packet_size", DEFAULT_PACKET_SIZES), ("variant", ALL_VARIANTS)],
    fixed={"npackets": 2000, "seed": 0},
    trial=run_trial,
    reduce=reduce,
    smoke={"packet_size": (168, 1400), "npackets": 300},
)
