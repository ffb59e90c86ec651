""":class:`~repro.scenario.spec.ScenarioSpec` factories for the paper's testbeds.

The three point-to-point environments the paper measured on, as
declarative specs the experiments compile with :func:`repro.scenario.build`:

* :func:`lan_pair_spec` — the Utah testbed: two fast hosts on a switched
  100 Mbps Ethernet (throughput / CPU / API-overhead studies, Figures 4-6).
* :func:`dummynet_pair_spec` — the same hosts behind a Dummynet pipe with
  configurable bandwidth, RTT and random loss (Figure 3).
* :func:`wan_pair_spec` — a vBNS-like wide-area path between MIT and Utah
  (~75 ms RTT, ~2 MB/s available) used by the sharing and adaptation
  studies (Figures 7-10).

Every call returns a fresh spec: each experiment trial completes one with
the applications it runs and the condition it stops on.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..scenario import AppSpec, HostSpec, LinkSpec, ScenarioSpec, StopSpec

__all__ = [
    "pair_spec",
    "lan_pair_spec",
    "dummynet_pair_spec",
    "wan_pair_spec",
]


def pair_spec(
    name: str,
    rate_bps: float,
    one_way_delay: float,
    loss_rate: float = 0.0,
    queue_limit: int = 100,
    ecn_threshold: Optional[int] = None,
    with_costs: bool = True,
    *,
    rate_schedule: Sequence[Tuple[float, float]] = (),
    apps: Sequence[AppSpec] = (),
    stop: Optional[StopSpec] = None,
    **sender_cm,
) -> ScenarioSpec:
    """A ``sender`` / ``receiver`` pair joined by one Dummynet-style link.

    Loss applies to the forward (data) direction only — the paper's loss
    experiments kept the ACK path clean — and the seed stays out of the
    spec: the caller passes the run seed to :func:`repro.scenario.build`.
    ``rate_schedule`` reshapes the path mid-run, ``apps`` and ``stop`` are
    the spec's own blocks, and ``sender_cm`` sets the sending host's CM
    fields (``cm=True``, ``cm_controller=...``, ``cm_scheduler=...``).
    """
    return ScenarioSpec(
        name=name,
        hosts=[
            HostSpec(name="sender", addr="10.1.0.1", costs=with_costs, **sender_cm),
            HostSpec(name="receiver", addr="10.2.0.1", costs=with_costs),
        ],
        links=[
            LinkSpec(
                a="sender",
                b="receiver",
                rate_bps=rate_bps,
                delay=one_way_delay,
                queue_limit=queue_limit,
                loss_rate=loss_rate,
                reverse_loss_rate=0.0,
                ecn_threshold=ecn_threshold,
                rate_schedule=tuple(rate_schedule),
            )
        ],
        apps=list(apps),
        stop=stop or StopSpec(),
    )


def lan_pair_spec(with_costs: bool = True, **options) -> ScenarioSpec:
    """100 Mbps switched Ethernet, ~1 ms RTT, no loss (Figures 4-6)."""
    return pair_spec(
        "lan_pair",
        rate_bps=100e6,
        one_way_delay=0.5e-3,
        loss_rate=0.0,
        queue_limit=128,
        with_costs=with_costs,
        **options,
    )


def dummynet_pair_spec(
    loss_rate: float,
    rate_bps: float = 10e6,
    rtt: float = 0.060,
    queue_limit: int = 50,
    with_costs: bool = True,
    **options,
) -> ScenarioSpec:
    """Dummynet-shaped path: 10 Mbps, 60 ms RTT, configurable loss (Figure 3)."""
    return pair_spec(
        "dummynet_pair",
        rate_bps=rate_bps,
        one_way_delay=rtt / 2.0,
        loss_rate=loss_rate,
        queue_limit=queue_limit,
        with_costs=with_costs,
        **options,
    )


def wan_pair_spec(
    rate_bps: float = 16e6,
    rtt: float = 0.075,
    loss_rate: float = 0.0,
    queue_limit: int = 60,
    with_costs: bool = True,
    **options,
) -> ScenarioSpec:
    """vBNS-like MIT<->Utah wide-area path (Figures 7-10)."""
    return pair_spec(
        "wan_pair",
        rate_bps=rate_bps,
        one_way_delay=rtt / 2.0,
        loss_rate=loss_rate,
        queue_limit=queue_limit,
        with_costs=with_costs,
        **options,
    )
