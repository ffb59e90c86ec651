"""Thin :class:`~repro.scenario.spec.ScenarioSpec` factories for the paper's testbeds.

The three point-to-point environments the paper measured on are now
declarative specs compiled through the scenario layer
(:mod:`repro.scenario`) instead of hand-wired constructions:

* :func:`lan_pair_spec` — the Utah testbed: two fast hosts on a switched
  100 Mbps Ethernet (throughput / CPU / API-overhead studies, Figures 4-6).
* :func:`dummynet_pair_spec` — the same hosts behind a Dummynet pipe with
  configurable bandwidth, RTT and random loss (Figure 3).
* :func:`wan_pair_spec` — a vBNS-like wide-area path between MIT and Utah
  (~75 ms RTT, ~2 MB/s available) used by the sharing and adaptation
  studies (Figures 7-10).

:func:`build_testbed` compiles any pair spec into the familiar
:class:`Testbed` handle, so every experiment's wiring goes through
:func:`repro.scenario.builder.build`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..netsim import GraphNet, Host, Simulator
from ..scenario import HostSpec, LinkSpec, ScenarioSpec, build

__all__ = [
    "Testbed",
    "build_testbed",
    "pair_spec",
    "lan_pair_spec",
    "dummynet_pair_spec",
    "wan_pair_spec",
]


@dataclass
class Testbed:
    """A simulator plus one sender/receiver pair joined by one link."""

    sim: Simulator
    sender: Host
    receiver: Host
    #: The wired pair: ``net.set_rate("sender", "receiver", bps)`` reshapes
    #: the path, ``net.link("sender", "receiver")`` is the forward link.
    net: GraphNet


#: Memoized sealed pair specs, keyed by the full parameter tuple.  Every
#: experiment builds thousands of identical testbeds per sweep; handing out
#: one shared, validated, frozen spec per parameter set turns the per-trial
#: spec-compile cost into a dict probe (see the ``scenario_build`` perf row).
_PAIR_SPEC_CACHE: dict = {}


def pair_spec(
    name: str,
    rate_bps: float,
    one_way_delay: float,
    loss_rate: float = 0.0,
    queue_limit: int = 100,
    ecn_threshold: Optional[int] = None,
    with_costs: bool = True,
) -> ScenarioSpec:
    """A sender/receiver pair joined by one Dummynet-style link.

    Loss applies to the forward (data) direction only — the paper's loss
    experiments kept the ACK path clean — and the seed stays out of the
    spec: :func:`build_testbed` passes the run seed to the compiler.

    The returned spec is **shared and sealed** (validated once, then
    frozen): mutating it raises ``SpecError``.  Callers that need a variant
    should construct their own :class:`ScenarioSpec`.
    """
    key = (name, rate_bps, one_way_delay, loss_rate, queue_limit, ecn_threshold, with_costs)
    spec = _PAIR_SPEC_CACHE.get(key)
    if spec is None:
        spec = ScenarioSpec(
            name=name,
            hosts=[
                HostSpec(name="sender", addr="10.1.0.1", costs=with_costs),
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
                )
            ],
        ).seal()
        _PAIR_SPEC_CACHE[key] = spec
    return spec


def build_testbed(spec: ScenarioSpec, seed: int = 0) -> Testbed:
    """Compile a pair spec into the classic :class:`Testbed` handle."""
    scenario = build(spec, seed=seed)
    link = spec.links[0]
    return Testbed(
        sim=scenario.sim,
        sender=scenario.host(link.a),
        receiver=scenario.host(link.b),
        net=scenario.graph_net,
    )


def lan_pair_spec(with_costs: bool = True) -> ScenarioSpec:
    """100 Mbps switched Ethernet, ~1 ms RTT, no loss (Figures 4-6)."""
    return pair_spec(
        "lan_pair",
        rate_bps=100e6,
        one_way_delay=0.5e-3,
        loss_rate=0.0,
        queue_limit=128,
        with_costs=with_costs,
    )


def dummynet_pair_spec(
    loss_rate: float,
    rate_bps: float = 10e6,
    rtt: float = 0.060,
    queue_limit: int = 50,
    with_costs: bool = True,
) -> ScenarioSpec:
    """Dummynet-shaped path: 10 Mbps, 60 ms RTT, configurable loss (Figure 3)."""
    return pair_spec(
        "dummynet_pair",
        rate_bps=rate_bps,
        one_way_delay=rtt / 2.0,
        loss_rate=loss_rate,
        queue_limit=queue_limit,
        with_costs=with_costs,
    )


def wan_pair_spec(
    rate_bps: float = 16e6,
    rtt: float = 0.075,
    loss_rate: float = 0.0,
    queue_limit: int = 60,
    with_costs: bool = True,
) -> ScenarioSpec:
    """vBNS-like MIT<->Utah wide-area path (Figures 7-10)."""
    return pair_spec(
        "wan_pair",
        rate_bps=rate_bps,
        one_way_delay=rtt / 2.0,
        loss_rate=loss_rate,
        queue_limit=queue_limit,
        with_costs=with_costs,
    )
