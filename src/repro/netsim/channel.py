"""Dummynet-style channels and small topology builders.

The paper shaped its testbed paths with Dummynet: a configurable bandwidth,
round-trip time and random loss rate between two otherwise fast hosts.
:class:`Channel` reproduces that as a pair of :class:`~repro.netsim.link.Link`
objects (one per direction) plus the routing entries on both hosts.

:func:`build_dumbbell` wires the classic shared-bottleneck topology used for
fairness and bandwidth-sharing checks: several sender hosts and receiver
hosts on fast access links around a single constrained router-to-router
link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .engine import Simulator
from .link import Link
from .node import Host, Router

__all__ = ["Channel", "Dumbbell", "build_dumbbell"]


class Channel:
    """A bidirectional, symmetric path between two hosts.

    Parameters mirror a Dummynet pipe: ``rate_bps`` and ``one_way_delay``
    apply in both directions, ``loss_rate`` is applied independently per
    direction (pass ``reverse_loss_rate`` to make the ACK path clean, as the
    paper's loss experiments effectively did), and ``queue_limit`` bounds
    the bottleneck buffer.
    """

    def __init__(
        self,
        sim: Simulator,
        host_a: Host,
        host_b: Host,
        rate_bps: float,
        one_way_delay: float,
        queue_limit: Optional[int] = 100,
        loss_rate: float = 0.0,
        reverse_loss_rate: Optional[float] = None,
        ecn_threshold: Optional[int] = None,
        seed: int = 0,
        loss_model=None,
        aqm=None,
        install_default_route: bool = False,
    ):
        self.sim = sim
        self.host_a = host_a
        self.host_b = host_b
        if reverse_loss_rate is None:
            reverse_loss_rate = loss_rate
        # ``loss_model``/``aqm`` are passed as config mappings; each Link
        # normalizes its own fresh instance, so the two directions never
        # share burst-fade or queue-average state.
        self.forward = Link(
            sim,
            rate_bps=rate_bps,
            delay=one_way_delay,
            queue_limit=queue_limit,
            loss_rate=loss_rate,
            ecn_threshold=ecn_threshold,
            seed=seed,
            loss_model=loss_model,
            aqm=aqm,
            name=f"{host_a.name}->{host_b.name}",
        )
        self.reverse = Link(
            sim,
            rate_bps=rate_bps,
            delay=one_way_delay,
            queue_limit=queue_limit,
            loss_rate=reverse_loss_rate,
            ecn_threshold=ecn_threshold,
            seed=seed + 1,
            loss_model=loss_model,
            aqm=aqm,
            name=f"{host_b.name}->{host_a.name}",
        )
        # Links hand packets straight to the IP input routine.
        self.forward.attach(host_b.ip.receive)
        self.reverse.attach(host_a.ip.receive)
        host_a.add_route(host_b.addr, self.forward)
        host_b.add_route(host_a.addr, self.reverse)
        if install_default_route:
            host_a.set_default_route(self.forward)
            host_b.set_default_route(self.reverse)

    @property
    def rtt(self) -> float:
        """Propagation round-trip time (excluding serialisation and queueing)."""
        return self.forward.delay + self.reverse.delay

    @property
    def rate_bps(self) -> float:
        """Forward-direction bottleneck rate."""
        return self.forward.rate_bps

    def set_loss_rate(self, loss_rate: float, reverse: bool = False) -> None:
        """Change the random loss rate mid-experiment (both paths if ``reverse``)."""
        self.forward.loss_rate = loss_rate
        if reverse:
            self.reverse.loss_rate = loss_rate

    def set_rate(self, rate_bps: float, reverse: bool = True) -> None:
        """Change the channel bandwidth mid-experiment (used by Figures 8/9).

        Symmetric by default, deliberately: a Channel models one Dummynet
        pipe, and reconfiguring a pipe rescales both directions.
        ``LinkSpec.rate_schedule`` inherits this — each step rescales the
        reverse (ACK) path along with the forward path, and the pinned
        goldens encode that behaviour.  Pass ``reverse=False`` to scope a
        change to the forward direction only.
        """
        self.forward.rate_bps = float(rate_bps)
        if reverse:
            self.reverse.rate_bps = float(rate_bps)


@dataclass
class Dumbbell:
    """The node and link handles returned by :func:`build_dumbbell`."""

    senders: List[Host]
    receivers: List[Host]
    left_router: Router
    right_router: Router
    bottleneck: Link
    bottleneck_reverse: Link


def build_dumbbell(
    sim: Simulator,
    n_pairs: int,
    bottleneck_bps: float,
    bottleneck_delay: float,
    access_bps: float = 1e9,
    access_delay: float = 0.1e-3,
    queue_limit: int = 64,
    loss_rate: float = 0.0,
    ecn_threshold: Optional[int] = None,
    host_costs_factory=None,
    seed: int = 0,
) -> Dumbbell:
    """Build ``n_pairs`` sender/receiver hosts sharing one bottleneck link.

    Sender *i* gets address ``10.0.1.(i+1)`` and its receiver
    ``10.0.2.(i+1)``; routes are installed so that any sender can reach any
    receiver (all traffic crosses the bottleneck), which is what macroflow
    experiments with multiple destinations need.
    """
    if n_pairs < 1:
        raise ValueError("need at least one sender/receiver pair")
    left = Router(sim, "left-router")
    right = Router(sim, "right-router")

    bottleneck = Link(
        sim,
        rate_bps=bottleneck_bps,
        delay=bottleneck_delay,
        queue_limit=queue_limit,
        loss_rate=loss_rate,
        ecn_threshold=ecn_threshold,
        seed=seed,
        name="bottleneck",
    )
    bottleneck_reverse = Link(
        sim,
        rate_bps=bottleneck_bps,
        delay=bottleneck_delay,
        queue_limit=queue_limit,
        loss_rate=0.0,
        ecn_threshold=ecn_threshold,
        seed=seed + 1,
        name="bottleneck-rev",
    )
    bottleneck.attach(right.ip.receive)
    bottleneck_reverse.attach(left.ip.receive)
    left.set_default_route(bottleneck)
    right.set_default_route(bottleneck_reverse)

    senders: List[Host] = []
    receivers: List[Host] = []
    for index in range(n_pairs):
        costs_s = host_costs_factory() if host_costs_factory else None
        costs_r = host_costs_factory() if host_costs_factory else None
        sender = Host(sim, f"sender{index}", f"10.0.1.{index + 1}", costs=costs_s)
        receiver = Host(sim, f"receiver{index}", f"10.0.2.{index + 1}", costs=costs_r)

        up = Link(sim, access_bps, access_delay, queue_limit=1000, seed=seed + 10 + index,
                  name=f"{sender.name}->left")
        down = Link(sim, access_bps, access_delay, queue_limit=1000, seed=seed + 20 + index,
                    name=f"left->{sender.name}")
        up.attach(left.ip.receive)
        down.attach(sender.ip.receive)
        sender.set_default_route(up)
        left.add_route(sender.addr, down)

        rup = Link(sim, access_bps, access_delay, queue_limit=1000, seed=seed + 30 + index,
                   name=f"right->{receiver.name}")
        rdown = Link(sim, access_bps, access_delay, queue_limit=1000, seed=seed + 40 + index,
                     name=f"{receiver.name}->right")
        rup.attach(receiver.ip.receive)
        rdown.attach(right.ip.receive)
        right.add_route(receiver.addr, rup)
        receiver.set_default_route(rdown)

        senders.append(sender)
        receivers.append(receiver)

    return Dumbbell(
        senders=senders,
        receivers=receivers,
        left_router=left,
        right_router=right,
        bottleneck=bottleneck,
        bottleneck_reverse=bottleneck_reverse,
    )
