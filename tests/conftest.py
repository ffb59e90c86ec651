"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import CongestionManager, HostCosts
from repro.netsim import Simulator, build_graph


@pytest.fixture
def sim():
    """A fresh simulator."""
    return Simulator()


class PairTestbed:
    """Two hosts joined by one configurable link, with helpers for tests."""

    def __init__(self, sim, rate_bps=10e6, one_way_delay=0.01, loss_rate=0.0,
                 queue_limit=100, ecn_threshold=None, seed=0, with_cm=False):
        self.sim = sim
        self.net = build_graph(
            sim,
            nodes=[{"name": "sender", "addr": "10.0.0.1"},
                   {"name": "receiver", "addr": "10.0.0.2"}],
            links=[{"a": "sender", "b": "receiver", "rate_bps": rate_bps,
                    "delay": one_way_delay, "loss_rate": loss_rate,
                    "reverse_loss_rate": 0.0, "queue_limit": queue_limit,
                    "ecn_threshold": ecn_threshold}],
            seed=seed, host_costs_factory=HostCosts,
        )
        self.sender, self.receiver = self.net.hosts["sender"], self.net.hosts["receiver"]
        self.forward = self.net.link("sender", "receiver")
        self.reverse = self.net.link("receiver", "sender")
        self.cm = CongestionManager(self.sender) if with_cm else None


@pytest.fixture
def make_pair(sim):
    """Factory fixture building a sender/receiver pair on the shared simulator."""

    def _make(**kwargs):
        return PairTestbed(sim, **kwargs)

    return _make


@pytest.fixture
def cm_pair(make_pair):
    """A host pair with a Congestion Manager installed on the sender."""
    return make_pair(with_cm=True)
