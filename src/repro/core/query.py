"""The network-state snapshot returned by ``cm_query`` and rate callbacks."""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["QueryResult"]


class QueryResult(NamedTuple):
    """What the CM currently believes about a flow's network path.

    Immutable; built once per ``cm_query`` and per dispatched rate callback,
    so it is a named tuple rather than a frozen dataclass (whose constructor
    pays one ``object.__setattr__`` per field).

    This is the information the paper's ``cm_query()`` exposes so that a
    server can "make an informed decision about the data encoding to
    transmit (e.g., a large color or smaller grey-scale image)", and the
    payload of the ``cmapp_update`` rate callback.

    Attributes
    ----------
    rate:
        Estimated sustainable sending rate, in **bytes per second**.
    srtt, rttvar:
        Smoothed round-trip time and its deviation, in seconds (shared
        across the whole macroflow).
    loss_rate:
        Exponentially weighted estimate of the fraction of bytes lost.
    cwnd_bytes:
        The macroflow's current congestion window.
    mtu:
        Maximum transmission unit towards this destination.
    """

    rate: float
    srtt: float
    rttvar: float
    loss_rate: float
    cwnd_bytes: float
    mtu: int

    @property
    def bandwidth_bps(self) -> float:
        """The rate expressed in bits per second."""
        return self.rate * 8.0

    @property
    def rto(self) -> float:
        """A retransmission-timeout-style conservative delay bound."""
        return self.srtt + 4.0 * self.rttvar
