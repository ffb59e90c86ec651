"""Shared driver for the layered-streaming adaptation figures (8, 9, 10).

All three figures run the layered audio/video server of §3.4 against a
wide-area path whose available bandwidth changes during the run, and plot
two series over time: the application's transmission rate and the rate the
CM reports to it.  They differ only in the adaptation API (ALF
request/callback vs. rate callback) and in how promptly the receiver sends
feedback.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

from ..apps.layered import LayeredStreamingServer
from ..core import CongestionManager
from ..transport.udp.feedback import AckReflector
from .topology import build_testbed, wan_pair_spec

__all__ = ["LayeredRun", "run_layered", "run_layered_trial", "DEFAULT_BANDWIDTH_SCHEDULE"]

#: (time, bandwidth in bits/s) steps applied to the path during the run;
#: chosen so the best sustainable rate crosses several of the default layer
#: rates, forcing visible adaptation.
DEFAULT_BANDWIDTH_SCHEDULE: Tuple[Tuple[float, float], ...] = (
    (0.0, 20e6),
    (8.0, 4e6),
    (16.0, 12e6),
)


@dataclass
class LayeredRun:
    """Everything the figure harnesses need from one layered-streaming run."""

    mode: str
    duration: float
    transmission_series: List[Tuple[float, float]]
    reported_series: List[Tuple[float, float]]
    layer_history: List[Tuple[float, int]]
    packets_sent: int
    bytes_sent: int
    bytes_received: int
    loss_events: int


def run_layered(
    mode: str,
    duration: float = 25.0,
    bandwidth_schedule: Sequence[Tuple[float, float]] = DEFAULT_BANDWIDTH_SCHEDULE,
    ack_every_packets: int = 1,
    ack_delay: Optional[float] = None,
    thresh: float = 1.5,
    seed: int = 11,
    rate_bin: float = 0.5,
) -> LayeredRun:
    """Run the layered streaming server for ``duration`` simulated seconds."""
    testbed = build_testbed(wan_pair_spec(rate_bps=bandwidth_schedule[0][1]), seed=seed)
    CongestionManager(testbed.sender)

    reflector = AckReflector(
        testbed.receiver,
        port=9001,
        ack_every_packets=ack_every_packets,
        ack_delay=ack_delay,
    )
    server = LayeredStreamingServer(
        testbed.sender,
        testbed.receiver.addr,
        9001,
        mode=mode,
        thresh_down=thresh,
        thresh_up=thresh,
        rate_bin=rate_bin,
    )
    for when, rate_bps in bandwidth_schedule:
        if when == 0.0:
            continue
        testbed.sim.schedule(when, testbed.net.set_rate,
                               testbed.sender.name, testbed.receiver.name, rate_bps)

    server.start()
    testbed.sim.run(until=duration)
    server.stop()
    run = LayeredRun(
        mode=mode,
        duration=duration,
        transmission_series=server.transmission_series(),
        reported_series=server.reported_rate_series(),
        layer_history=list(server.layer_history),
        packets_sent=server.packets_sent,
        bytes_sent=server.bytes_sent,
        bytes_received=reflector.bytes_received,
        loss_events=server.tracker.loss_events,
    )
    reflector.close()
    return run


def run_layered_trial(params: dict) -> dict:
    """JSON-able trial wrapper around :func:`run_layered` (Figures 8-10).

    ``params`` carries every knob that affects the run, so the trial cache
    key fully determines the result; the LayeredRun dataclass is returned as
    a plain dict (series become ``[time, value]`` pairs).
    """
    outcome = run_layered(
        params["mode"],
        duration=params["duration"],
        bandwidth_schedule=[tuple(step) for step in params["bandwidth_schedule"]],
        ack_every_packets=params.get("ack_every_packets", 1),
        ack_delay=params.get("ack_delay"),
        thresh=params.get("thresh", 1.5),
        seed=params.get("seed", 11),
        rate_bin=params.get("rate_bin", 0.5),
    )
    return asdict(outcome)
