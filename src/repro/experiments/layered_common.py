"""Shared driver for the layered-streaming adaptation figures (8, 9, 10).

All three figures run the layered audio/video server of §3.4 against a
wide-area path whose available bandwidth changes during the run, and plot
two series over time: the application's transmission rate and the rate the
CM reports to it.  They differ only in the adaptation API (ALF
request/callback vs. rate callback) and in how promptly the receiver sends
feedback.
"""

from __future__ import annotations

from typing import Tuple

from ..scenario import AppSpec, StopSpec, build, run_built
from .topology import wan_pair_spec

__all__ = ["run_layered_trial", "layered_params", "DEFAULT_BANDWIDTH_SCHEDULE"]

#: (time, bandwidth in bits/s) steps applied to the path during the run;
#: chosen so the best sustainable rate crosses several of the default layer
#: rates, forcing visible adaptation.
DEFAULT_BANDWIDTH_SCHEDULE: Tuple[Tuple[float, float], ...] = (
    (0.0, 20e6),
    (8.0, 4e6),
    (16.0, 12e6),
)


def layered_params(mode: str, duration: float, **changes) -> dict:
    """Every knob of :func:`run_layered_trial`: Figure 8's and 9's defaults plus ``changes``."""
    return {"mode": mode, "duration": duration, "bandwidth_schedule": DEFAULT_BANDWIDTH_SCHEDULE,
            "ack_every_packets": 1, "ack_delay": None, "thresh": 1.5, "seed": 11, "rate_bin": 0.5,
            **changes}


def run_layered_trial(params: dict) -> dict:
    """One layered-streaming run over the WAN pair (Figures 8-10).

    ``params`` carries every knob that affects the run, so the params fully
    determine the result: the adaptation ``mode``, the run
    ``duration``, the ``bandwidth_schedule`` (the link's ``rate_schedule``),
    the receiver's feedback batching (``ack_every_packets``, ``ack_delay``),
    ``thresh``, ``seed`` and ``rate_bin``.  The series come from the
    finished server itself: the ``layered_streaming`` metrics carry only
    their summaries.
    """
    schedule = [tuple(step) for step in params["bandwidth_schedule"]]
    spec = wan_pair_spec(
        rate_bps=schedule[0][1],
        cm=True,
        rate_schedule=schedule,
        apps=[
            AppSpec(app="ack_reflector", host="receiver", label="reflector", params={
                "port": 9001,
                "ack_every_packets": params["ack_every_packets"],
                "ack_delay": params["ack_delay"],
            }),
            AppSpec(app="layered_streaming", host="sender", peer="receiver", params={
                "port": 9001, "mode": params["mode"],
                "thresh": params["thresh"], "rate_bin": params["rate_bin"],
            }),
        ],
        stop=StopSpec(until=params["duration"]),
    )
    scenario = build(spec, seed=params["seed"])
    result = run_built(scenario)
    server = scenario.apps[1].server
    return {
        "mode": params["mode"],
        "duration": params["duration"],
        "transmission_series": server.transmission_series(),
        "reported_series": server.reported_rate_series(),
        "layer_history": list(server.layer_history),
        "packets_sent": server.packets_sent,
        "bytes_sent": server.bytes_sent,
        "bytes_received": result.app("reflector")["metrics"]["bytes_received"],
        "loss_events": server.tracker.loss_events,
    }
