"""Paper-style time-series traces through the unified telemetry layer.

The CM paper's evaluation leans on time-series evidence — congestion-window
and rate evolution, queue occupancy, per-flow convergence (Figures 3 and
8-10 all plot state over time).  This experiment reproduces that style of
figure for two bundled scenario presets through the parallel runner:

* ``dumbbell_bulk`` — two staggered TCP/CM transfers on a shared dumbbell:
  the late flow's macroflow cwnd converging against the first, bottleneck
  queue occupancy, per-flow goodput;
* ``libcm_select_streaming`` — the layered ALF media server on a stepped
  path: CM rate estimate and transmitted layer tracking the bandwidth
  changes.

Every sampled telemetry series of each run is exported, prefixed with the
preset name, so the artifact is a ready-to-plot bundle; the JSON is
byte-stable per (preset, seed) like every other experiment artifact.
"""

from __future__ import annotations

from typing import Sequence

from .base import ExperimentResult
from .sweep import Sweep, TrialOutcome

__all__ = ["SWEEP", "run_trial", "reduce", "PRESET_NAMES"]

#: The presets whose time series this experiment reproduces.
PRESET_NAMES = ("dumbbell_bulk", "libcm_select_streaming")

#: Event probes recorded alongside the sampled series.
_EVENTS = ("cm.congestion", "packet.drop")


def run_trial(params: dict) -> dict:
    """Run one preset with a telemetry block attached; return the payload."""
    from ..scenario import TelemetrySpec, get_preset
    from ..scenario.runner import run as run_scenario

    spec = get_preset(params["preset"])
    if params["duration"] is not None:
        spec.stop.until = float(params["duration"])
    spec.telemetry = TelemetrySpec(
        sample_interval=params["sample_interval"],
        samplers=("macroflows", "schedulers", "links", "apps"),
        events=tuple(params["events"]),
    )
    result = run_scenario(spec, seed=spec.seed)
    return result.payload()


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Merge the per-preset payloads into one figure-style result."""
    result = ExperimentResult(
        name="timeseries",
        title="Telemetry time series: cwnd / rate / queue / goodput over time",
        columns=["preset", "metric", "value"],
    )
    for outcome in outcomes:
        payload = outcome.value
        preset = payload["name"]
        telemetry = payload.get("telemetry", {})
        samples = telemetry.get("samples", {})
        for series_name in sorted(samples):
            result.add_series(
                f"{preset}.{series_name}",
                [tuple(point) for point in samples[series_name]],
            )
        events = telemetry.get("events", {})
        result.add_row(preset, "duration_s", payload["duration_s"])
        result.add_row(preset, "sampled_series", len(samples))
        for event in sorted(events):
            result.add_row(preset, f"events.{event}", events[event]["count"])
        result.add_row(preset, "event_log_dropped", telemetry.get("event_log_dropped", 0))
    result.notes.append(
        "Paper: Figures 3 and 8-10 plot exactly this kind of evidence — window/rate "
        "evolution and queue occupancy over time; the dumbbell series show the late "
        "TCP/CM flow converging onto the first one's share, the streaming series show "
        "the layered server tracking the CM rate estimate through bandwidth steps."
    )
    return result


SWEEP = Sweep(
    "timeseries",
    axes=[("preset", PRESET_NAMES)],
    # ``duration`` overrides each preset's stop horizon (None keeps it);
    # ``sample_interval`` is the telemetry sampling cadence.
    fixed={"duration": None, "sample_interval": 0.25, "events": _EVENTS},
    trial=run_trial,
    reduce=reduce,
    smoke={"duration": 6.0, "sample_interval": 0.5},
)
