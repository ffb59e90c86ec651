"""Wire a spec's ``telemetry:`` block into a compiled scenario.

:class:`ScenarioTelemetry` is the bridge between the declarative
:class:`~repro.scenario.spec.TelemetrySpec` and the mechanisms in
:mod:`repro.telemetry`: it builds the hub, subscribes the bounded event
recorder (ring or seeded reservoir) and the optional JSON-lines trace sink,
binds the probe slots of every instrumented component (links, Congestion
Managers, TCP senders, the layered media server), registers the periodic
samplers the block asks for, and renders everything into the deterministic
``telemetry`` section of the :class:`~repro.scenario.runner.ScenarioResult`.

Two invariants the CI telemetry-determinism job relies on:

* a run with probes attached produces **byte-identical** app/link/host
  metrics to a detached run — probes and samplers only read state;
* the ``telemetry`` result section and the ``--trace`` JSONL file are
  byte-identical across repeat runs of the same ``(spec, seed)``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..telemetry import (
    JsonlSink,
    PeriodicSampler,
    ReservoirRecorder,
    RingRecorder,
    TelemetryHub,
    app_goodput_source,
    cm_state_source,
    link_queue_source,
    scheduler_backlog_source,
)
from .spec import TelemetrySpec

__all__ = ["ScenarioTelemetry"]


class ScenarioTelemetry:
    """Telemetry wiring for one compiled scenario.

    Parameters
    ----------
    spec:
        The scenario's telemetry block, or ``None`` when only ``trace_path``
        asked for instrumentation (the CLI's ``--trace`` on a spec without a
        block).  In that case a default block drives the wiring but the
        scenario *result* carries no telemetry section, so the result JSON
        stays byte-identical to an un-instrumented run.
    seed:
        The run seed; it keys the reservoir recorder's RNG so sampled event
        logs are deterministic per ``(spec, seed)``.
    trace_path:
        Optional JSON-lines file streaming every event and sample.
    """

    def __init__(self, spec: Optional[TelemetrySpec], seed: int, sim,
                 trace_path: Optional[str] = None):
        self.spec = spec
        self.in_result = spec is not None
        effective = spec if spec is not None else TelemetrySpec()
        self._effective = effective
        self.hub = TelemetryHub()
        self.sink = JsonlSink(trace_path) if trace_path else None

        self._event_log = None
        if effective.events:
            if effective.event_recorder == "reservoir":
                self._event_log = ReservoirRecorder(effective.ring_capacity, seed=seed)
            else:
                self._event_log = RingRecorder(effective.ring_capacity)
            for event in effective.events:
                self.hub.subscribe(event, self._event_log.record_event)
        if self.sink is not None:
            # The trace file gets every event in the catalog, whether or not
            # the result keeps it.
            self.hub.subscribe_all(self.sink)

        self.sampler = PeriodicSampler(
            sim,
            interval=effective.sample_interval,
            max_samples=effective.max_samples,
            sink=self.sink,
        )

    # ------------------------------------------------------------------ wiring
    def attach(self, scenario) -> None:
        """Bind probes and register samplers across the compiled scenario.

        Must run after every sink subscription (the hub's dispatch table is
        read once per probe slot, at attach time) and after the builder
        created hosts, links and apps.
        """
        hub = self.hub
        groups = set(self._effective.samplers)
        links = [(label, link) for _index, label, link in scenario.directed_links()]
        for _label, link in links:
            link.attach_telemetry(hub)
        for name, host in scenario.hosts.items():
            if host.cm is not None:
                host.cm.attach_telemetry(hub)
                if "macroflows" in groups:
                    self.sampler.add_source(cm_state_source(name, host.cm))
                if "schedulers" in groups:
                    self.sampler.add_source(scheduler_backlog_source(name, host.cm))
        if "links" in groups:
            for label, link in links:
                self.sampler.add_source(link_queue_source(label, link))
        for app in scenario.apps:
            app.attach_telemetry(hub)
            if "apps" in groups:
                source = app_goodput_source(app.label, app)
                if source is not None:
                    self.sampler.add_source(source)

    # ----------------------------------------------------------------- control
    def start(self) -> None:
        self.sampler.start()

    def stop(self) -> None:
        self.sampler.stop()

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()

    # ------------------------------------------------------------------ output
    def payload(self) -> Dict[str, Any]:
        """The deterministic ``telemetry`` section of a scenario result."""
        spec = self._effective
        section: Dict[str, Any] = {
            "sample_interval": spec.sample_interval,
            "samplers": list(spec.samplers),
            "samples": {
                name: [[t, v] for t, v in points]
                for name, points in self.sampler.sampled_series().items()
            },
        }
        dropped = self.sampler.dropped_by_series()
        if dropped:
            section["dropped_samples"] = dropped
        if spec.events:
            log = self._event_log
            section["events"] = {
                event: {"count": self.hub.counts.get(event, 0)}
                for event in spec.events
            }
            section["event_log"] = [
                [t, event, dict(fields)] for t, event, fields in log.items()
            ]
            section["event_log_dropped"] = log.dropped
            section["event_recorder"] = spec.event_recorder
        return section
