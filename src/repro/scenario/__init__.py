"""Declarative Scenario API: compose any topology/app/transport mix.

This package is the construction layer everything else builds on:

* :mod:`~repro.scenario.spec` — the :class:`ScenarioSpec` dataclass tree
  (hosts, links, dumbbell, CM attachment, typed app instances, stop
  condition, metrics) with strict JSON round-tripping and eager validation;
* :mod:`~repro.scenario.applications` — the uniform :class:`Application`
  registry wrapping every workload in :mod:`repro.apps` plus raw TCP/UDP
  endpoints;
* :mod:`~repro.scenario.builder` — :func:`build(spec, seed)` compiling a
  spec into a live, deterministically-wired simulation;
* :mod:`~repro.scenario.runner` — :func:`run(spec, seed)` executing a spec
  end to end and returning a :class:`ScenarioResult` with per-app /
  per-link / per-host metrics;
* :mod:`~repro.scenario.presets` — bundled scenarios beyond the paper,
  runnable via ``python -m repro.scenario run <preset>``.

See ``docs/scenario_api.md`` for the schema, examples and how the paper's
experiments map onto this layer, plus the graph-topology and stochastic
workload blocks (``repro.workloads``) added on top of it.
"""

from .applications import (
    Application,
    describe_applications,
    get_application,
    known_applications,
    register_application,
    validate_params,
)
from .builder import Scenario, build
from .presets import PRESETS, get_preset, preset_names
from .runner import ScenarioResult, run, run_built, run_streaming, validate_result_payload
from .spec import (
    AppSpec,
    DumbbellSpec,
    GraphLinkSpec,
    GraphNodeSpec,
    GraphSpec,
    HostSpec,
    LinkSpec,
    Param,
    RerouteSpec,
    ScenarioSpec,
    SpecError,
    StopSpec,
    TelemetrySpec,
    WorkloadSpec,
)
from .telemetry import ScenarioTelemetry

__all__ = [
    "ScenarioSpec",
    "HostSpec",
    "LinkSpec",
    "DumbbellSpec",
    "GraphNodeSpec",
    "GraphLinkSpec",
    "RerouteSpec",
    "GraphSpec",
    "AppSpec",
    "WorkloadSpec",
    "StopSpec",
    "TelemetrySpec",
    "ScenarioTelemetry",
    "SpecError",
    "Application",
    "Param",
    "register_application",
    "get_application",
    "known_applications",
    "describe_applications",
    "validate_params",
    "Scenario",
    "build",
    "ScenarioResult",
    "run",
    "run_built",
    "run_streaming",
    "validate_result_payload",
    "PRESETS",
    "get_preset",
    "preset_names",
]
