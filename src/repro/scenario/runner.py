"""Execute a compiled scenario and collect its metrics.

:func:`run` is the declarative counterpart of every hand-written
``build testbed / start apps / sim.run / harvest counters`` loop in the
experiment modules: it compiles the spec with
:func:`~repro.scenario.builder.build`, schedules any link bandwidth steps,
starts the applications in spec order, drives the simulator to the stop
condition, stops the applications and returns a :class:`ScenarioResult`
whose JSON rendering is byte-identical for identical ``(spec, seed)``
inputs — the same determinism contract the experiment artifacts follow.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .builder import Scenario, build
from .spec import ScenarioSpec, SpecError

__all__ = [
    "ScenarioResult",
    "run",
    "run_built",
    "run_streaming",
    "started",
    "drive",
    "apps_done",
    "finish",
    "assemble_result",
    "validate_result_payload",
    "DEFAULT_CONTROL_INTERVAL",
]

#: How often (simulated seconds) a hooked run fires its control tick.  The
#: value only bounds control/progress latency — the tick itself must never
#: perturb the simulation, so results are independent of it.
DEFAULT_CONTROL_INTERVAL = 0.05

#: Keys every serialized ScenarioResult must carry (the CI golden schema).
RESULT_SCHEMA_KEYS = ("name", "seed", "spec_digest", "duration_s", "apps", "links", "hosts")


@dataclass
class ScenarioResult:
    """Per-app / per-link / per-host measurements of one scenario run."""

    name: str
    seed: int
    spec_digest: str
    duration_s: float
    apps: List[Dict[str, Any]] = field(default_factory=list)
    links: List[Dict[str, Any]] = field(default_factory=list)
    hosts: List[Dict[str, Any]] = field(default_factory=list)
    #: Aggregate measurements of each stochastic workload generator,
    #: populated only when the spec carries a ``workloads:`` block.
    workloads: List[Dict[str, Any]] = field(default_factory=list)
    #: Deterministic per-probe time series and event counts, populated only
    #: when the spec carries a ``telemetry:`` block (see docs/telemetry.md).
    telemetry: Dict[str, Any] = field(default_factory=dict)

    def payload(self) -> Dict[str, Any]:
        """The deterministic JSON-able content of the result.

        The ``workloads`` and ``telemetry`` keys appear only when the
        corresponding block produced data, so results of scenarios without
        them render byte-identically to results from before the blocks
        existed.
        """
        payload = {
            "name": self.name,
            "seed": self.seed,
            "spec_digest": self.spec_digest,
            "duration_s": self.duration_s,
            "apps": [dict(entry) for entry in self.apps],
            "links": [dict(entry) for entry in self.links],
            "hosts": [dict(entry) for entry in self.hosts],
        }
        if self.workloads:
            payload["workloads"] = [dict(entry) for entry in self.workloads]
        if self.telemetry:
            payload["telemetry"] = dict(self.telemetry)
        return payload

    def sample_series(self, name: str) -> List[List[float]]:
        """Look up one sampled telemetry series (``[[time, value], ...]``)."""
        samples = self.telemetry.get("samples", {})
        if name not in samples:
            raise KeyError(
                f"no sampled series {name!r}; have {sorted(samples)}"
            )
        return samples[name]

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent, one trailing newline.

        ``allow_nan=False`` makes a metric that leaks ``NaN``/``inf`` fail
        loudly here instead of silently producing a file strict JSON
        parsers reject.
        """
        return json.dumps(self.payload(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    def app(self, label: str) -> Dict[str, Any]:
        """Look up one application's entry by its label."""
        for entry in self.apps:
            if entry["label"] == label:
                return entry
        raise KeyError(f"no app labelled {label!r}; have {[e['label'] for e in self.apps]}")

    def workload(self, label: str) -> Dict[str, Any]:
        """Look up one workload generator's entry by its label."""
        for entry in self.workloads:
            if entry["label"] == label:
                return entry
        raise KeyError(
            f"no workload labelled {label!r}; have {[e['label'] for e in self.workloads]}")


def spec_digest(spec: ScenarioSpec) -> str:
    """sha256 over the spec's canonical JSON (ties results to their spec).

    The ``engine`` block is stripped first: it selects an execution strategy
    (process sharding), not simulation semantics, and the sharded runner's
    byte-determinism contract requires ``shards=N`` results to compare
    ``cmp``-equal — digest included — with the single-process run.
    """
    payload = spec.to_dict()
    payload.pop("engine", None)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def validate_result_payload(payload: Any) -> List[str]:
    """Check a deserialized result against the golden schema.

    Returns a list of human-readable problems (empty = valid).  Used by the
    CI scenario smoke job and the ``python -m repro.scenario validate``
    command.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"result must be a JSON object, got {type(payload).__name__}"]
    for key in RESULT_SCHEMA_KEYS:
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    if not isinstance(payload.get("name"), str) or not payload.get("name"):
        problems.append("'name' must be a non-empty string")
    if not isinstance(payload.get("seed"), int):
        problems.append("'seed' must be an integer")
    digest = payload.get("spec_digest")
    if not (isinstance(digest, str) and len(digest) == 64):
        problems.append("'spec_digest' must be a 64-char sha256 hex string")
    if not isinstance(payload.get("duration_s"), (int, float)):
        problems.append("'duration_s' must be a number")
    for group, required in (("apps", ("app", "host", "label", "metrics")),
                            ("links", ("link",)),
                            ("hosts", ("host",))):
        entries = payload.get(group)
        if not isinstance(entries, list):
            problems.append(f"'{group}' must be a list")
            continue
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                problems.append(f"{group}[{index}] must be an object")
                continue
            for key in required:
                if key not in entry:
                    problems.append(f"{group}[{index}] missing key {key!r}")
    # The workloads section is optional (only scenarios with a workloads:
    # block emit it), but when present its entries must be well-formed.
    if "workloads" in payload:
        entries = payload["workloads"]
        if not isinstance(entries, list):
            problems.append("'workloads' must be a list")
        else:
            for index, entry in enumerate(entries):
                if not isinstance(entry, dict):
                    problems.append(f"workloads[{index}] must be an object")
                    continue
                for key in ("kind", "host", "label", "metrics"):
                    if key not in entry:
                        problems.append(f"workloads[{index}] missing key {key!r}")
    return problems


def _link_metrics(name: str, link) -> Dict[str, Any]:
    stats = link.stats
    return {
        "link": name,
        "delivered_packets": stats.delivered_packets,
        "dropped_overflow": stats.dropped_overflow,
        "dropped_random": stats.dropped_random,
        "ecn_marked": stats.ecn_marked,
        "mean_queue_delay_s": stats.mean_queue_delay(),
        "busy_time_s": stats.busy_time,
    }


#: One result section: ``(declaration index, entry)`` pairs.
Sections = Dict[str, List[Tuple[int, Dict[str, Any]]]]


def _collect(scenario: Scenario, duration: float) -> Sections:
    """Harvest the result entries of everything ``scenario`` simulates.

    Every entry carries its position in the *whole* spec's declaration (app
    and workload index, directed link index, host index), so the slices of a
    sharded run merge back into single-process order in
    :func:`assemble_result` — and one all-local scenario is already there.
    """
    groups = set(scenario.spec.metrics)
    sections: Sections = {"apps": [], "links": [], "hosts": [], "workloads": []}
    if "apps" in groups:
        for app in scenario.apps:
            sections["apps"].append((app.index, {
                "app": app.spec.app,
                "host": app.spec.host,
                "label": app.label,
                "metrics": app.metrics(),
            }))
    if "links" in groups:
        for index, name, link in scenario.directed_links():
            sections["links"].append((index, _link_metrics(name, link)))
    if "hosts" in groups:
        for index, (name, host) in enumerate(scenario.hosts.items()):
            if not scenario.is_local(name):
                continue
            costs = host.costs
            entry: Dict[str, Any] = {"host": name}
            if costs is not None:
                entry["cpu_total_us"] = costs.total_us
                entry["cpu_utilization"] = costs.utilization(duration) if duration > 0 else 0.0
                entry["cpu_by_category_us"] = dict(sorted(costs.ledger.snapshot().items()))
            sections["hosts"].append((index, entry))
    for workload in scenario.workloads:
        sections["workloads"].append((workload.index, {
            "kind": workload.spec.kind,
            "host": workload.spec.host,
            "label": workload.label,
            "metrics": workload.metrics(),
        }))
    return sections


def assemble_result(spec: ScenarioSpec, seed: int, duration: float,
                    slices: Sequence[Sections]) -> ScenarioResult:
    """One :class:`ScenarioResult` from the collected slices of a run."""
    result = ScenarioResult(
        name=spec.name,
        seed=seed,
        spec_digest=spec_digest(spec),
        duration_s=duration,
    )
    for key in ("apps", "links", "hosts", "workloads"):
        entries = [pair for sections in slices for pair in sections[key]]
        entries.sort(key=lambda pair: pair[0])
        setattr(result, key, [entry for _index, entry in entries])
    return result


@contextlib.contextmanager
def started(scenario: Scenario) -> Iterator[None]:
    """Start sampling, apps and workloads; close the trace however the run ends."""
    spec = scenario.spec
    sim = scenario.sim
    try:
        for link_spec in spec.links:
            channel = scenario.channels[(link_spec.a, link_spec.b)]
            for when, rate_bps in link_spec.rate_schedule:
                if when > 0.0:
                    sim.schedule(when, channel.set_rate, rate_bps)
                else:
                    channel.set_rate(rate_bps)
        if scenario.telemetry is not None:
            # First sample at t=start (apps are constructed, flows opened);
            # sampling only reads state, so probes-on cannot perturb the run.
            scenario.telemetry.start()
        for app in scenario.apps:
            app.start()
        for workload in scenario.workloads:
            workload.start()
        yield
    finally:
        if scenario.telemetry is not None:
            scenario.telemetry.close()


def apps_done(states: Sequence[Optional[bool]]) -> bool:
    """The ``when_apps_done`` predicate over every app's ``done()`` state.

    ``None`` means "not a finite transfer": such apps never hold a run open,
    but a run with no finite transfer at all has nothing to finish early on.
    """
    return (any(state is not None for state in states)
            and all(state in (None, True) for state in states))


def drive(stop, start: float, advance: Callable[[float], float],
          done_states: Callable[[], Sequence[Optional[bool]]],
          drained: Callable[[], bool]) -> float:
    """Advance a started run to its stop condition; returns the end time.

    ``advance(until)`` brings the whole simulation to ``until`` and returns
    the time reached — ``sim.run`` in-process, lookahead-bounded barrier
    windows in the sharded coordinator.  Under ``when_apps_done`` the run
    is examined only at ``start`` and then every ``check_interval``: first
    the completion predicate, then whether the simulation has drained.
    """
    horizon = start + stop.until
    if not stop.when_apps_done:
        return advance(horizon)
    now = start
    while now < horizon and not apps_done(done_states()) and not drained():
        now = advance(min(horizon, now + stop.check_interval))
    return now


def finish(scenario: Scenario, duration: float) -> Sections:
    """Stop sampling, workloads and apps, then collect the result entries."""
    if scenario.telemetry is not None:
        scenario.telemetry.stop()
    # Workloads stop first: their teardown detaches the apps they spawned
    # and folds the survivors' counters into the workload metrics.
    for workload in scenario.workloads:
        workload.stop()
    for app in scenario.apps:
        app.stop()
    return _collect(scenario, duration)


def run_built(scenario: Scenario, *, control_hook=None, progress_cb=None,
              control_interval: float = DEFAULT_CONTROL_INTERVAL) -> ScenarioResult:
    """Drive an already-compiled scenario to its stop condition.

    ``control_hook(scenario)`` and ``progress_cb(sim_now, horizon)`` are the
    streaming hooks the service layer attaches (see :func:`run_streaming`):
    when either is given, the engine arms a periodic control tick that fires
    the hooks every ``control_interval`` simulated seconds *from inside the
    event loop*.  The hooks must only read state or apply mutations the
    simulation sanctions (the service mailbox contract) — under that
    contract the result is byte-identical to an unhooked run of the same
    ``(spec, seed)``.  A hook that raises aborts the run; the exception
    propagates to the caller after telemetry is closed.

    The lifecycle is the four pieces the sharded engine runs too —
    :func:`started`, :func:`drive`, :func:`finish`, :func:`assemble_result`
    — here over one all-local scenario with ``sim.run`` as the advance.
    """
    spec = scenario.spec
    sim = scenario.sim
    start = sim.now
    horizon = start + spec.stop.until
    with started(scenario):
        try:
            if control_hook is not None or progress_cb is not None:
                def _control_tick() -> None:
                    if control_hook is not None:
                        control_hook(scenario)
                    if progress_cb is not None:
                        progress_cb(sim.now, horizon)

                sim.start_control(control_interval, _control_tick)
                if progress_cb is not None:
                    progress_cb(sim.now, horizon)
            # The control chain keeps the queue non-empty, so the "has the
            # simulation drained?" question must ignore it — this is what
            # keeps hooked and batch runs byte-identical here.
            drive(spec.stop, start, lambda until: sim.run(until=until),
                  lambda: [app.done() for app in scenario.apps],
                  sim.idle_except_control)
            duration = sim.now - start
            result = assemble_result(spec, scenario.seed, duration,
                                     [finish(scenario, duration)])
            telemetry = scenario.telemetry
            if telemetry is not None and telemetry.in_result:
                result.telemetry = telemetry.payload()
            if progress_cb is not None:
                progress_cb(sim.now, horizon)
            return result
        finally:
            sim.stop_control()


def run_streaming(spec: ScenarioSpec, seed: Optional[int] = None, *,
                  trace_path: Optional[str] = None,
                  control_hook=None, progress_cb=None,
                  control_interval: float = DEFAULT_CONTROL_INTERVAL,
                  shards: Optional[int] = None) -> ScenarioResult:
    """Compile and execute ``spec`` with optional live-control hooks.

    This is the one code path both the batch CLI (:func:`run`, no hooks) and
    the ``repro.service`` job fleet (mailbox drain + progress reporting)
    execute, so the two can never drift apart.  Hooks fire inside the event
    loop (see :func:`run_built`); a run whose hooks only read state produces
    a byte-identical result to the hook-free run of the same ``(spec,
    seed)``.

    ``shards`` overrides the spec's ``engine.shards`` (``None`` defers to
    it); any effective value above 1 dispatches to the sharded parallel
    engine, whose result is byte-identical to the single-process run of the
    same ``(spec, seed)`` — see docs/parallel_engine.md.  Mid-run control
    hooks are a single-process feature: combining one with sharding raises.
    """
    effective = shards if shards is not None else (
        spec.engine.shards if spec.engine is not None else 1)
    if effective > 1:
        if control_hook is not None:
            raise SpecError(
                "engine.shards",
                "mid-run control hooks (the service mailbox) are not "
                "supported on sharded runs")
        from ..netsim.parallel import run_sharded

        return run_sharded(spec, seed, shards=effective,
                           trace_path=trace_path, progress_cb=progress_cb)
    return run_built(
        build(spec, seed=seed, trace_path=trace_path),
        control_hook=control_hook,
        progress_cb=progress_cb,
        control_interval=control_interval,
    )


def run(spec: ScenarioSpec, seed: Optional[int] = None,
        trace_path: Optional[str] = None,
        shards: Optional[int] = None) -> ScenarioResult:
    """Compile and execute ``spec``; deterministic per ``(spec, seed)``.

    ``trace_path`` streams every telemetry event and periodic sample to a
    JSON-lines file (byte-identical per ``(spec, seed)``) without touching
    the result payload of specs that carry no telemetry block.  ``shards``
    (or the spec's own ``engine: {shards: N}``) selects the sharded engine;
    either way the result bytes are those of the single-process run.
    """
    return run_streaming(spec, seed, trace_path=trace_path, shards=shards)
