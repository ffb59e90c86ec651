"""Socket-free JSON API over the :class:`~repro.service.jobs.JobManager`.

The :class:`Router` and :class:`ServiceApi` are deliberately independent of
any HTTP machinery: ``api.dispatch("GET", "/v1/jobs", b"")`` is the whole
interface, so tests drive the full endpoint surface without opening a
socket (the same pattern the flow-manager tests use).  The stdlib HTTP
front end in :mod:`repro.service.server` is a thin adapter on top.

Every live-inspection and mutation endpoint goes through
:meth:`Job.request` — a named op and its JSON arguments, sent down the pipe
the simulation's control tick drains — because the engine objects live in
the job's slot process, not here.  The ops are the :data:`OPS` table at the
end of this module: plain functions ``op(scenario, **json_args) -> json``
that run inside the slot's event loop and may raise :class:`ApiError` /
:class:`SpecError`; both cross the pipe and surface as structured JSON
errors with the right status code.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from urllib.parse import unquote

from ..scenario.presets import get_preset
from ..scenario.spec import ScenarioSpec, SpecError
from .jobs import Job, JobManager, JobNotLive, JobState

__all__ = ["ApiError", "OPS", "Response", "Router", "ServiceApi"]

#: Telemetry streams poll the trace file at this wall-clock period.
STREAM_POLL_S = 0.05
#: A telemetry stream never outlives this many wall seconds.
STREAM_MAX_WALL_S = 600.0


class ApiError(Exception):
    """An error with an HTTP status and a JSON body."""

    def __init__(self, status: int, message: str, **extra: Any):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}

    def __reduce__(self):  # raised by ops in a slot process, caught here
        extra = {key: value for key, value in self.payload.items() if key != "error"}
        return functools.partial(ApiError, **extra), (self.status, self.payload["error"])


class Response:
    """What a handler returns: JSON payload, raw bytes, or a byte stream."""

    def __init__(self, status: int = 200, payload: Any = None,
                 body: Optional[bytes] = None,
                 stream: Optional[Iterator[bytes]] = None,
                 content_type: str = "application/json",
                 after: Optional[Callable[[], None]] = None):
        self.status = status
        self.payload = payload
        self.body = body
        self.stream = stream
        self.content_type = content_type
        # Invoked by the transport after the body is fully written — the
        # shutdown endpoint uses it so the teardown can never race the
        # response onto a dying process.
        self.after = after

    def encoded(self) -> bytes:
        """The response body as bytes (not valid for streams)."""
        if self.stream is not None:
            raise ValueError("streaming responses have no fixed body")
        if self.body is not None:
            return self.body
        return (json.dumps(self.payload, indent=2, sort_keys=True) + "\n").encode("utf-8")

    def json(self) -> Any:
        """Decode the body as JSON (test convenience)."""
        return json.loads(self.encoded())


class Router:
    """Method + path-template dispatch (``<name>`` segments capture)."""

    def __init__(self):
        self._routes: List[Tuple[str, Tuple[str, ...], Callable]] = []

    def add(self, method: str, pattern: str, handler: Callable) -> None:
        segments = tuple(seg for seg in pattern.strip("/").split("/") if seg)
        self._routes.append((method.upper(), segments, handler))

    def match(self, method: str, path: str) -> Tuple[Optional[Callable], Dict[str, str], bool]:
        """Resolve ``(handler, params, path_known)`` for a request.

        ``path_known`` distinguishes 404 (no route has this shape) from 405
        (the path exists but not for this method).
        """
        segments = [unquote(seg) for seg in path.strip("/").split("/") if seg]
        path_known = False
        for route_method, template, handler in self._routes:
            if len(template) != len(segments):
                continue
            params: Dict[str, str] = {}
            for expected, actual in zip(template, segments):
                if expected.startswith("<") and expected.endswith(">"):
                    params[expected[1:-1]] = actual
                elif expected != actual:
                    break
            else:
                path_known = True
                if route_method == method.upper():
                    return handler, params, True
        return None, {}, path_known


class ServiceApi:
    """The ``/v1`` endpoint surface over one :class:`JobManager`."""

    #: How long an op may wait for a control tick before the endpoint
    #: reports 504 (the job is wedged or between events).
    INSPECT_TIMEOUT_S = 10.0

    def __init__(self, manager: JobManager,
                 on_shutdown: Optional[Callable[[], None]] = None):
        self.manager = manager
        self.on_shutdown = on_shutdown
        self.router = Router()
        add = self.router.add
        add("GET", "/", self._handle_index)
        add("GET", "/v1/health", self._handle_health)
        add("POST", "/v1/jobs", self._handle_submit)
        add("GET", "/v1/jobs", self._handle_list)
        add("GET", "/v1/jobs/<id>", self._handle_status)
        add("DELETE", "/v1/jobs/<id>", self._handle_cancel)
        add("GET", "/v1/jobs/<id>/result", self._handle_result)
        add("GET", "/v1/jobs/<id>/telemetry", self._handle_telemetry)
        add("GET", "/v1/jobs/<id>/hosts", self._handle_hosts)
        add("GET", "/v1/jobs/<id>/hosts/<host>/macroflows", self._handle_macroflows)
        add("GET", "/v1/jobs/<id>/macroflows/<mfid>/flows", self._handle_flows)
        add("POST", "/v1/jobs/<id>/hosts/<host>/apps", self._handle_attach_app)
        add("PATCH", "/v1/jobs/<id>/links/<link>", self._handle_patch_link)
        add("POST", "/v1/shutdown", self._handle_shutdown)

    # -------------------------------------------------------------- dispatch
    def dispatch(self, method: str, path: str, body: bytes = b"") -> Response:
        """Route one request; every error becomes a structured JSON response."""
        handler, params, path_known = self.router.match(method, path)
        if handler is None:
            if path_known:
                return Response(405, {"error": f"method {method} not allowed on {path}"})
            return Response(404, {"error": f"no such endpoint: {method} {path}"})
        try:
            payload = self._decode_body(body)
            return handler(params, payload)
        except ApiError as exc:
            return Response(exc.status, exc.payload)
        except SpecError as exc:
            return Response(400, {"error": str(exc), "path": exc.path})
        except JobNotLive as exc:
            return Response(409, {"error": str(exc)})
        except TimeoutError as exc:
            return Response(504, {"error": str(exc)})
        except Exception as exc:  # surfaced, not raised: the router is a server
            return Response(500, {"error": f"{type(exc).__name__}: {exc}"})

    @staticmethod
    def _decode_body(body: bytes) -> Dict[str, Any]:
        if not body:
            return {}
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(decoded, dict):
            raise ApiError(400, "request body must be a JSON object")
        return decoded

    # --------------------------------------------------------------- helpers
    def _job(self, params: Dict[str, str]) -> Job:
        raw = params["id"]
        try:
            job_id = int(raw)
        except ValueError:
            raise ApiError(400, f"job id must be an integer, got {raw!r}")
        job = self.manager.get(job_id)
        if job is None:
            raise ApiError(404, f"no such job: {job_id}")
        return job

    def _job_id(self, params: Dict[str, str]) -> int:
        try:
            return int(params["id"])
        except ValueError:
            raise ApiError(400, f"job id must be an integer, got {params['id']!r}")

    def _inspect(self, job: Job, op: str, **args: Any) -> Any:
        """Run ``OPS[op](scenario, **args)`` inside the job's event loop."""
        return job.request(op, timeout=self.INSPECT_TIMEOUT_S, **args)

    # -------------------------------------------------------------- handlers
    def _handle_index(self, params, payload) -> Response:
        health = self.manager.health()
        return Response(200, {
            "service": "repro.service",
            "slots": self.manager.slots,
            "store": self.manager.store_path,
            "uptime_s": health["uptime_s"],
            "jobs": health["jobs"],
        })

    def _handle_health(self, params, payload) -> Response:
        # Supervisor-owned scalars only: this answers while every slot is busy.
        return Response(200, self.manager.health())

    def _handle_submit(self, params, payload) -> Response:
        if ("preset" in payload) == ("spec" in payload):
            raise ApiError(400, "submit exactly one of 'preset' or 'spec'")
        if "preset" in payload:
            try:
                spec = get_preset(str(payload["preset"]))
            except KeyError as exc:
                raise ApiError(400, str(exc.args[0]))
        else:
            if not isinstance(payload["spec"], dict):
                raise ApiError(400, "'spec' must be a JSON object")
            # Strict round-trip: from_dict rejects unknown keys, and the
            # manager validates the whole tree once for every seed; a
            # SpecError surfaces as a 400 carrying the offending path.
            spec = ScenarioSpec.from_dict(payload["spec"])
        if "seed" in payload and "seeds" in payload:
            raise ApiError(400, "pass either 'seed' or 'seeds', not both")
        if "seeds" in payload:
            seeds = payload["seeds"]
            if (not isinstance(seeds, list) or not seeds
                    or not all(isinstance(seed, int) for seed in seeds)):
                raise ApiError(400, "'seeds' must be a non-empty list of integers")
        else:
            seed = payload.get("seed")
            if seed is not None and not isinstance(seed, int):
                raise ApiError(400, "'seed' must be an integer")
            seeds = [seed]
        trace = bool(payload.get("trace", False))
        shards = payload.get("shards")
        if shards is not None and (not isinstance(shards, int) or shards < 1):
            raise ApiError(400, "'shards' must be a positive integer")
        jobs = self.manager.submit_seeds(spec, seeds, trace=trace, shards=shards)
        body: Dict[str, Any] = {"jobs": [job.status() for job in jobs]}
        if len(jobs) == 1:
            body["job"] = body["jobs"][0]
        return Response(201, body)

    def _handle_list(self, params, payload) -> Response:
        return Response(200, {"jobs": [job.status() for job in self.manager.jobs()]})

    def _handle_status(self, params, payload) -> Response:
        job_id = self._job_id(params)
        job = self.manager.get(job_id)
        if job is not None:
            return Response(200, job.status())
        stored = self.manager.store_status(job_id)
        if stored is not None:
            return Response(200, stored)
        raise ApiError(404, f"no such job: {job_id}")

    def _handle_cancel(self, params, payload) -> Response:
        job = self._job(params)
        if job.finished:
            raise ApiError(409, f"job {job.id} already {job.state}")
        self.manager.cancel(job.id)
        return Response(202, job.status())

    def _handle_result(self, params, payload) -> Response:
        job_id = self._job_id(params)
        job = self.manager.get(job_id)
        if job is None:
            stored = self.manager.store_result_json(job_id)
            if stored is None:
                raise ApiError(404, f"no such job: {job_id}")
            return Response(200, body=stored.encode("utf-8"))
        if job.state in JobState.LIVE:
            raise ApiError(409, f"job {job.id} is {job.state}; no result yet")
        if job.state != JobState.DONE:
            raise ApiError(409, f"job {job.id} {job.state}: {job.error}")
        # The slot's ScenarioResult.to_json(), verbatim — byte-identical to
        # the batch CLI's file for the same (spec, seed); the smoke test in
        # CI compares them.
        return Response(200, body=job.result.to_json().encode("utf-8"))

    def _handle_telemetry(self, params, payload) -> Response:
        job = self._job(params)
        if job.trace_path is None:
            raise ApiError(409, f"job {job.id} was not submitted with trace=true")
        return Response(200, stream=self._tail_trace(job),
                        content_type="application/x-ndjson")

    def _tail_trace(self, job: Job) -> Iterator[bytes]:
        """Yield trace lines as they land, until the job finishes and EOF.

        Pure wall-clock file tailing — the sink writes from the slot
        process, we read the file; no shared state beyond ``job.finished``.
        """
        deadline = time.time() + STREAM_MAX_WALL_S
        while not os.path.exists(job.trace_path):
            if job.finished or time.time() > deadline:
                return
            time.sleep(STREAM_POLL_S)
        with open(job.trace_path, "rb") as handle:
            while True:
                chunk = handle.read(65536)
                if chunk:
                    yield chunk
                    continue
                if job.finished or time.time() > deadline:
                    # One final read: the worker may have flushed between our
                    # empty read and the finished check.
                    chunk = handle.read(65536)
                    if chunk:
                        yield chunk
                        continue
                    return
                time.sleep(STREAM_POLL_S)

    # ------------------------------------------- live inspection and mutation
    def _handle_hosts(self, params, payload) -> Response:
        return Response(200, self._inspect(self._job(params), "hosts"))

    def _handle_macroflows(self, params, payload) -> Response:
        return Response(200, self._inspect(self._job(params), "macroflows",
                                           host=params["host"]))

    def _handle_flows(self, params, payload) -> Response:
        job = self._job(params)
        try:
            mf_id = int(params["mfid"])
        except ValueError:
            raise ApiError(400, f"macroflow id must be an integer, got {params['mfid']!r}")
        return Response(200, self._inspect(job, "flows", macroflow_id=mf_id))

    def _handle_attach_app(self, params, payload) -> Response:
        job = self._job(params)
        app_name = payload.get("app")
        if not isinstance(app_name, str) or not app_name:
            raise ApiError(400, "'app' (registry application name) is required")
        app_params = payload.get("params", {})
        if not isinstance(app_params, dict):
            raise ApiError(400, "'params' must be a JSON object")
        return Response(201, self._inspect(
            job, "attach_app", app=app_name, host=params["host"],
            peer=str(payload.get("peer", "") or ""),
            label=str(payload.get("label", "") or ""), params=app_params))

    def _handle_patch_link(self, params, payload) -> Response:
        job = self._job(params)
        rate_bps = payload.get("rate_bps")
        delay = payload.get("delay")
        at = payload.get("at")
        if rate_bps is None and delay is None:
            raise ApiError(400, "nothing to change: pass 'rate_bps' and/or 'delay'")
        for field, value in (("rate_bps", rate_bps), ("delay", delay), ("at", at)):
            if value is not None and (not isinstance(value, (int, float))
                                      or isinstance(value, bool) or value < 0):
                raise ApiError(400, f"'{field}' must be a non-negative number")
        if rate_bps is not None and rate_bps <= 0:
            raise ApiError(400, "'rate_bps' must be positive")
        return Response(200, self._inspect(job, "patch_link", link=params["link"],
                                           rate_bps=rate_bps, delay=delay, at=at))

    def _handle_shutdown(self, params, payload) -> Response:
        # Deferred via Response.after: the transport triggers the teardown
        # only once the 202 body is on the wire, otherwise the process can
        # exit before the client has read its answer.
        return Response(202, {"ok": True, "message": "shutting down"},
                        after=self.on_shutdown)


# ---------------------------------------------------------- snapshot shaping
def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _macroflow_entry(mf) -> Dict[str, Any]:
    status = mf.status()
    scheduler = mf.scheduler
    entry = {
        "macroflow_id": mf.macroflow_id,
        "key": _jsonable(mf.key),
        "mtu": mf.mtu,
        "flows": sorted(mf.flows),
        "cwnd_bytes": status.cwnd_bytes,
        "rate_bps": status.rate,
        "srtt_s": status.srtt,
        "rttvar_s": status.rttvar,
        "loss_rate": status.loss_rate,
        "outstanding_bytes": mf.outstanding_bytes,
        "reserved_bytes": mf.reserved_bytes,
        "bytes_sent_total": mf.bytes_sent_total,
        "bytes_acked_total": mf.bytes_acked_total,
        "updates_received": mf.updates_received,
        "congestion_reactions": mf.congestion_reactions,
        "scheduler": type(scheduler).__name__,
        "pending_grants": scheduler.pending_requests(),
    }
    if hasattr(scheduler, "weight_of"):
        entry["shares"] = {
            str(flow_id): scheduler.weight_of(flow_id) for flow_id in sorted(mf.flows)
        }
    return entry


def _flow_entry(mf, flow) -> Dict[str, Any]:
    return {
        "flow_id": flow.flow_id,
        "src": flow.src,
        "dst": flow.dst,
        "sport": flow.sport,
        "dport": flow.dport,
        "protocol": flow.protocol,
        "state": flow.state,
        "granted_unnotified": flow.granted_unnotified,
        "outstanding_bytes": flow.outstanding_bytes,
        "pending_requests": mf.scheduler.pending_requests(flow.flow_id),
        "stats": dataclasses.asdict(flow.stats),
    }


# ------------------------------------------------------------------- the ops
# What a job can be asked while it runs.  Each is called by the slot's
# control tick, inside the event loop, as ``op(scenario, **json_args)`` and
# returns JSON; arguments, value and any exception cross a pipe, so they are
# data, never closures.
def op_hosts(scenario) -> Dict[str, Any]:
    hosts = []
    for name in sorted(scenario.hosts):
        host = scenario.hosts[name]
        entry: Dict[str, Any] = {
            "host": name,
            "addr": host.addr,
            "cm": host.cm is not None,
        }
        if host.cm is not None:
            entry["open_flows"] = host.cm.open_flow_count
            entry["macroflows"] = len(host.cm.macroflows)
        hosts.append(entry)
    return {"sim_time": scenario.sim.now, "hosts": hosts}


def op_macroflows(scenario, host: str) -> Dict[str, Any]:
    if host not in scenario.hosts:
        raise ApiError(404, f"the job has no host {host!r}; have {sorted(scenario.hosts)}")
    cm = scenario.hosts[host].cm
    if cm is None:
        raise ApiError(409, f"host {host!r} has no Congestion Manager")
    return {
        "sim_time": scenario.sim.now,
        "host": host,
        "macroflows": [_macroflow_entry(mf) for mf in cm.macroflows],
    }


def op_flows(scenario, macroflow_id: int) -> Dict[str, Any]:
    for name in sorted(scenario.hosts):
        cm = scenario.hosts[name].cm
        if cm is None:
            continue
        for mf in cm.macroflows:
            if mf.macroflow_id == macroflow_id:
                return {
                    "sim_time": scenario.sim.now,
                    "host": name,
                    "macroflow_id": macroflow_id,
                    "flows": [_flow_entry(mf, flow)
                              for _, flow in sorted(mf.flows.items())],
                }
    raise ApiError(404, f"the job has no macroflow {macroflow_id}")


class _AttachedApp:
    """A mid-run application attach, dressed as a workload record.

    The scenario runner already stops workloads before static apps and
    collects each one into the result's ``workloads`` section (which is
    omitted when empty) — wrapping service attaches in this record makes
    them visible in the result without touching the runner, while jobs that
    were never mutated stay byte-identical to their batch runs.
    """

    kind = "service_attach"

    class _Spec:
        __slots__ = ("kind", "host")

        def __init__(self, kind: str, host: str):
            self.kind = kind
            self.host = host

    def __init__(self, app, host_name: str, label: str, index: int):
        self.app = app
        self.label = label
        #: Result-order key: after every declared workload, in attach order.
        self.index = index
        self.spec = self._Spec(self.kind, host_name)
        self._stopped = False

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.app.stop()

    def metrics(self) -> Dict[str, Any]:
        return self.app.metrics()


def op_attach_app(scenario, app: str, host: str, peer: str = "", label: str = "",
                  params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Attach a registry application to a live host (event-loop context only).

    The request is checked exactly like a static ``apps:`` entry (field
    types, then :meth:`AppSpec.validate`: registered app, declared host and
    peer, peer != host, schema-validated params) and then follows the
    runtime attach path the stochastic workload generators use: construction
    against live hosts, telemetry binding, ``start()``.  The instance is
    recorded as a ``service_attach`` entry in the result's ``workloads``
    section.
    """
    from ..scenario.applications import get_application
    from ..scenario.spec import AppSpec

    attach_index = sum(1 for w in scenario.workloads if isinstance(w, _AttachedApp))
    app_spec = AppSpec(app=app, host=host, peer=peer,
                       label=label or f"service:{app}[{attach_index}]",
                       params=dict(params or {}))
    app_spec.check_fields("")
    normalized = app_spec.validate("", scenario.hosts)
    label = app_spec.label
    instance = get_application(app)(scenario.hosts[host],
                                    scenario.hosts[peer] if peer else None,
                                    app_spec, normalized)
    instance.label = label
    if scenario.telemetry is not None:
        instance.attach_telemetry(scenario.telemetry.hub)
    instance.start()
    scenario.workloads.append(_AttachedApp(instance, host, label, len(scenario.workloads)))
    return {"label": label, "app": app, "host": host,
            "peer": peer or None, "attached_at": scenario.sim.now}


def op_patch_link(scenario, link: str, rate_bps: Optional[float] = None,
                  delay: Optional[float] = None,
                  at: Optional[float] = None) -> Dict[str, Any]:
    links = {name: found for _index, name, found in scenario.directed_links()}
    target = links.get(link)
    if target is None:
        raise ApiError(404, f"the job has no link {link!r}; have {list(links)}")

    def apply() -> None:
        if rate_bps is not None:
            target.rate_bps = float(rate_bps)
        if delay is not None:
            target.delay = float(delay)

    now = scenario.sim.now
    if at is not None and at > now:
        scenario.sim.at(float(at), apply)
        applied_at = float(at)
    else:
        apply()
        applied_at = now
    return {
        "link": link,
        "rate_bps": target.rate_bps,
        "delay": target.delay,
        "applies_at": applied_at,
        "sim_time": now,
    }


OPS: Dict[str, Callable[..., Any]] = {
    "hosts": op_hosts,
    "macroflows": op_macroflows,
    "flows": op_flows,
    "attach_app": op_attach_app,
    "patch_link": op_patch_link,
}
