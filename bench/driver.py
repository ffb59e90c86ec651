"""Run one workload: set-up timing, warm-up, timed repeats, correctness, metrics.

One process measures one workload (``python -m bench`` with no ``--workload``
spawns a fresh child per workload), which keeps the spec-validation memo, the
packet pools and ``ru_maxrss`` of one workload out of the next one's numbers.

The end-to-end pass and the traced pass share the set-up loop, the warm-up
and the correctness checks.  The end-to-end pass then repeats the workload
for ``--seconds`` with no profiler anywhere; the traced pass makes the
workload's minimum of plain repeats, one more under ``cProfile``, and runs
the isolated drivers.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.netsim.parallel import partition_graph
from repro.results.store import ResultStore
from repro.scenario import ScenarioSpec, build, run, run_built, validate_result_payload

from . import layers
from .attribution import layer_table, profile_call, profile_with_children
from .env import OUT_DIR, environment, finish_environment
from .metrics import END_TO_END, PER_LAYER, as_entries, highest_supported_percentile, median, percentile
from .service import Server, job_failed, run_jobs
from .spans import Spans, self_times
from .steal import cpu_net_of_steal, net_of_steal, steal_s
from .workloads import (DEFAULT_SEED, MSS, SERVICE_CLIENTS, SERVICE_JOBS_PER_CLIENT, WORKLOADS,
                        Workload)

__all__ = ["run_workload", "expected_digest_path"]

#: Set-ups are repeated until they total this long, and at least this often.
SETUP_BUDGET_S = 0.5
MIN_SETUPS = 5
#: Jobs of ``service_jobs`` whose bytes are compared with the batch run.
SERVICE_SAMPLE = 10


def _cpu_now() -> float:
    """CPU seconds of this process and its reaped children.

    ``os.times()`` reports the same clocks in 10 ms ticks; these two read
    them at the kernel's resolution.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class _Usage:
    """CPU and steal seconds consumed while the block ran (the span has the wall)."""

    def __init__(self, other_cpu: Callable[[], float] = lambda: 0.0):
        self._other_cpu = other_cpu

    def _read(self) -> Tuple[float, float]:
        return _cpu_now() + self._other_cpu(), steal_s()

    def __enter__(self) -> "_Usage":
        self._start = self._read()
        return self

    def __exit__(self, *_exc) -> None:
        cpu, stolen = self._read()
        self.cpu_s, self.stolen_s = cpu - self._start[0], stolen - self._start[1]


def _scenario_links(scenario) -> Iterator[Any]:
    """Every directed link of a built scenario (the runner's own walk)."""
    for channel in scenario.channels.values():
        yield channel.forward
        yield channel.reverse
    if scenario.dumbbell is not None:
        yield scenario.dumbbell.bottleneck
        yield scenario.dumbbell.bottleneck_reverse
    if scenario.graph_net is not None:
        yield from scenario.graph_net.links.values()


def _tally(counts: Dict[str, float], scenario, payload: Dict[str, Any]) -> None:
    """Add one finished run's exact counts (public attributes + result) to ``counts``."""
    def add(name: str, value: float) -> None:
        counts[name] = counts.get(name, 0) + value

    add("netsim.engine.events_dispatched", scenario.sim.events_dispatched)
    pool = scenario.sim.packet_pool
    add("netsim.packet.pool_created", pool.created if pool is not None else 0)
    for link in _scenario_links(scenario):
        stats = link.stats
        add("netsim.link.delivered_packets", stats.delivered_packets)
        add("netsim.link.dropped_overflow", stats.dropped_overflow)
        add("netsim.link.dropped_random", stats.dropped_random)
        add("netsim.link.ecn_marked", stats.ecn_marked)
    for app in payload["apps"]:
        metrics = app["metrics"]
        add("transport.tcp.retransmissions", metrics.get("retransmissions", 0))
        add("transport.tcp.timeouts", metrics.get("timeouts", 0))
        libcm = metrics.get("libcm_stats", {})
        add("core.libcm.selects", libcm.get("selects", 0))
        add("core.libcm.ioctls", libcm.get("ioctls", 0))
    for host in payload["hosts"]:
        add("hostmodel.cpu_total_us", host.get("cpu_total_us", 0.0))
    for workload in payload.get("workloads", []):
        metrics = workload["metrics"]
        add("workloads.flows_started",
            metrics.get("flows_started", 0) + metrics.get("sessions_started", 0))


def _delivered_packets(payload: Dict[str, Any]) -> float:
    return float(sum(link["delivered_packets"] for link in payload["links"]))


def _transfers(payload: Dict[str, Any]) -> Tuple[int, int]:
    """(expected, incomplete) finite transfers of a result whose spec expects completion."""
    done = [app["metrics"]["done"] for app in payload["apps"] if "done" in app["metrics"]]
    return len(done), sum(1 for state in done if not state)


@dataclass
class Repeat:
    """What one timed repeat produced."""

    wall_s: float
    cpu_s: float
    packets: float
    sim_s: float
    payload: bytes
    attempted: int
    failed: int
    latencies: List[float]
    #: Seconds the hypervisor stole from the guest during the run phase.
    stolen_s: float = 0.0
    jobs: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def net_wall_s(self) -> float:
        """The run phase's wall time net of steal."""
        return net_of_steal(self.wall_s, self.cpu_s, self.stolen_s)

    @property
    def net_cpu_s(self) -> float:
        """The run phase's CPU time net of the steal its clock counted."""
        return cpu_net_of_steal(self.cpu_s, self.stolen_s)


class Runner:
    """Mode-independent part of a workload run; subclasses fill in the calls."""

    #: Repeats the end-to-end pass makes at least, however long they take.
    min_repeats = 3

    def __init__(self, name: str, workload: Workload, seed: int, spans: Spans, workdir: str):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.spans = spans
        self.workdir = workdir
        self.spec = workload.spec(1.0)
        self.spec.validate()
        self.counts: Dict[str, float] = {}
        self.extras: Dict[str, float] = {}

    def cold_spec(self, index: int) -> ScenarioSpec:
        """A spec no memo has seen: same content, ``index`` in the description."""
        spec = self.workload.spec(1.0)
        spec.description += f" [set-up {index}]"
        return spec

    def close(self) -> None:
        """Stop whatever the runner started."""

    # Subclass surface -----------------------------------------------------
    def setup_once(self, index: int) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def repeat(self, wrap: Callable = lambda fn: fn()) -> Repeat:
        """One timed repeat; ``wrap`` runs the run phase (the profiler hooks in here)."""
        raise NotImplementedError

    def cross_check(self, last: Repeat) -> List[str]:
        """The workload's byte-identity check against another way of running it."""
        raise NotImplementedError

    def profiled(self, plain: List[Repeat]) -> Tuple[Any, float, float]:
        """(pstats, packets, traced wall / plain wall) of one profiled repeat."""
        stats_box: List[Any] = []

        def wrap(fn):
            value, stats = self.profile(fn)
            stats_box.append(stats)
            return value

        traced = self.repeat(wrap)
        return stats_box[0], traced.packets, traced.wall_s / median([r.wall_s for r in plain])

    def profile(self, fn: Callable[[], Any]) -> Tuple[Any, Any]:
        return profile_call(fn)


class InprocRunner(Runner):
    """``build`` + ``run_built`` in this process (``probed``: with a JSONL trace)."""

    def __init__(self, *args):
        super().__init__(*args)
        #: ``when_apps_done`` promises that every finite transfer completes.
        self.expects_completion = self.spec.stop.when_apps_done
        self.trace_path = (os.path.join(self.workdir, "trace.jsonl")
                           if self.workload.mode == "probed" else None)
        self.last: Optional[Tuple[Any, Dict[str, Any]]] = None

    def setup_once(self, index: int) -> None:
        spec = self.cold_spec(index)
        with self.spans.span("scenario.spec.validate"):
            spec.validate()
        with self.spans.span("scenario.builder.build"):
            scenario = build(spec, seed=self.seed, trace_path=self.trace_path)
        if scenario.telemetry is not None:
            scenario.telemetry.close()

    def warm_up(self) -> None:
        run_built(build(self.workload.spec(0.1), seed=self.seed, trace_path=self.trace_path))

    def repeat(self, wrap: Callable = lambda fn: fn()) -> Repeat:
        spans = self.spans
        with spans.span("scenario.job") as job:
            with spans.span("scenario.builder.build"):
                scenario = build(self.spec, seed=self.seed, trace_path=self.trace_path)
            with _Usage() as used, spans.span("scenario.runner.run") as ran:
                result = wrap(lambda: run_built(scenario))
            with spans.span("scenario.runner.collect"):
                text = result.to_json()
        payload = json.loads(text)
        self.last = (scenario, payload)
        attempted, failed = _transfers(payload) if self.expects_completion else (0, 0)
        return Repeat(wall_s=ran["end"] - ran["start"], cpu_s=used.cpu_s, stolen_s=used.stolen_s,
                      packets=_delivered_packets(payload), sim_s=payload["duration_s"],
                      payload=text.encode("utf-8"), attempted=1 + attempted, failed=failed,
                      latencies=[job["end"] - job["start"]])

    def cross_check(self, last: Repeat) -> List[str]:
        scenario, result = self.last
        _tally(self.counts, scenario, result)
        if self.trace_path is None:
            return []
        with open(self.trace_path, "rb") as handle:
            trace = handle.read()
        self.counts["telemetry.trace_lines"] = trace.count(b"\n")
        self.counts["telemetry.trace_bytes"] = len(trace)
        unprobed = run_built(build(self.spec, seed=self.seed)).to_json().encode("utf-8")
        return ([] if unprobed == last.payload
                else ["probed result bytes differ from the unprobed run"])


class ShardedRunner(Runner):
    """``run(spec, shards=2)``: coordinator here, event loops in two forked workers."""

    def setup_once(self, index: int) -> None:
        spec = self.cold_spec(index)
        with self.spans.span("scenario.spec.validate"):
            spec.validate()
        with self.spans.span("netsim.parallel.partition"):
            partition_graph(spec, 2)

    def warm_up(self) -> None:
        run(self.workload.spec(0.1), seed=self.seed, shards=2)

    def repeat(self, wrap: Callable = lambda fn: fn()) -> Repeat:
        spans = self.spans
        with spans.span("scenario.job") as job:
            with _Usage() as used, spans.span("scenario.runner.run") as ran:
                result = wrap(lambda: run(self.spec, seed=self.seed, shards=2))
            with spans.span("scenario.runner.collect"):
                text = result.to_json()
        payload = json.loads(text)
        packets = sum(app["metrics"].get("bytes_acked", 0) for app in payload["apps"]) / MSS
        return Repeat(wall_s=ran["end"] - ran["start"], cpu_s=used.cpu_s,
                      stolen_s=used.stolen_s, packets=packets,
                      sim_s=payload["duration_s"], payload=text.encode("utf-8"),
                      attempted=1, failed=0, latencies=[job["end"] - job["start"]])

    def cross_check(self, last: Repeat) -> List[str]:
        with self.spans.span("scenario.builder.build"):
            scenario = build(self.spec, seed=self.seed)
        with self.spans.span("netsim.parallel.single") as single:
            result = run_built(scenario)
        text = result.to_json()
        _tally(self.counts, scenario, json.loads(text))
        self.extras["netsim.parallel.single_wall_s"] = single["end"] - single["start"]
        return ([] if text.encode("utf-8") == last.payload
                else ["shards=2 result bytes differ from shards=1"])

    def profile(self, fn: Callable[[], Any]) -> Tuple[Any, Any]:
        return profile_with_children(fn, self.workdir)


class ServiceRunner(Runner):
    """Closed-loop HTTP clients against a ``repro.service`` child process."""

    min_repeats = 5  # 5 x 20 jobs = 100 latencies: ten beyond the p90

    def __init__(self, *args):
        super().__init__(*args)
        self.server: Optional[Server] = None
        self.spec_payload = self.spec.to_dict()
        base = self.seed * 1000
        self.seeds = [[base + 100 * client + job for job in range(SERVICE_JOBS_PER_CLIENT)]
                      for client in range(SERVICE_CLIENTS)]
        per_client = SERVICE_SAMPLE // SERVICE_CLIENTS
        self.sample_seeds = [seed for seeds in self.seeds for seed in seeds[:per_client]]
        self.direct_wall_s = 0.0

    def setup_once(self, index: int) -> None:
        self.close()
        with self.spans.span("service.spawn"):
            self.server = Server(self.workdir, str(index))
        spec = self.cold_spec(index)
        with self.spans.span("scenario.spec.validate"):
            spec.validate()

    def warm_up(self) -> None:
        payload = self.workload.spec(0.1).to_dict()
        run_jobs(self.server, payload, [seeds[:1] for seeds in self.seeds])

    def repeat(self, wrap: Callable = lambda fn: fn()) -> Repeat:
        server, spans = self.server, self.spans
        with _Usage(server.cpu_s) as used, spans.span("scenario.runner.run") as ran:
            jobs = run_jobs(server, self.spec_payload, self.seeds)
        for job in jobs:
            for key in ("submit_s", "queue_wait_s", "job_run_s", "fetch_s"):
                if key in job:
                    spans.add(f"service.{key[:-2]}", job[key])
        results = [json.loads(job["result"]) for job in jobs if job["result"] is not None]
        return Repeat(
            wall_s=ran["end"] - ran["start"], cpu_s=used.cpu_s, stolen_s=used.stolen_s,
            packets=sum(_delivered_packets(result) for result in results),
            sim_s=sum(result["duration_s"] for result in results),
            payload=b"".join(job["result"] or b"" for job in jobs),
            attempted=len(jobs), failed=sum(job_failed(job, {}) for job in jobs),
            latencies=[job["latency_s"] for job in jobs], jobs=jobs)

    def _direct_runs(self, tally: bool) -> List[bytes]:
        """``build`` + ``run_built`` of every sampled (spec, seed), in this process."""
        texts = []
        for seed in self.sample_seeds:
            with self.spans.span("scenario.builder.build"):
                scenario = build(self.spec, seed=seed)
            with self.spans.span("service.direct_run"):
                text = run_built(scenario).to_json()
            if tally:
                _tally(self.counts, scenario, json.loads(text))
            texts.append(text.encode("utf-8"))
        return texts

    def cross_check(self, last: Repeat) -> List[str]:
        start = time.perf_counter()
        expected = dict(zip(self.sample_seeds, self._direct_runs(tally=True)))
        self.direct_wall_s = time.perf_counter() - start
        return [f"service result for seed {job['seed']} differs from run(spec, seed)"
                for job in last.jobs if job["seed"] in expected and job_failed(job, expected)]

    def profiled(self, plain: List[Repeat]) -> Tuple[Any, float, float]:
        """Profile the batch runs of the sampled jobs: the server's threads are
        out of cProfile's reach, and the ``service.*`` spans cover them instead."""
        start = time.perf_counter()
        texts, stats = profile_call(lambda: self._direct_runs(tally=False))
        traced = time.perf_counter() - start
        packets = sum(_delivered_packets(json.loads(text)) for text in texts)
        return stats, packets, traced / self.direct_wall_s

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


_RUNNERS = {"inproc": InprocRunner, "probed": InprocRunner,
            "sharded": ShardedRunner, "service": ServiceRunner}


def expected_digest_path(name: str, seed: int) -> str:
    """Where the pinned sha256 of ``name``'s result for ``seed`` lives."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected",
                        f"{name}.seed{seed}.sha256")


def _check_repeats(name: str, seed: int, repeats: List[Repeat]) -> List[str]:
    """Schema, determinism across repeats and the pinned digest (default seed only)."""
    problems: List[str] = []
    first = repeats[0].payload
    if any(repeat.payload != first for repeat in repeats[1:]):
        problems.append("result bytes differ between repeats of one (spec, seed)")
    jobs = repeats[0].jobs
    documents = [job["result"] for job in jobs if job["result"] is not None] if jobs else [first]
    for document in documents:
        problems.extend(validate_result_payload(json.loads(document)))
    if seed == DEFAULT_SEED:
        digest = hashlib.sha256(first).hexdigest()
        try:
            with open(expected_digest_path(name, seed), "r", encoding="ascii") as handle:
                pinned = handle.read().split()[0]
        except (OSError, IndexError):
            pinned = None
        if pinned != digest:
            problems.append(f"result sha256 {digest} is not the pinned {pinned}")
    return problems


def _as_measured(runner: Runner, repeats: List[Repeat]) -> Dict[str, float]:
    """The uncorrected medians behind the end-to-end times, for the printed table."""
    return {
        "setup_s": _setup_median(runner),
        "run_wall_s": median([r.wall_s for r in repeats]),
        "run_cpu_s": median([r.cpu_s for r in repeats]),
        "run_stolen_s": median([r.stolen_s for r in repeats]),
        "job_latency_s_p50": median([x for r in repeats for x in r.latencies]),
    }


def _end_to_end(runner: Runner, repeats: List[Repeat],
                setup_stolen: Dict[int, float]) -> Dict[str, float]:
    """The end-to-end metrics; every time is net of steal (bench.steal)."""
    wall = median([r.net_wall_s for r in repeats])
    cpu = median([r.net_cpu_s for r in repeats])
    packets, sim_s = repeats[0].packets, repeats[0].sim_s
    usage = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not isinstance(runner, ServiceRunner):  # the server's memory, not the clients'
        usage = max(usage, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return {
        "setup_s": _setup_median(runner, setup_stolen),
        "run_wall_s": wall,
        "run_cpu_s": cpu,
        "wall_us_per_packet": wall / packets * 1e6,
        "cpu_us_per_packet": cpu / packets * 1e6,
        "wall_s_per_sim_s": wall / sim_s,
        # A latency shares its repeat's conditions, so it loses its repeat's share of steal.
        "job_latency_s_p50": median([x * r.net_wall_s / r.wall_s
                                     for r in repeats for x in r.latencies]),
        "peak_rss_mb": usage / 1024.0,
    }


def _setup_median(runner: Runner, stolen: Optional[Dict[int, float]] = None) -> float:
    """Median duration of the set-up spans, grouped per set-up iteration.

    ``stolen``: seconds stolen during each iteration, taken out of it.  A
    sub-millisecond set-up almost never meets a 10 ms steal tick, and the
    median ignores the one that does; a server spawn meets many.
    """
    by_iteration: Dict[int, float] = {}
    names = ("service.spawn",) if isinstance(runner, ServiceRunner) else (
        "scenario.spec.validate", "scenario.builder.build", "netsim.parallel.partition")
    for record in runner.spans.records:
        if record["repeat"] is not None and record["repeat"] < 0 and record["name"] in names:
            by_iteration[record["repeat"]] = (by_iteration.get(record["repeat"], 0.0)
                                              + record["end"] - record["start"])
    if stolen is not None:
        by_iteration = {index: net_of_steal(duration, duration, stolen[index])
                        for index, duration in by_iteration.items()}
    return median(list(by_iteration.values()))


def _ingest_seconds(payload: bytes, samples: int = 5) -> float:
    """Median wall of ``ingest_scenario_payload`` into a fresh in-memory store."""
    document = json.loads(payload)
    walls = []
    for _ in range(samples):
        with ResultStore(":memory:") as store:
            start = time.perf_counter()
            store.ingest_scenario_payload(document, label="bench")
            walls.append(time.perf_counter() - start)
    return median(walls)


def _per_layer(runner: Runner, plain: List[Repeat], driver_budget_s: float) -> Dict[str, float]:
    spans = runner.spans
    values: Dict[str, float] = {metric.name: 0.0 for metric in PER_LAYER}
    # Phase medians first: the profiled repeat below records slower spans.
    for name in ("scenario.spec.validate", "scenario.builder.build", "scenario.runner.run",
                 "scenario.runner.collect", "netsim.parallel.partition", "service.submit",
                 "service.queue_wait", "service.job_run", "service.fetch", "service.direct_run"):
        values[f"{name}_s"] = median(spans.durations(name))
    values.update(runner.extras)
    plain_wall = median([r.wall_s for r in plain])
    jobs = [job for repeat in plain for job in repeat.jobs]
    if jobs:
        latencies = [job["latency_s"] for job in jobs]
        if (highest_supported_percentile(len(latencies)) or 0) < 90:
            raise RuntimeError(f"{len(latencies)} job latencies cannot support a p90")
        values["service.job_latency_s_p90"] = percentile(latencies, 90)
        values["service.jobs_per_s"] = len(plain[0].jobs) / plain_wall
        values["service.poll_count"] = median([job["polls"] for job in jobs])
        first_result = next(job["result"] for job in jobs if job["result"] is not None)
    else:
        first_result = plain[0].payload
    values["results.store.ingest_s"] = _ingest_seconds(first_result)
    single = values["netsim.parallel.single_wall_s"]
    if single:
        values["netsim.parallel.speedup"] = single / plain_wall
    values.update(runner.counts)
    delivered = values["netsim.link.delivered_packets"]
    values["netsim.engine.events_per_packet"] = (
        values["netsim.engine.events_dispatched"] / delivered if delivered else 0.0)

    spans.repeat = len(plain)  # the profiled repeat
    stats, packets, overhead = runner.profiled(plain)
    spans.repeat = None
    values.update(layer_table(stats, packets))
    values["trace_overhead_ratio"] = overhead
    values.update(layers.run_all(driver_budget_s, runner.workdir))
    return values


def _write_trace(name: str, block: Dict[str, Any], spans: Spans,
                 values: Dict[str, float]) -> str:
    own = self_times(spans.records)
    path = os.path.join(OUT_DIR, f"trace.{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "environment": block,
                   "spans": [dict(record, self_s=own[index])
                             for index, record in enumerate(spans.records)],
                   "per_layer": values}, handle, indent=1)
        handle.write("\n")
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 in_set: bool = False) -> Dict[str, Any]:
    """Measure one workload; returns ``{environment, correct, attempted, failed, metrics}``.

    ``in_set``: the workload is one of a back-to-back set, whose parent checks the load.
    """
    workload = WORKLOADS[name]
    block = environment(warn=not in_set)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}.", dir=OUT_DIR)
    spans = Spans(name)
    runner = _RUNNERS[workload.mode](name, workload, seed, spans, workdir)
    try:
        total, index = 0.0, 0
        setup_stolen: Dict[int, float] = {}
        while index < MIN_SETUPS or total < SETUP_BUDGET_S:
            index += 1
            spans.repeat = -index
            stolen, start = steal_s(), time.perf_counter()
            runner.setup_once(index)
            total += time.perf_counter() - start
            setup_stolen[-index] = steal_s() - stolen
        spans.repeat = None
        runner.warm_up()

        repeats: List[Repeat] = []
        started = time.perf_counter()
        while (len(repeats) < runner.min_repeats
               or (not trace and time.perf_counter() - started < seconds)):
            gc.collect()  # last repeat's cycles are not this repeat's cost
            spans.repeat = len(repeats)
            repeats.append(runner.repeat())
        spans.repeat = None

        problems = _check_repeats(name, seed, repeats)
        problems.extend(runner.cross_check(repeats[-1]))
        attempted = sum(repeat.attempted for repeat in repeats)
        failed = sum(repeat.failed for repeat in repeats)
        if problems:
            # A failed correctness check fails every repeat it was made on.
            failed = max(failed, len(repeats))
        as_measured: Dict[str, float] = {}
        if trace:
            values = _per_layer(runner, repeats, max(0.02, seconds / 60.0))
            runner.close()
            finish_environment(block)
            _write_trace(name, block, spans, values)
            metrics = as_entries(values, PER_LAYER)
        else:
            runner.close()  # reaps the server, so RUSAGE_CHILDREN sees its peak
            metrics = as_entries(_end_to_end(runner, repeats, setup_stolen), END_TO_END)
            as_measured = _as_measured(runner, repeats)
            finish_environment(block)
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return {"environment": block, "problems": problems, "repeats": len(repeats),
            "as_measured": as_measured,
            "correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}
