"""Isolated drivers: tight loops over one layer's public calls, in µs per operation.

Each driver is a function ``op(n) -> seconds`` that performs ``n`` operations
and times only them (its own construction is outside the clock).  ``measure``
sizes ``n`` so that five batches fill the driver's time budget and reports
the median batch.  Unlike the cProfile shares these carry no profiler bias;
unlike the end-to-end metrics they see one layer with a warm cache and no
neighbours, so they bound what a layer *can* cost, not what it does cost in a
workload.
"""

from __future__ import annotations

import http.client
import random
import time
from typing import Callable, Dict

from repro.core.constants import CM_NO_CONGESTION
from repro.core.libcm import LibCM
from repro.core.manager import CongestionManager
from repro.hostmodel import HostCosts
from repro.netsim import Host, Simulator
from repro.netsim.engine import Timer
from repro.netsim.link import GilbertElliottLoss, Link, RedQueue
from repro.netsim.node import Router
from repro.netsim.packet import PROTO_UDP, Packet, PacketPool
from repro.results.store import ResultStore
from repro.scenario import ScenarioSpec, build
from repro.telemetry.probes import TelemetryHub
from repro.transport.tcp.segments import data_segment
from repro.workloads.arrivals import bounded_pareto, make_interarrival

from .metrics import ISOLATED, median
from .service import Server
from .workloads import WORKLOADS

__all__ = ["measure", "run_all", "DRIVERS"]

BATCHES = 5


def measure(op: Callable[[int], float], budget_s: float) -> float:
    """Median µs per operation over ``BATCHES`` batches filling ``budget_s``."""
    n, elapsed = 1, op(1)
    while elapsed < budget_s / (4 * BATCHES) and n < 1 << 24:
        n *= 4
        elapsed = op(n)
    n = max(1, int(n * budget_s / BATCHES / max(elapsed, 1e-9)))
    return median([op(n) / n for _ in range(BATCHES)]) * 1e6


def _noop(*_args) -> None:
    return None


def _timed(fn: Callable[[], None]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ------------------------------------------------------------------ netsim
def engine_schedule_dispatch(n: int) -> float:
    """128 self-rescheduling chains; every fourth dispatch also cancels a decoy."""
    sim = Simulator()
    schedule = sim.schedule
    count = [0]

    def chain() -> None:
        count[0] += 1
        if count[0] <= n:
            schedule(1e-4, chain)
            if not count[0] & 3:
                schedule(5e-4, _noop).cancel()

    for i in range(min(128, n)):
        schedule(i * 1e-6, chain)
    return _timed(sim.run)


def engine_timer_restart(n: int) -> float:
    """One RTO-style timer pushed later on every simulated ACK."""
    sim = Simulator()
    timer = Timer(sim, _noop)
    for i in range(n):
        sim.at(i * 1e-4, timer.restart, 0.05)
    elapsed = _timed(sim.run)
    timer.cancel()
    return elapsed


def _offer_packets(link: Link, sim: Simulator, n: int, gap: float) -> float:
    offered = [0]

    def offer() -> None:
        if offered[0] < n:
            offered[0] += 1
            link.send(Packet(src="a", dst="b", sport=1, dport=2,
                             protocol=PROTO_UDP, payload_bytes=1000))
            sim.schedule(gap, offer)

    offer()
    return _timed(sim.run)


def link_send_deliver(n: int) -> float:
    """Packets offered at a drop-tail link's drain rate: send, serialise, deliver."""
    sim = Simulator()
    link = Link(sim, rate_bps=8e6, delay=0.001, queue_limit=100, seed=7)
    link.attach(_noop)
    return _offer_packets(link, sim, n, gap=0.0011)


def link_red_admit(n: int) -> float:
    """``RedQueue.should_gate`` with the occupancy sweeping the threshold band."""
    red = RedQueue(min_th=5, max_th=50, max_p=0.1)
    rng = random.Random(7)
    gate = red.should_gate
    start = time.perf_counter()
    for i in range(n):
        gate(rng, 5 + i % 40, i * 1e-3, 8e6)
    return time.perf_counter() - start


def link_ge_admit(n: int) -> float:
    """``GilbertElliottLoss.should_drop`` per arrival."""
    model = GilbertElliottLoss(p_good_bad=0.02, p_bad_good=0.25)
    rng = random.Random(7)
    drop = model.should_drop
    start = time.perf_counter()
    for _ in range(n):
        drop(rng)
    return time.perf_counter() - start


def packet_acquire_release(n: int) -> float:
    """Build one pooled TCP data segment and release it."""
    pool = PacketPool()
    release = pool.release
    start = time.perf_counter()
    for index in range(n):
        release(data_segment("10.0.0.1", "10.0.0.2", 10_000, 80, index * 1448, 1448,
                             index * 1e-4, pool=pool))
    return time.perf_counter() - start


def ip_forward(n: int) -> float:
    """Router input for a transit packet: route lookup and hand-off to the link."""
    sim = Simulator()
    router = Router(sim, "r")
    link = Link(sim, rate_bps=1e12, delay=0.0, queue_limit=None, seed=7)
    link.attach(_noop)
    router.add_route("10.0.0.2", link)
    receive = router.ip.receive
    packets = [Packet(src="10.0.0.1", dst="10.0.0.2", sport=1, dport=2,
                      protocol=PROTO_UDP, payload_bytes=1000) for _ in range(n)]
    start = time.perf_counter()
    for packet in packets:
        receive(packet)
    elapsed = time.perf_counter() - start
    sim.run()
    return elapsed


# --------------------------------------------------------------------- core
def _cm_host():
    sim = Simulator()
    host = Host(sim, "bench", "10.0.0.1", costs=HostCosts())
    cm = CongestionManager(host, feedback_watchdog=False)
    return sim, host, cm


def core_request_grant_update(n: int) -> float:
    """cm_request -> grant callback -> cm_notify -> cm_update, one MTU at a time."""
    sim, _host, cm = _cm_host()
    flow = cm.cm_open("10.0.0.1", "10.0.0.2", 10_000, 80, "tcp")
    mtu = cm.cm_mtu(flow)
    cm.cm_register_send(flow, lambda fid: cm.cm_notify(fid, mtu))
    start = time.perf_counter()
    for _ in range(n):
        cm.cm_request(flow)
        sim.run()
        cm.cm_update(flow, mtu, mtu, CM_NO_CONGESTION, 0.05)
    return time.perf_counter() - start


def core_open_close(n: int) -> float:
    """cm_open + cm_close of a flow joining a live macroflow."""
    _sim, _host, cm = _cm_host()
    cm.cm_open("10.0.0.1", "10.0.0.2", 9_999, 80, "tcp")  # keeps the macroflow alive
    start = time.perf_counter()
    for _ in range(n):
        cm.cm_close(cm.cm_open("10.0.0.1", "10.0.0.2", 10_000, 80, "tcp"))
    return time.perf_counter() - start


def core_query(n: int) -> float:
    _sim, _host, cm = _cm_host()
    flow = cm.cm_open("10.0.0.1", "10.0.0.2", 10_000, 80, "tcp")
    query = cm.cm_query
    start = time.perf_counter()
    for _ in range(n):
        query(flow)
    return time.perf_counter() - start


def libcm_request_dispatch(n: int) -> float:
    """libcm cm_request -> control-socket wakeup -> select -> ioctl -> send callback."""
    sim, host, cm = _cm_host()
    libcm = LibCM(host, mode="select")
    flow = libcm.cm_open("10.0.0.1", "10.0.0.2", 10_000, 9001, "udp")
    mtu = libcm.cm_mtu(flow)
    libcm.cm_register_send(flow, lambda fid: libcm.cm_notify(fid, mtu))
    start = time.perf_counter()
    for _ in range(n):
        libcm.cm_request(flow)
        sim.run()
        cm.cm_update(flow, mtu, mtu, CM_NO_CONGESTION, 0.05)
    return time.perf_counter() - start


def hostmodel_charge(n: int) -> float:
    """One priced operation charged to the CPU ledger (the per-packet kernel_tx)."""
    costs = HostCosts()
    charge = costs.kernel_tx
    start = time.perf_counter()
    for _ in range(n):
        charge(1500)
    return time.perf_counter() - start


# ---------------------------------------------------------------- telemetry
def _probe_loop(probe, n: int) -> float:
    fields = {"link": "bench", "size": 1500}
    start = time.perf_counter()
    for i in range(n):
        if probe is not None:
            probe(i * 1e-3, fields)
    return time.perf_counter() - start


def probe_noop(n: int) -> float:
    """An instrumented site nobody subscribed to: the ``is not None`` guard."""
    return _probe_loop(TelemetryHub().probe("packet.deliver"), n)


def probe_emit(n: int) -> float:
    """The same site with one subscribed sink."""
    hub = TelemetryHub()
    hub.subscribe("packet.deliver", _noop)
    return _probe_loop(hub.probe("packet.deliver"), n)


# ----------------------------------------------------------------- scenario
def _cold_specs(name: str, n: int):
    specs = [WORKLOADS[name].spec(1.0) for _ in range(n)]
    for index, spec in enumerate(specs):
        spec.description += f" [isolated {time.perf_counter_ns()}.{index}]"
    return specs


def spec_validate(n: int) -> float:
    """Full validation walk of a spec the memo has not seen (4 apps, 2 hosts)."""
    specs = _cold_specs("service_jobs", n)
    start = time.perf_counter()
    for spec in specs:
        spec.validate()
    return time.perf_counter() - start


def spec_roundtrip(n: int) -> float:
    """``ScenarioSpec.from_dict(spec.to_dict())``."""
    spec = WORKLOADS["service_jobs"].spec(1.0)
    start = time.perf_counter()
    for _ in range(n):
        ScenarioSpec.from_dict(spec.to_dict())
    return time.perf_counter() - start


def _build_loop(name: str, n: int) -> float:
    spec = WORKLOADS[name].spec(1.0).validate()
    start = time.perf_counter()
    for _ in range(n):
        build(spec, seed=1)
    return time.perf_counter() - start


def build_pair(n: int) -> float:
    """``build`` of the two-host ``bulk_share`` spec (memoised validation)."""
    return _build_loop("bulk_share", n)


def build_graph(n: int) -> float:
    """``build`` of the 12-node ``graph_churn`` spec, routing included."""
    return _build_loop("graph_churn", n)


# ------------------------------------------------------- workloads, results
def arrivals_draw(n: int) -> float:
    """One Poisson inter-arrival gap plus one bounded-Pareto size."""
    rng = random.Random(7)
    gap = make_interarrival(rng, "poisson", 1.5)
    start = time.perf_counter()
    for _ in range(n):
        gap()
        bounded_pareto(rng, 15_000, 1.4, 400_000)
    return time.perf_counter() - start


_BENCH_ROWS = 9


def store_ingest_bench_row(n: int) -> float:
    """Rows of synthetic BENCH reports (9 rows each) into an in-memory store."""
    reports = -(-n // _BENCH_ROWS)
    payloads = [{
        "meta": {"label": f"BENCH_PR{index + 1}", "quick": False, "python": "3.11.7",
                 "implementation": "CPython", "platform": "bench", "timestamp": ""},
        "benchmarks": {
            f"bench_{row}": {"ops": 1000 + index, "wall_s": 0.5, "ops_per_sec": 2000.0 + index,
                             "baseline_wall_s": 1.0, "baseline_ops_per_sec": 1000.0,
                             "speedup": 2.0, "notes": "synthetic"}
            for row in range(_BENCH_ROWS)},
    } for index in range(reports)]
    with ResultStore(":memory:") as store:
        start = time.perf_counter()
        for payload in payloads:
            store.ingest_bench_report(payload)
        elapsed = time.perf_counter() - start
    return elapsed * n / (reports * _BENCH_ROWS)


DRIVERS: Dict[str, Callable[[int], float]] = {
    "netsim.engine.schedule_dispatch_us": engine_schedule_dispatch,
    "netsim.engine.timer_restart_us": engine_timer_restart,
    "netsim.link.send_deliver_us": link_send_deliver,
    "netsim.link.red_admit_us": link_red_admit,
    "netsim.link.ge_admit_us": link_ge_admit,
    "netsim.packet.acquire_release_us": packet_acquire_release,
    "iplayer.forward_us": ip_forward,
    "core.request_grant_update_us": core_request_grant_update,
    "core.open_close_us": core_open_close,
    "core.query_us": core_query,
    "core.libcm.request_dispatch_us": libcm_request_dispatch,
    "hostmodel.charge_us": hostmodel_charge,
    "telemetry.probe_noop_us": probe_noop,
    "telemetry.probe_emit_us": probe_emit,
    "scenario.spec.validate_us": spec_validate,
    "scenario.spec.roundtrip_us": spec_roundtrip,
    "scenario.builder.build_pair_us": build_pair,
    "scenario.builder.build_graph_us": build_graph,
    "workloads.arrivals.draw_us": arrivals_draw,
    "results.store.ingest_bench_row_us": store_ingest_bench_row,
}


# ------------------------------------------------------------------ service
def _service_drivers(workdir: str, budget_s: float) -> Dict[str, float]:
    """HTTP and mailbox round trips against a live server with one running job."""
    server = Server(workdir, "isolated")
    try:
        client = server.client

        def http_roundtrip(n: int) -> float:
            start = time.perf_counter()
            for _ in range(n):
                client.info()
            return time.perf_counter() - start

        def http_keepalive_roundtrip(n: int) -> float:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=60.0)
            try:
                conn.request("GET", "/")  # the stall starts with the second request
                conn.getresponse().read()
                start = time.perf_counter()
                for _ in range(n):
                    conn.request("GET", "/")
                    conn.getresponse().read()
                return time.perf_counter() - start
            finally:
                conn.close()

        # The HTTP round trips are measured against an idle server.
        values = {"service.http_roundtrip_us": measure(http_roundtrip, budget_s),
                  "service.http_keepalive_roundtrip_us": measure(http_keepalive_roundtrip, budget_s)}

        # A job that outlives the measurement: the mailbox is served from
        # inside a *running* job's event loop (the control tick).
        spec = WORKLOADS["service_jobs"].spec(1.0)
        spec.stop.until = 1e6
        job_id = client.submit(spec=spec.to_dict(), seed=1)["job"]["id"]
        while client.job(job_id)["state"] == "queued":
            time.sleep(0.002)

        def mailbox_roundtrip(n: int) -> float:
            start = time.perf_counter()
            for _ in range(n):
                client.macroflows(job_id, "server")
            return time.perf_counter() - start

        values["service.mailbox_roundtrip_us"] = measure(mailbox_roundtrip, budget_s)
        client.cancel(job_id)
        return values
    finally:
        server.stop()


def run_all(budget_s: float, workdir: str) -> Dict[str, float]:
    """Every isolated driver, ``budget_s`` seconds each."""
    values = {name: measure(op, budget_s) for name, op in DRIVERS.items()}
    values.update(_service_drivers(workdir, budget_s))
    missing = set(ISOLATED) - set(values)
    if missing:
        raise KeyError(f"isolated drivers not implemented: {sorted(missing)}")
    return values
