"""The bundled stochastic workload generators.

Each generator attaches and detaches registry applications while the
simulation runs, through the event engine — flows join macroflows that are
already congestion-controlled, leave them mid-run, and sometimes drain a
macroflow completely before new arrivals re-populate it.  All randomness
comes from the generator's private seeded RNG, so the full churn trajectory
(and therefore the scenario result) is byte-deterministic per
``(spec, seed)``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..scenario.spec import Param
from ..transport.udp.socket import UDPSocket
from .arrivals import ARRIVAL_PROCESSES, bounded_pareto, geometric, make_interarrival
from .base import Workload, register_workload

__all__ = ["TcpFlowChurn", "WebSessionChurn", "VatOnOffBurst", "UdpBlast"]

#: Shared arrival-process parameter declarations.  Every numeric knob
#: carries a range bound: a value that would hang the reap loop or crash a
#: distribution mid-run must fail at spec validation, not at arrival time.
_ARRIVAL_PARAMS = {
    "arrival": Param(str, default="poisson", choices=ARRIVAL_PROCESSES,
                     help="inter-arrival process"),
    "rate": Param(float, default=1.0, minimum=0.0, exclusive_minimum=True,
                  help="mean (baseline, for time-varying processes) arrivals per second"),
    "weibull_shape": Param(float, default=1.5, minimum=0.0, exclusive_minimum=True,
                           help="Weibull burstiness (<1 clusters arrivals) when arrival=weibull"),
    "flash_peak": Param(float, default=8.0, minimum=1.0,
                        help="peak-to-baseline rate ratio when arrival=flash_crowd"),
    "flash_at": Param(float, default=5.0, minimum=0.0,
                      help="simulated time the flash crowd peaks (arrival=flash_crowd)"),
    "flash_width": Param(float, default=2.0, minimum=0.0, exclusive_minimum=True,
                         help="Gaussian width of the surge in seconds (arrival=flash_crowd)"),
    "diurnal_period": Param(float, default=20.0, minimum=0.0, exclusive_minimum=True,
                            help="seconds per sinusoidal rate cycle when arrival=diurnal"),
    "diurnal_depth": Param(float, default=0.5, minimum=0.0, maximum=1.0, exclusive_maximum=True,
                           help="fractional rate swing in [0, 1) when arrival=diurnal"),
}


def _interarrival_from_params(workload: Workload):
    """Build a workload's gap sampler from the shared arrival params.

    The time-varying processes (flash_crowd, diurnal) need the simulation
    clock, which only the live workload has — so the sampler is assembled
    here rather than at spec-validation time.
    """
    params = workload.params
    return make_interarrival(
        workload.rng, params["arrival"], params["rate"], params["weibull_shape"],
        clock=lambda: workload.sim.now,
        flash_peak=params["flash_peak"], flash_at=params["flash_at"],
        flash_width=params["flash_width"],
        diurnal_period=params["diurnal_period"],
        diurnal_depth=params["diurnal_depth"],
    )


@register_workload
class TcpFlowChurn(Workload):
    """Stochastic TCP transfers to one destination: the elephant/mice mix.

    Every arrival attaches a ``tcp_listener`` on the peer and a
    ``tcp_sender`` on the host with a bounded-Pareto transfer size; a
    periodic reap tick detaches completed flows.  With ``variant="cm"``
    every churned flow joins the host's per-destination macroflow, so the
    macroflow's congestion state is continuously inherited by newcomers and
    survives the emptiest moments of the flow population.
    """

    name = "tcp_flows"
    description = "Poisson/Weibull arrivals of heavy-tailed TCP transfers to the peer"
    colocate_peer = True  # spawns a tcp_listener on the live peer per arrival
    PARAMS = {
        **_ARRIVAL_PARAMS,
        "variant": Param(str, default="cm", choices=("cm", "reno"),
                         help="cm = TCP/CM (requires a CM on the host), reno = TCP/Linux"),
        "min_bytes": Param(int, default=20_000, minimum=1, help="smallest transfer size"),
        "pareto_alpha": Param(float, default=1.5, minimum=0.0, exclusive_minimum=True,
                              help="size tail index (smaller = heavier)"),
        "max_bytes": Param(int, default=2_000_000, minimum=1, help="transfer size cap"),
        "max_active": Param(int, default=16, minimum=1,
                            help="concurrent flow cap; arrivals beyond it are counted as suppressed"),
        "port_base": Param(int, default=20_000, minimum=1,
                           help="first destination port (each flow takes the next one)"),
        "receive_window": Param(int, default=128 * 1024, minimum=1,
                                help="receiver's advertised window"),
        "reap_interval": Param(float, default=0.25, minimum=0.0, exclusive_minimum=True,
                               help="seconds between completed-flow detach sweeps"),
    }

    def __init__(self, scenario, spec, params, rng):
        if params["variant"] == "cm":
            self.needs_cm = True
        super().__init__(scenario, spec, params, rng)
        if params["max_bytes"] < params["min_bytes"]:
            # The builder reports ValueError as a path-qualified SpecError.
            raise ValueError(
                f"max_bytes ({params['max_bytes']}) must be >= min_bytes ({params['min_bytes']})")
        self._draw_gap = _interarrival_from_params(self)
        self._next_port = params["port_base"]
        self._active: List[tuple] = []  # (sender_app, listener_app, size)
        self.flows_started = 0
        self.flows_completed = 0
        self.flows_detached_active = 0
        self.flows_suppressed = 0
        self.bytes_offered = 0
        self.bytes_acked = 0

    # ------------------------------------------------------------- generation
    def _begin(self) -> None:
        self._schedule(self.params["reap_interval"], self._reap)
        self._next_arrival()

    def _next_arrival(self) -> None:
        gap = self._draw_gap()
        if self._arrival_allowed(self.sim.now + gap):
            self._schedule(gap, self._arrive)

    def _arrive(self) -> None:
        if len(self._active) >= self.params["max_active"]:
            self.flows_suppressed += 1
        else:
            self._spawn_flow()
        self._next_arrival()

    def _spawn_flow(self) -> None:
        params = self.params
        port = self._next_port
        self._next_port += 1
        size = bounded_pareto(self.rng, params["min_bytes"], params["pareto_alpha"],
                              params["max_bytes"])
        serial = self.flows_started
        listener = self.spawn_app(
            "tcp_listener", self.peer, None,
            {"port": port}, label=f"{self.label}.listener{serial}")
        sender = self.spawn_app(
            "tcp_sender", self.host, self.peer,
            {"variant": params["variant"], "port": port, "transfer_bytes": size,
             "receive_window": params["receive_window"]},
            label=f"{self.label}.flow{serial}")
        self._active.append((sender, listener, size))
        self.flows_started += 1
        self.bytes_offered += size

    # ----------------------------------------------------------------- reaping
    def _reap(self) -> None:
        survivors = []
        for entry in self._active:
            sender, listener, _size = entry
            if sender.done():
                self._finish_flow(entry, completed=True)
            else:
                survivors.append(entry)
        self._active = survivors
        self._schedule(self.params["reap_interval"], self._reap)

    def _finish_flow(self, entry: tuple, completed: bool) -> None:
        sender, listener, _size = entry
        self.bytes_acked += sender.sender.bytes_acked
        self.detach_app(sender)
        self.detach_app(listener)
        if completed:
            self.flows_completed += 1
        else:
            self.flows_detached_active += 1

    def _teardown(self) -> None:
        for entry in self._active:
            self._finish_flow(entry, completed=bool(entry[0].done()))
        self._active = []

    # ----------------------------------------------------------------- results
    def metrics(self) -> Dict[str, Any]:
        return {
            "flows_started": self.flows_started,
            "flows_completed": self.flows_completed,
            "flows_detached_active": self.flows_detached_active,
            "flows_suppressed": self.flows_suppressed,
            "bytes_offered": self.bytes_offered,
            "bytes_acked": self.bytes_acked,
        }


@register_workload
class WebSessionChurn(Workload):
    """Web-browsing sessions against a ``web_server`` on the peer host.

    Each session arrival attaches one ``web_client`` whose request train is
    drawn per session: a geometric number of fetches, an exponential think
    time between them and a bounded-Pareto response size.  Sessions detach
    when their last response arrives (or at teardown).  The peer must run a
    ``web_server`` application on ``server_port``.
    """

    name = "web_sessions"
    description = "Churning web sessions (geometric trains, Pareto sizes) via web_client"
    PARAMS = {
        **_ARRIVAL_PARAMS,
        "server_port": Param(int, default=80, minimum=1,
                             help="the peer web_server's request port"),
        "requests_mean": Param(float, default=4.0, minimum=1.0,
                               help="mean fetches per session (geometric)"),
        "think_mean": Param(float, default=0.5, minimum=0.0, exclusive_minimum=True,
                            help="mean think time between fetches"),
        "min_bytes": Param(int, default=8_192, minimum=1, help="smallest response size"),
        "pareto_alpha": Param(float, default=1.3, minimum=0.0, exclusive_minimum=True,
                              help="response-size tail index"),
        "max_bytes": Param(int, default=512 * 1024, minimum=1, help="response size cap"),
        "max_active": Param(int, default=32, minimum=1,
                            help="concurrent session cap; arrivals beyond it count as suppressed"),
        "reap_interval": Param(float, default=0.5, minimum=0.0, exclusive_minimum=True,
                               help="seconds between finished-session detach sweeps"),
    }

    def __init__(self, scenario, spec, params, rng):
        super().__init__(scenario, spec, params, rng)
        if params["max_bytes"] < params["min_bytes"]:
            raise ValueError(
                f"max_bytes ({params['max_bytes']}) must be >= min_bytes ({params['min_bytes']})")
        self._draw_gap = _interarrival_from_params(self)
        self._active: List[tuple] = []  # (client_app, size)
        self.sessions_started = 0
        self.sessions_completed = 0
        self.sessions_detached_active = 0
        self.sessions_suppressed = 0
        self.requests_issued = 0
        self.requests_completed = 0
        self.bytes_completed = 0

    def _begin(self) -> None:
        self._schedule(self.params["reap_interval"], self._reap)
        self._next_arrival()

    def _next_arrival(self) -> None:
        gap = self._draw_gap()
        if self._arrival_allowed(self.sim.now + gap):
            self._schedule(gap, self._arrive)

    def _arrive(self) -> None:
        if len(self._active) >= self.params["max_active"]:
            self.sessions_suppressed += 1
        else:
            self._spawn_session()
        self._next_arrival()

    def _spawn_session(self) -> None:
        params = self.params
        n_requests = geometric(self.rng, params["requests_mean"])
        think = max(0.05, self.rng.expovariate(1.0 / params["think_mean"]))
        size = bounded_pareto(self.rng, params["min_bytes"], params["pareto_alpha"],
                              params["max_bytes"])
        serial = self.sessions_started
        client = self.spawn_app(
            "web_client", self.host, self.peer,
            {"server_port": params["server_port"], "n_requests": n_requests,
             "spacing": think, "size": size},
            label=f"{self.label}.session{serial}")
        self._active.append((client, size))
        self.sessions_started += 1
        self.requests_issued += n_requests

    def _reap(self) -> None:
        survivors = []
        for entry in self._active:
            if entry[0].done():
                self._finish_session(entry, completed=True)
            else:
                survivors.append(entry)
        self._active = survivors
        self._schedule(self.params["reap_interval"], self._reap)

    def _finish_session(self, entry: tuple, completed: bool) -> None:
        client, size = entry
        done_fetches = len(client.client.completed_fetches())
        self.requests_completed += done_fetches
        self.bytes_completed += done_fetches * size
        self.detach_app(client)
        if completed:
            self.sessions_completed += 1
        else:
            self.sessions_detached_active += 1

    def _teardown(self) -> None:
        for entry in self._active:
            self._finish_session(entry, completed=bool(entry[0].done()))
        self._active = []

    def metrics(self) -> Dict[str, Any]:
        return {
            "sessions_started": self.sessions_started,
            "sessions_completed": self.sessions_completed,
            "sessions_detached_active": self.sessions_detached_active,
            "sessions_suppressed": self.sessions_suppressed,
            "requests_issued": self.requests_issued,
            "requests_completed": self.requests_completed,
            "bytes_completed": self.bytes_completed,
        }


@register_workload
class VatOnOffBurst(Workload):
    """On/off interactive audio: talk spurts attach vat, silences detach it.

    Every on-burst attaches a *fresh* ``vat`` instance — opening a new CM
    flow into the host's macroflow — and the following off-period detaches
    it, closing the flow.  This is the paper's §3.6 workload made bursty:
    the macroflow's congestion state has to survive audio silences and be
    re-inherited by the next spurt.  The peer must run an
    ``ack_reflector`` on ``port``.
    """

    name = "vat_onoff"
    description = "On/off vat audio bursts (fresh CM flow per talk spurt)"
    needs_cm = True
    PARAMS = {
        "port": Param(int, default=9001, minimum=1, help="the peer's ack_reflector port"),
        "mean_on": Param(float, default=2.0, minimum=0.0, exclusive_minimum=True,
                         help="mean talk-spurt length in seconds"),
        "mean_off": Param(float, default=1.0, minimum=0.0, exclusive_minimum=True,
                          help="mean silence length in seconds"),
        "buffer_frames": Param(int, default=8, minimum=1,
                               help="vat application buffer capacity"),
        "kernel_queue_frames": Param(int, default=4, minimum=1,
                                     help="CM-UDP socket queue depth"),
    }

    def __init__(self, scenario, spec, params, rng):
        super().__init__(scenario, spec, params, rng)
        self._current = None
        self.bursts = 0
        self.frames_generated = 0
        self.frames_sent = 0
        self.frames_acked = 0

    def _begin(self) -> None:
        self._burst_on()

    def _burst_on(self) -> None:
        if not self._arrival_allowed(self.sim.now):
            return
        params = self.params
        self._current = self.spawn_app(
            "vat", self.host, self.peer,
            {"port": params["port"], "buffer_frames": params["buffer_frames"],
             "kernel_queue_frames": params["kernel_queue_frames"]},
            label=f"{self.label}.burst{self.bursts}")
        self.bursts += 1
        on_for = max(0.1, self.rng.expovariate(1.0 / params["mean_on"]))
        self._schedule(on_for, self._burst_off)

    def _burst_off(self) -> None:
        self._detach_current()
        off_for = max(0.1, self.rng.expovariate(1.0 / self.params["mean_off"]))
        self._schedule(off_for, self._burst_on)

    def _detach_current(self) -> None:
        app = self._current
        if app is None:
            return
        self._current = None
        vat = app.app
        self.frames_generated += vat.frames_generated
        self.frames_sent += vat.frames_sent
        self.frames_acked += vat.frames_acked
        self.detach_app(app)

    def _teardown(self) -> None:
        self._detach_current()

    def metrics(self) -> Dict[str, Any]:
        return {
            "bursts": self.bursts,
            "frames_generated": self.frames_generated,
            "frames_sent": self.frames_sent,
            "frames_acked": self.frames_acked,
        }


@register_workload
class UdpBlast(Workload):
    """Unresponsive constant-bit-rate UDP: the hostile background stream.

    Fixed-size datagrams are fired from an *unconnected* socket at a
    constant bit rate, so the kernel's IP output hook cannot match them to
    any CM flow and the stream never reacts to loss or ECN marks — the
    classic non-congestion-controlled aggressor the paper's CM-governed
    flows have to share a bottleneck with.  A sink socket on the peer
    counts what survives the path, so the metrics expose both the offered
    load and the delivered share.
    """

    name = "udp_blast"
    description = "Unresponsive CBR UDP blast (no CM matching, no congestion response)"
    colocate_peer = True  # opens the sink socket on the live peer object
    PARAMS = {
        "rate_bps": Param(float, default=1_000_000.0, minimum=0.0, exclusive_minimum=True,
                          help="constant offered bit rate"),
        "packet_bytes": Param(int, default=1000, minimum=1,
                              help="datagram payload size"),
        "port": Param(int, default=9900, minimum=1,
                      help="sink port opened on the peer"),
    }

    def __init__(self, scenario, spec, params, rng):
        super().__init__(scenario, spec, params, rng)
        # Deliberately left unconnected: sendto() keeps cm_matchable False,
        # so even a host with a CM cannot regulate this stream.
        self._source = UDPSocket(self.host)
        self._sink = UDPSocket(self.peer, local_port=params["port"])
        self._gap = params["packet_bytes"] * 8.0 / params["rate_bps"]

    def _begin(self) -> None:
        self._blast()

    def _blast(self) -> None:
        self._source.sendto(self.params["packet_bytes"], self.peer.addr,
                            self.params["port"])
        if self._arrival_allowed(self.sim.now + self._gap):
            self._schedule(self._gap, self._blast)

    def _teardown(self) -> None:
        self._source.close()
        self._sink.close()

    def metrics(self) -> Dict[str, Any]:
        return {
            "packets_sent": self._source.packets_sent,
            "bytes_sent": self._source.bytes_sent,
            "packets_delivered": self._sink.packets_received,
            "bytes_delivered": self._sink.bytes_received,
        }
