"""The uniform Application registry backing the scenario layer.

Every workload in the repository — the paper's application case studies in
:mod:`repro.apps` *and* the raw TCP/UDP transport endpoints — is wrapped in
an :class:`Application` subclass with one common signature:

* constructed by the builder from a validated :class:`~repro.scenario.spec.AppSpec`
  (host and peer already resolved to :class:`~repro.netsim.node.Host`
  objects, params normalized against the declared :attr:`Application.PARAMS`
  schema — a table of :class:`~repro.scenario.spec.Param`, walked by the
  same :func:`~repro.scenario.spec.check_mapping` that checks workload
  params and the spec blocks' own fields);
* :meth:`Application.start` begins the workload (the simulator has not run
  yet when it is called);
* :meth:`Application.done` optionally reports completion for
  ``stop.when_apps_done`` early exit;
* :meth:`Application.stop` tears the workload down after the horizon;
* :meth:`Application.metrics` returns a flat JSON-able measurement dict for
  the :class:`~repro.scenario.runner.ScenarioResult`.

Registering a new workload is one subclass plus a
:func:`register_application` decorator — the spec validator, builder, CLI
``--list`` output and result schema all pick it up from here.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Type

from ..apps.alfapp import TCP_VARIANTS, TCPApiTestApp, UDP_VARIANTS, UDPApiTestApp
from ..apps.bulk import BulkTransferApp
from ..apps.layered import LayeredStreamingServer
from ..apps.vat import AudioBuffer, VatApplication
from ..apps.webserver import FileServer, WebClient
from ..core.libcm import LibCM
from ..netsim.node import Host
from ..netsim.packet import DEFAULT_MSS
from ..transport.tcp import CMTCPSender, RenoTCPSender, TCPListener
from ..transport.udp.feedback import AckReflector
from .spec import AppSpec, Param, SpecError, check_mapping

__all__ = [
    "Application",
    "register_application",
    "get_application",
    "known_applications",
    "validate_params",
    "describe_params",
    "describe_applications",
]


def validate_params(app_name: str, params: Dict[str, Any], path: str = "params") -> Dict[str, Any]:
    """Validate ``params`` against the app's schema; return defaults-applied dict."""
    return check_mapping(get_application(app_name).PARAMS, params, path,
                         f"application {app_name!r}")


class Application:
    """Base class every registered scenario workload implements."""

    #: Registry name (set by subclasses, used in :class:`AppSpec.app`).
    name: ClassVar[str] = ""
    #: One-line description shown by ``python -m repro.scenario list``.
    description: ClassVar[str] = ""
    #: Typed parameter schema validated before build.
    PARAMS: ClassVar[Dict[str, Param]] = {}
    #: Whether :class:`AppSpec.peer` must name a remote host.
    needs_peer: ClassVar[bool] = False
    #: Whether the host must have a Congestion Manager attached.
    needs_cm: ClassVar[bool] = False
    #: Whether the constructor reaches *into* the live peer object (installs a
    #: listener on it, reads its CM, ...) rather than only using ``peer.addr``.
    #: The sharded engine keeps such host/peer pairs in the same shard; apps
    #: that only address the peer can talk to it across a shard boundary.
    colocate_peer: ClassVar[bool] = False
    #: Position in ``spec.apps``, assigned by the builder to declared apps:
    #: the key result entries are ordered (and sharded slices merged) by.
    index: Optional[int] = None

    def __init__(self, host: Host, peer: Optional[Host], spec: AppSpec, params: Dict[str, Any]):
        if self.needs_cm and host.cm is None:
            raise SpecError(
                f"apps[{spec.label or spec.app}]",
                f"application {self.name!r} requires a Congestion Manager on host "
                f"{spec.host!r}; set cm=true on the host spec (or cm_senders for a dumbbell)",
            )
        self.host = host
        self.peer = peer
        self.spec = spec
        self.params = params
        self.sim = host.sim
        self.label = spec.label or spec.app

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Begin the workload (called before the simulator runs)."""

    def done(self) -> Optional[bool]:
        """Completion state for early exit; ``None`` when not applicable."""
        return None

    def stop(self) -> None:
        """Tear the workload down after the horizon."""

    def detach(self) -> None:
        """Release every resource this instance holds (runtime detach).

        Workload generators call this when churning an application out of a
        *running* scenario.  The default is :meth:`stop`; applications whose
        ``stop`` deliberately leaves a socket or CM flow open (because the
        run is over anyway) override this to close it as well.
        """
        self.stop()

    def metrics(self) -> Dict[str, Any]:
        """Flat, JSON-able measurements for the scenario result."""
        return {}

    # ------------------------------------------------------------- telemetry
    def attach_telemetry(self, hub) -> None:
        """Bind this workload's probe slots to a telemetry hub (no-op by
        default; instrumented workloads override)."""

    def telemetry_sample(self) -> Optional[Dict[str, float]]:
        """Numeric state for the periodic ``apps`` sampler, or ``None``.

        Returning a dict opts the application into per-tick sampling; the
        keys become ``app.<label>.<key>`` series in the scenario result.
        Implementations must be pure reads — sampling may never perturb the
        workload.
        """
        return None


APPLICATIONS: Dict[str, Type[Application]] = {}


def register_application(cls: Type[Application]) -> Type[Application]:
    """Class decorator adding an Application to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a registry name")
    APPLICATIONS[cls.name] = cls
    return cls


def get_application(name: str) -> Type[Application]:
    """Look up an application class; raises KeyError for unknown names."""
    if name not in APPLICATIONS:
        raise KeyError(f"unknown application {name!r}; registered: {', '.join(known_applications())}")
    return APPLICATIONS[name]


def known_applications() -> List[str]:
    """Sorted registry names."""
    return sorted(APPLICATIONS)


def describe_params(table: Dict[str, Param]) -> List[str]:
    """One summary line per parameter of a ``PARAMS`` table (CLI listings)."""
    lines = []
    for name, param in sorted(table.items()):
        bits = [param.type.__name__,
                "required" if param.required else f"default={param.default!r}"]
        if param.choices:
            bits.append(f"one of {'/'.join(map(str, param.choices))}")
        lines.append(f"{name} ({', '.join(bits)})" + (f": {param.help}" if param.help else ""))
    return lines


def describe_applications() -> List[Tuple[str, str, List[str]]]:
    """(name, description, parameter summaries) rows for the CLI listing."""
    return [(name, APPLICATIONS[name].description, describe_params(APPLICATIONS[name].PARAMS))
            for name in known_applications()]


# ====================================================================== #
# Transport endpoints                                                    #
# ====================================================================== #
@register_application
class TcpListenerApp(Application):
    """Passive TCP receiver on one port."""

    name = "tcp_listener"
    description = "Passive TCP endpoint accepting connections on a port"
    PARAMS = {
        "port": Param(int, required=True, help="listening port"),
        "delayed_acks": Param(bool, default=True, help="RFC1122 delayed acknowledgements"),
    }

    def __init__(self, host: Host, peer: Optional[Host], spec: AppSpec, params: Dict[str, Any]):
        super().__init__(host, peer, spec, params)
        self.listener = TCPListener(host, params["port"], delayed_acks=params["delayed_acks"])

    def stop(self) -> None:
        self.listener.close()

    def metrics(self) -> Dict[str, Any]:
        return {
            "port": self.params["port"],
            "bytes_received": self.listener.total_bytes_received,
            "connections": len(self.listener.connections),
        }


@register_application
class TcpSenderApp(Application):
    """One TCP transfer (TCP/CM or the native Reno baseline) to the peer."""

    name = "tcp_sender"
    description = "Bulk TCP transfer to the peer host (variants: cm, reno)"
    needs_peer = True
    PARAMS = {
        "variant": Param(str, default="cm", choices=("cm", "reno"),
                         help="cm = TCP/CM (requires a CM on the host), reno = TCP/Linux"),
        "port": Param(int, required=True, help="destination port (a tcp_listener must be there)"),
        "transfer_bytes": Param(int, required=True, help="bytes to deliver"),
        "receive_window": Param(int, default=1 << 20, help="peer's advertised window"),
        "mss": Param(int, default=DEFAULT_MSS, help="maximum segment size"),
        "ecn": Param(bool, default=False, help="mark data segments ECN-capable"),
        "start_at": Param(float, default=0.0, help="simulated time the transfer starts"),
    }

    def __init__(self, host: Host, peer: Optional[Host], spec: AppSpec, params: Dict[str, Any]):
        if params["variant"] == "cm":
            self.needs_cm = True
        super().__init__(host, peer, spec, params)
        sender_cls = CMTCPSender if params["variant"] == "cm" else RenoTCPSender
        assert peer is not None
        self.sender = sender_cls(
            host, peer.addr, params["port"],
            mss=params["mss"], receive_window=params["receive_window"], ecn=params["ecn"],
        )

    def start(self) -> None:
        if self.params["start_at"] > 0.0:
            self.sim.schedule(self.params["start_at"], self.sender.send, self.params["transfer_bytes"])
        else:
            self.sender.send(self.params["transfer_bytes"])

    def done(self) -> Optional[bool]:
        return self.sender.done

    def stop(self) -> None:
        self.sender.close()

    def attach_telemetry(self, hub) -> None:
        self.sender.attach_telemetry(hub)

    def telemetry_sample(self) -> Dict[str, float]:
        return {
            "bytes_acked": float(self.sender.bytes_acked),
            "goodput_Bps": self.sender.throughput(),
        }

    def metrics(self) -> Dict[str, Any]:
        sender = self.sender
        duration = None
        if sender.done and sender.complete_time is not None and sender.connect_time is not None:
            duration = sender.complete_time - sender.connect_time
        return {
            "variant": self.params["variant"],
            "bytes_acked": sender.bytes_acked,
            "throughput_Bps": sender.throughput(),
            "done": sender.done,
            "duration_s": duration,
            "retransmissions": sender.retransmissions,
            "timeouts": sender.timeouts,
        }


@register_application
class AckReflectorApp(Application):
    """UDP receiver echoing application-level acknowledgements."""

    name = "ack_reflector"
    description = "UDP receiver acknowledging datagrams (optionally batched)"
    PARAMS = {
        "port": Param(int, required=True, help="listening port"),
        "ack_every_packets": Param(int, default=1, help="acknowledge every N datagrams"),
        "ack_delay": Param(float, default=None, nullable=True,
                           help="max seconds feedback may be withheld (null = immediate)"),
    }

    def __init__(self, host: Host, peer: Optional[Host], spec: AppSpec, params: Dict[str, Any]):
        super().__init__(host, peer, spec, params)
        self.reflector = AckReflector(
            host, port=params["port"],
            ack_every_packets=params["ack_every_packets"], ack_delay=params["ack_delay"],
        )

    def stop(self) -> None:
        self.reflector.close()

    def metrics(self) -> Dict[str, Any]:
        return {
            "port": self.params["port"],
            "packets_received": self.reflector.packets_received,
            "bytes_received": self.reflector.bytes_received,
            "acks_sent": self.reflector.acks_sent,
        }


# ====================================================================== #
# Paper application case studies                                         #
# ====================================================================== #
@register_application
class BulkApp(Application):
    """ttcp-style bulk transfer (Figures 4/5 workload) to the peer host."""

    name = "bulk"
    description = "ttcp-style buffered transfer incl. its own listener on the peer"
    needs_peer = True
    colocate_peer = True  # installs its own listener on the live peer host
    PARAMS = {
        "variant": Param(str, default="cm", choices=("cm", "linux"),
                         help="cm = TCP/CM, linux = native Reno"),
        "nbuffers": Param(int, required=True, help="number of buffers to write"),
        "buffer_size": Param(int, default=1448, help="bytes per buffer"),
        "port": Param(int, default=5001, help="destination port"),
        "receive_window": Param(int, default=64 * 1024, help="receiver's advertised window"),
        "delayed_acks": Param(bool, default=True, help="delayed ACKs at the receiver"),
    }

    def __init__(self, host: Host, peer: Optional[Host], spec: AppSpec, params: Dict[str, Any]):
        if params["variant"] == "cm":
            self.needs_cm = True
        super().__init__(host, peer, spec, params)
        assert peer is not None
        self.app = BulkTransferApp(
            host, peer, variant=params["variant"], port=params["port"],
            buffer_size=params["buffer_size"], receive_window=params["receive_window"],
            delayed_acks=params["delayed_acks"],
        )

    def start(self) -> None:
        self.app.begin(self.sim, self.params["nbuffers"])

    def done(self) -> Optional[bool]:
        return self.app.sender.done

    def stop(self) -> None:
        # Measure the transfer before closing it: cm_close is teardown.
        self.result = self.app.collect(self.sim)
        self.app.close()

    def attach_telemetry(self, hub) -> None:
        self.app.sender.attach_telemetry(hub)

    def telemetry_sample(self) -> Dict[str, float]:
        return {"bytes_acked": float(self.app.sender.bytes_acked)}

    def metrics(self) -> Dict[str, Any]:
        return asdict(self.result)


@register_application
class WebServerApp(Application):
    """Web server opening a fresh TCP connection per request (Figure 7)."""

    name = "web_server"
    description = "File server answering requests over per-request TCP connections"
    PARAMS = {
        "port": Param(int, default=80, help="UDP request port"),
        "variant": Param(str, default="cm", choices=("cm", "linux"),
                         help="TCP sender variant used for responses"),
        "receive_window": Param(int, default=64 * 1024, help="client's advertised window"),
    }

    def __init__(self, host: Host, peer: Optional[Host], spec: AppSpec, params: Dict[str, Any]):
        if params["variant"] == "cm":
            self.needs_cm = True
        super().__init__(host, peer, spec, params)
        self.server = FileServer(host, port=params["port"], variant=params["variant"],
                                 receive_window=params["receive_window"])

    def stop(self) -> None:
        self.server.close()

    def metrics(self) -> Dict[str, Any]:
        return {"requests_served": self.server.requests_served}


@register_application
class WebClientApp(Application):
    """Client issuing a train of fixed-size fetches to a web_server peer."""

    name = "web_client"
    description = "Fetch train against a web_server on the peer host"
    needs_peer = True
    PARAMS = {
        "server_port": Param(int, default=80, help="the web_server's request port"),
        "n_requests": Param(int, default=5, help="number of sequential fetches"),
        "spacing": Param(float, default=0.5, help="seconds between request starts"),
        "size": Param(int, default=128 * 1024, help="bytes per fetch"),
    }

    def __init__(self, host: Host, peer: Optional[Host], spec: AppSpec, params: Dict[str, Any]):
        super().__init__(host, peer, spec, params)
        assert peer is not None
        self.client = WebClient(host, peer.addr, params["server_port"])

    def start(self) -> None:
        for index in range(self.params["n_requests"]):
            self.sim.schedule(index * self.params["spacing"], self.client.fetch, self.params["size"])

    def done(self) -> Optional[bool]:
        fetches = self.client.fetches
        return len(fetches) == self.params["n_requests"] and all(f.done for f in fetches)

    def stop(self) -> None:
        self.client.close()

    def telemetry_sample(self) -> Dict[str, float]:
        return {
            "requests_completed": float(sum(1 for f in self.client.fetches if f.done)),
        }

    def metrics(self) -> Dict[str, Any]:
        # Undone fetches report null, not NaN: NaN would make the result's
        # canonical JSON unparseable by strict parsers.
        durations_ms = [
            fetch.duration * 1000.0 if fetch.done else None for fetch in self.client.fetches
        ]
        completed = [fetch.duration for fetch in self.client.fetches if fetch.done]
        return {
            "requests_issued": len(self.client.fetches),
            "requests_completed": len(completed),
            "durations_ms": durations_ms,
            "mean_duration_ms": (sum(completed) / len(completed) * 1000.0) if completed else None,
        }


@register_application
class VatApp(Application):
    """vat-style CBR interactive audio made adaptive through the CM (§3.6)."""

    name = "vat"
    description = "Adaptive 64 kbit/s audio: policer + app buffer over CM-paced UDP"
    needs_peer = True
    needs_cm = True
    PARAMS = {
        "port": Param(int, default=9001, help="the peer's ack_reflector port"),
        "buffer_frames": Param(int, default=8, help="application buffer capacity in frames"),
        "drop_policy": Param(str, default=AudioBuffer.DROP_FROM_HEAD,
                             choices=(AudioBuffer.DROP_FROM_HEAD, AudioBuffer.DROP_TAIL),
                             help="application buffer drop policy"),
        "kernel_queue_frames": Param(int, default=4, help="CM-UDP socket queue depth"),
        "thresh_down": Param(float, default=1.25, help="rate-callback down factor"),
        "thresh_up": Param(float, default=1.25, help="rate-callback up factor"),
    }

    def __init__(self, host: Host, peer: Optional[Host], spec: AppSpec, params: Dict[str, Any]):
        super().__init__(host, peer, spec, params)
        assert peer is not None
        self.app = VatApplication(
            host, peer.addr, params["port"],
            buffer_frames=params["buffer_frames"], drop_policy=params["drop_policy"],
            kernel_queue_frames=params["kernel_queue_frames"],
            thresh_down=params["thresh_down"], thresh_up=params["thresh_up"],
        )

    def start(self) -> None:
        self.app.start()

    def stop(self) -> None:
        self.app.stop()

    def detach(self) -> None:
        # stop() keeps the CM-UDP socket open (harmless after the horizon);
        # a runtime detach must close it so the CM flow actually leaves the
        # macroflow — that churn is the point of the vat_onoff workload.
        self.stop()
        self.app.socket.close()

    def telemetry_sample(self) -> Dict[str, float]:
        return {
            "frames_sent": float(self.app.frames_sent),
            "frames_acked": float(self.app.frames_acked),
        }

    def metrics(self) -> Dict[str, Any]:
        app = self.app
        return {
            "frames_generated": app.frames_generated,
            "frames_sent": app.frames_sent,
            "frames_acked": app.frames_acked,
            "dropped_by_policer": app.frames_dropped_by_policer,
            "dropped_by_buffer": app.frames_dropped_by_buffer,
            "mean_delivery_delay_s": app.mean_delivery_delay(),
            "rate_updates": len(app.rate_updates),
        }


@register_application
class LayeredStreamingApp(Application):
    """Layered audio/video server (§3.4) with a selectable libcm event-loop mode."""

    name = "layered_streaming"
    description = "Adaptive layered media server (ALF or rate-callback API) via libcm"
    needs_peer = True
    needs_cm = True
    PARAMS = {
        "port": Param(int, default=9001, help="the peer's ack_reflector port"),
        "mode": Param(str, default="alf", choices=("alf", "rate"),
                      help="adaptation API: ALF request/callback or rate callback"),
        "libcm_mode": Param(str, default="select", choices=("select", "sigio", "poll"),
                            help="libcm event-loop integration"),
        "poll_interval": Param(float, default=0.01,
                               help="libcm.poll() period when libcm_mode=poll"),
        "thresh": Param(float, default=1.5, help="cm_thresh factors (both directions)"),
        "rate_bin": Param(float, default=0.5, help="transmission-rate series bin width"),
        "packet_payload": Param(int, default=1000, help="payload bytes per packet"),
    }

    def __init__(self, host: Host, peer: Optional[Host], spec: AppSpec, params: Dict[str, Any]):
        super().__init__(host, peer, spec, params)
        assert peer is not None
        self.libcm = LibCM(host, mode=params["libcm_mode"])
        self.server = LayeredStreamingServer(
            host, peer.addr, params["port"],
            mode=params["mode"], libcm=self.libcm,
            thresh_down=params["thresh"], thresh_up=params["thresh"],
            rate_bin=params["rate_bin"], packet_payload=params["packet_payload"],
        )
        self._poll_event = None

    def start(self) -> None:
        self.server.start()
        if self.params["libcm_mode"] == "poll":
            self._schedule_poll()

    def _schedule_poll(self) -> None:
        self._poll_event = self.sim.schedule(self.params["poll_interval"], self._poll_tick)

    def _poll_tick(self) -> None:
        self.libcm.poll()
        self._schedule_poll()

    def stop(self) -> None:
        if self._poll_event is not None and self._poll_event.pending:
            self._poll_event.cancel()
        self._poll_event = None
        self.server.stop()

    def attach_telemetry(self, hub) -> None:
        self.server.attach_telemetry(hub)

    def telemetry_sample(self) -> Dict[str, float]:
        return {
            "bytes_sent": float(self.server.bytes_sent),
            "layer": float(self.server.current_layer),
        }

    def metrics(self) -> Dict[str, Any]:
        from ..analysis import oscillation_count

        server = self.server
        tx_series = server.transmission_series()
        mean_tx = sum(v for _t, v in tx_series) / len(tx_series) if tx_series else 0.0
        return {
            "mode": self.params["mode"],
            "libcm_mode": self.params["libcm_mode"],
            "packets_sent": server.packets_sent,
            "bytes_sent": server.bytes_sent,
            "mean_transmission_rate_Bps": mean_tx,
            "layer_switches": oscillation_count(server.layers_sent()),
            "rate_reports": len(server.reported_rates),
            "libcm_stats": dict(self.libcm.stats),
        }


@register_application
class UdpApiApp(Application):
    """API-overhead UDP sender (Figure 6 / Table 1 variants)."""

    name = "udp_api"
    description = "ALF / ALF-noconnect / buffered CM-UDP test sender"
    needs_peer = True
    needs_cm = True
    PARAMS = {
        "port": Param(int, default=7001, help="the peer's ack_reflector port"),
        "variant": Param(str, default="alf", choices=UDP_VARIANTS, help="send path under test"),
        "packet_size": Param(int, default=1000, help="payload bytes per packet"),
        "npackets": Param(int, default=1000, help="packets to send"),
        "pipeline": Param(int, default=8, help="outstanding requests kept in flight"),
    }

    def __init__(self, host: Host, peer: Optional[Host], spec: AppSpec, params: Dict[str, Any]):
        super().__init__(host, peer, spec, params)
        assert peer is not None
        self.app = UDPApiTestApp(
            host, peer.addr, params["port"], variant=params["variant"],
            packet_size=params["packet_size"], npackets=params["npackets"],
            pipeline=params["pipeline"],
        )

    def start(self) -> None:
        self.app.start()

    def done(self) -> Optional[bool]:
        return self.app.done

    def stop(self) -> None:
        self.result = self.app.measure()

    def telemetry_sample(self) -> Dict[str, float]:
        return {"packets_acked": float(self.app.packets_acked)}

    def metrics(self) -> Dict[str, Any]:
        return {
            **asdict(self.result),
            "packets_acked": self.app.packets_acked,
            "libcm_stats": dict(self.app.libcm.stats),
        }


@register_application
class TcpApiApp(Application):
    """API-overhead TCP baseline sender (Figure 6 / Table 1 variants)."""

    name = "tcp_api"
    description = "Webserver-like TCP sender baseline for the API-overhead study"
    needs_peer = True
    colocate_peer = True  # auto-creates its listener on the live peer host
    PARAMS = {
        "variant": Param(str, default="tcp_cm", choices=TCP_VARIANTS, help="send path under test"),
        "packet_size": Param(int, default=1000, help="payload bytes per send call"),
        "npackets": Param(int, default=1000, help="buffers to write"),
        "port": Param(int, default=6001, help="destination port (listener auto-created on peer)"),
        "receive_window": Param(int, default=64 * 1024, help="peer's advertised window"),
    }

    def __init__(self, host: Host, peer: Optional[Host], spec: AppSpec, params: Dict[str, Any]):
        if params["variant"] != "tcp_linux":
            self.needs_cm = True
        super().__init__(host, peer, spec, params)
        assert peer is not None
        self.app = TCPApiTestApp(
            host, peer, variant=params["variant"], packet_size=params["packet_size"],
            npackets=params["npackets"], port=params["port"],
            receive_window=params["receive_window"],
        )

    def start(self) -> None:
        self.app.start()

    def done(self) -> Optional[bool]:
        return self.app.sender.done

    def stop(self) -> None:
        # Measure the transfer before closing it: cm_close is teardown.
        self.result = self.app.measure()
        self.app.close()

    def attach_telemetry(self, hub) -> None:
        self.app.sender.attach_telemetry(hub)

    def telemetry_sample(self) -> Dict[str, float]:
        return {"bytes_acked": float(self.app.sender.bytes_acked)}

    def metrics(self) -> Dict[str, Any]:
        sender = self.app.sender
        return {
            **asdict(self.result),
            "bytes_acked": sender.bytes_acked,
            "retransmissions": sender.retransmissions,
        }
