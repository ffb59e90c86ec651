"""The declarative scenario specification tree.

A :class:`ScenarioSpec` is a complete, validated, JSON-serialisable
description of one simulation: the hosts, the links between them (or a
dumbbell preset), which hosts run a Congestion Manager, the application
instances with their typed parameters, the stop condition and the metrics to
collect.  Every consumer of the construction layer — the experiment
harnesses, the ``python -m repro.scenario`` CLI, the tests and any future
multi-hop study — builds its testbed from one of these specs instead of
hand-wiring :class:`~repro.netsim.engine.Simulator` /
:class:`~repro.netsim.node.Host` / :class:`~repro.netsim.channel.Channel`
objects.

Design rules:

* **One field table** — every block declares each field once, as a
  :class:`Param` in its ``FIELDS`` table.  :class:`_Block` derives the
  dataclass constructor, the type/range checks, ``to_dict``, the strict
  ``from_dict`` and the ``seal()`` walk from it; application params,
  workload params and the per-kind ``loss``/``aqm`` mappings are checked by
  the same :func:`check_value` through :func:`check_mapping`.  Only what
  relates two fields or two blocks (endpoints name declared hosts, ``loss``
  excludes ``loss_rate``, ...) is hand-written, in ``check_relations``.
* **Eager validation** — :meth:`ScenarioSpec.validate` type-checks the whole
  tree before anything hashes, iterates or compares a field, then checks the
  relations, and raises :class:`SpecError` with a path-qualified message
  built only on failure.  The walk is cheap, so nothing memoizes it;
  :meth:`ScenarioSpec.seal` is the one fast path.
* **Strict JSON round-trip** — ``spec.to_dict()`` and
  ``ScenarioSpec.from_dict`` are inverses; ``from_dict`` rejects unknown
  keys, naming the offending key and listing the valid ones.
* **Seeds are external** — the spec carries a default ``seed``, but
  :func:`repro.scenario.builder.build` takes the run seed as an argument so
  one spec can drive a multi-seed sweep.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Iterator, List, Optional, Tuple

from ..telemetry.probes import EVENT_NAMES
from ..telemetry.samplers import SAMPLER_GROUPS

__all__ = [
    "SpecError",
    "Param",
    "check_value",
    "check_mapping",
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
    "EngineSpec",
    "ScenarioSpec",
    "LOSS_MODELS",
    "AQMS",
]

class SpecError(ValueError):
    """A scenario spec failed validation; the message says where and why."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def default_addr(index: int) -> str:
    """Address assigned to the ``index``-th host when ``addr`` is left empty.

    ``10.<index+1>.0.1`` reproduces the seed testbeds' sender/receiver
    addresses (``10.1.0.1`` / ``10.2.0.1``) for the common two-host case.
    The validator uses the same scheme as the builder so an explicit addr
    cannot silently collide with a generated one.
    """
    return f"10.{index + 1}.0.1"


# --------------------------------------------------------------- field table
@dataclass(frozen=True)
class Param:
    """One typed field declaration: a spec-block field, an application or
    workload parameter, or a key of a ``loss``/``aqm`` mapping.

    ``type`` is a Python type (an ``int`` is accepted where ``float`` is
    declared; a ``bool`` never passes for a number) or, in a spec block's
    ``FIELDS`` table, a nested block class; ``many`` makes the field a list
    of ``type``.  ``default`` is the value — or, for mutable ones, the
    zero-argument factory (``list``, ``dict``, a block class) — a missing
    field takes.  ``minimum``/``maximum`` bound numeric values (the
    ``exclusive_*`` flags make a bound strict) so values that would hang or
    crash a model mid-run fail eagerly at ``spec.validate()`` with a
    path-qualified message; every number must also be finite.
    ``noun`` names what ``choices`` enumerates in the error message.
    ``omit_if_absent`` drops a ``None``/empty value from ``to_dict`` so
    specs that predate the field render (and digest) unchanged.
    """

    type: Any
    default: Any = None
    required: bool = False
    help: str = ""
    choices: Optional[Tuple[Any, ...]] = None
    nullable: bool = False
    minimum: Optional[float] = None
    exclusive_minimum: bool = False
    maximum: Optional[float] = None
    exclusive_maximum: bool = False
    noun: str = "value"
    many: bool = False
    omit_if_absent: bool = False


_FLOAT_MAX = sys.float_info.max


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def check_value(param: Param, value: Any, path: str, name: str) -> Any:
    """Type, range and choice checks for one value; returns it, an ``int``
    widened to a declared ``float``.  ``path``/``name`` locate the value in
    the spec and are only joined (like every message) when a check fails."""
    if value is None:
        if param.nullable:
            return None
        raise SpecError(_join(path, name), "may not be null")
    kind = param.type
    cls = value.__class__
    if cls is not kind and not (kind is float and cls is int) and (
            cls is bool or not isinstance(value, kind)):
        expected = ("must be a boolean" if kind is bool else f"expected {kind.__name__}")
        raise SpecError(_join(path, name), f"{expected}, got {cls.__name__} ({value!r})"
                        + (f"; {param.help}" if param.help else ""))
    if kind is float or kind is int:
        # One comparison pair rejects nan, the infinities and ints too large
        # to widen: none of them can configure a link, a timer or a counter.
        if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise SpecError(_join(path, name), f"must be a finite number, got {value!r}")
        if kind is float and cls is int:
            value = float(value)
        low, high = param.minimum, param.maximum
        if low is not None and (value <= low if param.exclusive_minimum else value < low):
            raise SpecError(_join(path, name),
                            f"must be {'>' if param.exclusive_minimum else '>='} {low}, "
                            f"got {value!r}")
        if high is not None and (value >= high if param.exclusive_maximum else value > high):
            raise SpecError(_join(path, name),
                            f"must be {'<' if param.exclusive_maximum else '<='} {high}, "
                            f"got {value!r}")
    if param.choices is not None and value not in param.choices:
        raise SpecError(_join(path, name),
                        f"unknown {param.noun} {value!r}; must be one of "
                        f"{', '.join(map(repr, param.choices))}")
    return value


def _check_list(value: Any, path: str, name: str) -> None:
    if not isinstance(value, (list, tuple)):
        raise SpecError(_join(path, name),
                        f"expected a list, got {type(value).__name__} ({value!r})")


def _reject_unknown(table: Mapping[str, Param], data: Any, path: str,
                    owner: str, noun: str) -> None:
    if not isinstance(data, Mapping):
        raise SpecError(path, f"expected a mapping of {noun}s for {owner}, "
                              f"got {type(data).__name__} ({data!r})")
    if not data.keys() <= table.keys():
        unknown = sorted(repr(key) for key in data if key not in table)
        raise SpecError(path, f"unknown {noun}{'s' if len(unknown) > 1 else ''} "
                              f"{', '.join(unknown)} for {owner}; "
                              f"valid {noun}s: {', '.join(sorted(table)) or '(none)'}")


def check_mapping(table: Mapping[str, Param], data: Any, path: str, owner: str,
                  noun: str = "parameter") -> Dict[str, Any]:
    """Validate a mapping against a :class:`Param` table; return the
    defaults-applied copy.  The one walk behind application params, workload
    params and the ``loss``/``aqm`` blocks: unknown and missing keys, then
    :func:`check_value` per entry.  ``owner`` (``"application 'vat'"``) and
    ``noun`` only word the messages."""
    _reject_unknown(table, data, path, owner, noun)
    normalized: Dict[str, Any] = {}
    for name, param in table.items():
        if name in data:
            normalized[name] = check_value(param, data[name], path, name)
        elif param.required:
            raise SpecError(_join(path, name), "is required" if noun == "key" else
                            f"required {noun} for {owner} ({param.help or param.type.__name__})")
        else:
            normalized[name] = param.default
    return normalized


# --------------------------------------------------------------- block base
def _plain(value: Any) -> Any:
    """JSON rendering of one field value (fresh containers all the way down)."""
    if isinstance(value, _Block):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    return value


class _Block:
    """Everything a spec block derives from its ``FIELDS`` table."""

    #: name -> declaration, in constructor, ``to_dict`` and check order.
    FIELDS: ClassVar[Dict[str, Param]] = {}
    #: ``FIELDS`` split by :func:`_spec_block`: single values, lists of
    #: values, and nested blocks (one or a list of them).
    _SCALAR_FIELDS: ClassVar[Tuple[Tuple[str, Param], ...]] = ()
    _LIST_FIELDS: ClassVar[Tuple[Tuple[str, Param], ...]] = ()
    _CHILD_FIELDS: ClassVar[Tuple[Tuple[str, Param], ...]] = ()
    #: True on the frozen variants :meth:`ScenarioSpec.seal` swaps blocks to.
    _is_sealed: ClassVar[bool] = False

    def __post_init__(self) -> None:
        # JSON lists of scalars become tuples (``rate_schedule``: of tuples);
        # anything else is kept for check_fields to report with its path.
        for name, _param in self._LIST_FIELDS:
            value = getattr(self, name)
            if isinstance(value, (list, tuple)):
                setattr(self, name, tuple(
                    tuple(item) if isinstance(item, list) else item for item in value))

    def check_fields(self, path: str) -> None:
        """Check every declared field of this block and the blocks below it
        (a required string must also be non-empty).  A field still holding
        its declared default object is valid by construction: skipped."""
        for name, param in self._SCALAR_FIELDS:
            value = getattr(self, name)
            if value is param.default and not param.required:
                continue
            if check_value(param, value, path, name) == "" and param.required:
                raise SpecError(_join(path, name), "must be a non-empty string")
        for name, param in self._LIST_FIELDS:
            value = getattr(self, name)
            _check_list(value, path, name)
            for index, item in enumerate(value):
                check_value(param, item, path, f"{name}[{index}]")
        for name, param in self._CHILD_FIELDS:
            value = getattr(self, name)
            if param.many:
                _check_list(value, path, name)
                prefix = _join(path, name)
                for index, child in enumerate(value):
                    _check_block(param, child, f"{prefix}[{index}]")
            elif value is not None:
                _check_block(param, value, _join(path, name))
            elif not param.nullable:
                raise SpecError(_join(path, name), "may not be null")

    def blocks(self) -> Iterator["_Block"]:
        """Every block nested below this one, children before parents."""
        for name, param in self._CHILD_FIELDS:
            value = getattr(self, name)
            for child in (value if param.many else () if value is None else (value,)):
                yield from child.blocks()
                yield child

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON rendering, keys in declaration order;
        ``from_dict(to_dict(spec)) == spec``."""
        payload: Dict[str, Any] = {}
        for name, param in self.FIELDS.items():
            value = getattr(self, name)
            if param.omit_if_absent and (value is None or (param.many and not value)):
                continue
            payload[name] = _plain(value)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], path: str = ""):
        """Strict inverse of :meth:`to_dict`: unknown keys, missing required
        ones and a non-list/non-mapping where blocks nest are :class:`SpecError`\\ s."""
        _reject_unknown(cls.FIELDS, data, path, cls.__name__, "key")
        kwargs = dict(data)
        for name, param in cls.FIELDS.items():
            if param.required and name not in kwargs:
                raise SpecError(_join(path, name), "is required")
        for name, _param in cls._LIST_FIELDS:
            if name in kwargs:
                _check_list(kwargs[name], path, name)
        for name, param in cls._CHILD_FIELDS:
            value = kwargs.get(name)
            if value is None:
                kwargs.pop(name, None)  # a null block is an absent one
            elif param.many:
                _check_list(value, path, name)
                prefix = _join(path, name)
                kwargs[name] = [param.type.from_dict(item, f"{prefix}[{index}]")
                                for index, item in enumerate(value)]
            else:
                kwargs[name] = param.type.from_dict(value, _join(path, name))
        return cls(**kwargs)


def _check_block(param: Param, value: Any, path: str) -> None:
    if not isinstance(value, param.type):
        raise SpecError(path, f"expected a {param.type.__name__}, got {type(value).__name__}")
    value.check_fields(path)


def _spec_block(cls):
    """Class decorator: build the dataclass a ``FIELDS`` table declares."""
    annotations: Dict[str, Any] = {}
    scalars, lists, children = [], [], []
    for name, param in cls.FIELDS.items():
        is_block = isinstance(param.type, type) and issubclass(param.type, _Block)
        (children if is_block else lists if param.many else scalars).append((name, param))
        kind = param.type
        if param.many:
            kind = List[kind] if is_block else Tuple[kind, ...]
        annotations[name] = Optional[kind] if param.nullable else kind
        if callable(param.default):
            setattr(cls, name, dataclasses.field(default_factory=param.default))
        elif not param.required:
            setattr(cls, name, param.default)
    cls.__annotations__ = annotations
    cls._SCALAR_FIELDS, cls._LIST_FIELDS, cls._CHILD_FIELDS = (
        tuple(scalars), tuple(lists), tuple(children))
    return dataclass(cls)


# -------------------------------------------------------------------- blocks
_HOST_FIELDS = {
    "name": Param(str, required=True),
    "addr": Param(str, default=""),
    "costs": Param(bool, default=True),
    "cm": Param(bool, default=False),
    # The names repro.scenario.builder maps to repro.core controller/scheduler classes.
    "cm_controller": Param(str, default="aimd_window", choices=("aimd_window", "aimd_rate"),
                           noun="controller"),
    "cm_scheduler": Param(str, default="round_robin", choices=("round_robin", "weighted"),
                          noun="scheduler"),
}


@_spec_block
class HostSpec(_Block):
    """One end system.

    ``addr`` defaults to ``10.<index+1>.0.1`` when left empty.  ``cm``
    attaches a :class:`~repro.core.manager.CongestionManager` (with the named
    controller/scheduler) after the topology is wired; experiments that need
    to control CM construction order themselves leave it ``False`` and attach
    one by hand.
    """

    FIELDS = _HOST_FIELDS
    #: Every explicit host is a host-kind node (cf. :class:`GraphNodeSpec`).
    kind = "host"


@_spec_block
class GraphNodeSpec(_Block):
    """One named node of a graph topology: an end system or a router.

    Hosts carry applications, CPU cost ledgers and (optionally) a Congestion
    Manager; routers only forward.  ``addr`` defaults to ``10.<i+1>.0.1``
    where ``i`` counts the *host* nodes declared before this one (routers
    default to ``router:<name>``, which never appears in a packet header).
    """

    FIELDS = {
        "name": _HOST_FIELDS["name"],
        "kind": Param(str, default="host", choices=("host", "router"), noun="node kind"),
        **_HOST_FIELDS,
    }


def _check_unique_nodes(nodes, path: str, what: str) -> int:
    """Names are unique, and so are the hosts' *effective* addresses (an
    explicit addr must not collide with another host's builder-generated
    default); returns the number of host-kind nodes."""
    seen_names: Dict[str, int] = {}
    seen_addrs: Dict[str, str] = {}
    for index, node in enumerate(nodes):
        if node.name in seen_names:
            raise SpecError(f"{path}[{index}]", f"duplicate {what} name {node.name!r} "
                                                f"(also {path}[{seen_names[node.name]}])")
        seen_names[node.name] = index
        if node.kind == "host":
            addr = node.addr or default_addr(len(seen_addrs))
            if addr in seen_addrs:
                raise SpecError(f"{path}[{index}].addr", f"duplicate address {addr!r} "
                                                         f"(also used by {seen_addrs[addr]!r})")
            seen_addrs[addr] = node.name
    return len(seen_addrs)


_TRANSITION = Param(float, required=True, minimum=0.0, exclusive_minimum=True, maximum=1.0)

#: Per-kind key tables of a link's ``loss`` block — the burst-loss models of
#: :mod:`repro.netsim.link` (ranges match ``GilbertElliottLoss.__init__``).
LOSS_MODELS: Dict[str, Dict[str, Param]] = {
    "gilbert_elliott": {
        "kind": Param(str, required=True),
        "p_good_bad": _TRANSITION,
        "p_bad_good": _TRANSITION,
        "loss_good": Param(float, default=0.0, minimum=0.0, maximum=1.0,
                           exclusive_maximum=True),
        "loss_bad": Param(float, default=1.0, minimum=0.0, maximum=1.0),
    },
}

#: Per-kind key tables of a link's ``aqm`` block — active queue management
#: (ranges match ``RedQueue.__init__``; ``max_th > min_th`` is a relation).
AQMS: Dict[str, Dict[str, Param]] = {
    "red": {
        "kind": Param(str, required=True),
        "min_th": Param(float, required=True, minimum=1),
        "max_th": Param(float, required=True),
        "max_p": Param(float, default=0.1, minimum=0.0, exclusive_minimum=True, maximum=1.0),
        "w_q": Param(float, default=0.002, minimum=0.0, exclusive_minimum=True, maximum=1.0),
        "mean_packet_bytes": Param(float, default=1000, minimum=1),
    },
}


def _check_model(tables: Mapping[str, Dict[str, Param]], noun: str,
                 block: Mapping[str, Any], path: str) -> Dict[str, Any]:
    """Validate a ``{"kind": ...}`` mapping against its kind's key table."""
    kind = block.get("kind")
    table = tables.get(kind) if isinstance(kind, str) else None
    if table is None:
        raise SpecError(f"{path}.kind",
                        f"unknown {noun} {kind!r}; choose from {', '.join(tables)}")
    return check_mapping(table, block, path, f"{noun} {kind!r}", noun="key")


#: Bernoulli loss probability, as ``Link.__init__`` accepts it: ``[0, 1)``.
_LOSS_RATE = Param(float, default=0.0, minimum=0.0, maximum=1.0, exclusive_maximum=True)

#: The fields :class:`LinkSpec` and :class:`GraphLinkSpec` share ...
_LINK_FIELDS = {
    "a": Param(str, required=True),
    "b": Param(str, required=True),
    "rate_bps": Param(float, required=True, minimum=1.0),
    "delay": Param(float, required=True, minimum=0.0),
    "queue_limit": Param(int, default=100, nullable=True, minimum=1),
    "loss_rate": _LOSS_RATE,
    "reverse_loss_rate": dataclasses.replace(_LOSS_RATE, default=None, nullable=True),
    "ecn_threshold": Param(int, nullable=True, minimum=1),
    "seed_offset": Param(int, default=0),
}
#: ... and the optional model blocks both end with.
_LINK_MODEL_FIELDS = {
    "loss": Param(dict, nullable=True, omit_if_absent=True),
    "aqm": Param(dict, nullable=True, omit_if_absent=True),
}
_SCHEDULE_TIME = Param(float, minimum=0.0)


class _LinkBlock(_Block):
    """The relations :class:`LinkSpec` and :class:`GraphLinkSpec` share."""

    def check_relations(self, path: str, names: Mapping[str, Any], what: str) -> None:
        """Endpoints are two different declared hosts (or nodes: ``what`` words
        the message); a model block is well-formed and excludes the knob it
        replaces."""
        for end, label in ((self.a, "a"), (self.b, "b")):
            if end not in names:
                raise SpecError(f"{path}.{label}", f"unknown {what} {end!r}; declared "
                                                   f"{what}s: {', '.join(names) or '(none)'}")
        if self.a == self.b:
            raise SpecError(path, f"link endpoints must differ, both are {self.a!r}")
        if self.loss is not None:
            _check_model(LOSS_MODELS, "loss model", self.loss, f"{path}.loss")
            if self.loss_rate != 0.0:
                raise SpecError(f"{path}.loss_rate", "must stay 0 when a loss model is "
                                "configured (the model replaces the Bernoulli draw)")
            if self.reverse_loss_rate is not None:
                raise SpecError(f"{path}.reverse_loss_rate", "must stay unset when a loss "
                                "model is configured (each direction gets its own instance)")
        if self.aqm is not None:
            aqm = _check_model(AQMS, "aqm", self.aqm, f"{path}.aqm")
            if aqm["max_th"] <= aqm["min_th"]:
                raise SpecError(f"{path}.aqm.max_th", f"must be > min_th "
                                f"({aqm['min_th']!r}), got {aqm['max_th']!r}")
            if self.ecn_threshold is not None:
                raise SpecError(f"{path}.ecn_threshold", "must stay unset when an aqm is "
                                "configured (the aqm owns marking)")


@_spec_block
class LinkSpec(_LinkBlock):
    """A bidirectional Dummynet-style channel between two named hosts.

    ``delay`` is the one-way propagation delay; ``loss_rate`` applies to the
    ``a -> b`` direction and ``reverse_loss_rate`` to ``b -> a`` (``None``
    means symmetric, matching :class:`~repro.netsim.channel.Channel`).
    ``seed_offset`` is added to the run seed for this link's random-loss RNG
    so multiple links in one scenario draw independent streams; leaving it
    at ``0`` auto-derives an offset from the link's position (``2 * index``,
    since each channel consumes two consecutive seeds), which keeps the
    first link byte-identical to the legacy single-link testbeds while
    making additional links independent by default.
    ``rate_schedule`` is a sequence of ``(time, rate_bps)`` steps applied by
    the runner while the scenario executes (Figures 8/9-style bandwidth
    changes).

    ``loss`` selects a stateful burst-loss model per direction (currently
    ``{"kind": "gilbert_elliott", "p_good_bad": ..., "p_bad_good": ...,
    "loss_good": 0.0, "loss_bad": 1.0}``); it replaces the Bernoulli
    ``loss_rate``, which must stay 0.  ``aqm`` selects active queue
    management (currently ``{"kind": "red", "min_th": ..., "max_th": ...,
    "max_p": 0.1, "w_q": 0.002, "mean_packet_bytes": 1000}``), which
    ECN-marks capable packets and drops the rest; it replaces the simple
    ``ecn_threshold``, which must stay unset.  Both reach the link as the
    raw mapping; the model constructors apply the defaults.
    """

    FIELDS = {
        **_LINK_FIELDS,
        "rate_schedule": Param(tuple, many=True, default=(),
                               help="each step is a (time, rate_bps) pair"),
        **_LINK_MODEL_FIELDS,
    }

    def check_relations(self, path: str, names: Mapping[str, Any], what: str) -> None:
        super().check_relations(path, names, what)
        last = -1.0
        for index, step in enumerate(self.rate_schedule):
            step_path = f"{path}.rate_schedule[{index}]"
            if len(step) != 2:
                raise SpecError(step_path, "each step must be a (time, rate_bps) pair")
            check_value(_SCHEDULE_TIME, step[0], step_path, "time")
            check_value(_LINK_FIELDS["rate_bps"], step[1], step_path, "rate_bps")
            if step[0] <= last:
                raise SpecError(step_path, "step times must be strictly increasing")
            last = step[0]


@_spec_block
class GraphLinkSpec(_LinkBlock):
    """A bidirectional link between two named graph nodes.

    Semantics match :class:`LinkSpec` (one :class:`~repro.netsim.link.Link`
    per direction, ``seed_offset`` staggering the loss RNGs, ``loss_rate``
    on the ``a -> b`` direction); there is no ``rate_schedule`` — graph
    scenarios change conditions through workload churn instead.  ``loss``
    and ``aqm`` select the burst-loss model / active queue management per
    direction exactly as on :class:`LinkSpec`.
    """

    FIELDS = {**_LINK_FIELDS, **_LINK_MODEL_FIELDS}


@_spec_block
class DumbbellSpec(_Block):
    """The classic shared-bottleneck topology, generated instead of listed.

    Builds ``n_pairs`` sender/receiver host pairs (named ``sender0`` /
    ``receiver0`` ...) around one constrained router-to-router link via
    :func:`repro.netsim.channel.build_dumbbell`.  ``cm_senders`` lists the
    sender indices that get a Congestion Manager attached after wiring.
    """

    FIELDS = {
        "n_pairs": Param(int, required=True, minimum=1),
        "bottleneck_bps": Param(float, required=True, minimum=1.0),
        "bottleneck_delay": Param(float, required=True, minimum=0.0),
        "access_bps": Param(float, default=1e9, minimum=1.0),
        "access_delay": Param(float, default=0.1e-3, minimum=0.0),
        "queue_limit": Param(int, default=64, minimum=1),
        "loss_rate": _LOSS_RATE,
        "ecn_threshold": Param(int, nullable=True, minimum=1),
        "with_costs": Param(bool, default=True),
        "cm_senders": Param(int, many=True, default=()),
    }

    def host_names(self) -> List[str]:
        """The generated host names, senders first (matching build order)."""
        names = [f"sender{i}" for i in range(self.n_pairs)]
        names += [f"receiver{i}" for i in range(self.n_pairs)]
        return names

    def check_relations(self, path: str) -> None:
        for index in self.cm_senders:
            if not 0 <= index < self.n_pairs:
                raise SpecError(f"{path}.cm_senders",
                                f"sender index {index} out of range 0..{self.n_pairs - 1}")


@_spec_block
class RerouteSpec(_Block):
    """A scheduled mid-run routing change on one graph link.

    At simulated ``time`` the link between ``a`` and ``b`` changes its
    one-way propagation delay (the routing cost) to ``delay`` in both
    directions; shortest-path next-hops are then recomputed over the whole
    graph and reinstalled into every node — the mobility-style handoff: a
    path that got slower sheds its traffic onto the now-shorter alternative
    mid-run.  ``a``/``b`` must name a declared link (either orientation).
    """

    FIELDS = {
        "time": Param(float, required=True, minimum=1e-9),
        "a": Param(str, required=True),
        "b": Param(str, required=True),
        "delay": Param(float, required=True, minimum=0.0),
    }


@_spec_block
class GraphSpec(_Block):
    """An arbitrary topology: named nodes joined by bidirectional links.

    Compiled by the builder through :func:`repro.netsim.graph.build_graph`:
    static shortest-path routes (delay metric, deterministic name-level
    tie-breaks) are installed into the hosts' and routers' routing tables,
    so parking-lot, star and multi-bottleneck mesh scenarios forward
    through the exact same :class:`~repro.iplayer.ip.IPLayer` machinery as
    the two-host testbeds.  Applications and workloads may only be placed
    on ``host`` nodes.
    """

    FIELDS = {
        "nodes": Param(GraphNodeSpec, many=True, default=list),
        "links": Param(GraphLinkSpec, many=True, default=list),
        "reroutes": Param(RerouteSpec, many=True, default=list, omit_if_absent=True),
    }

    def node_names(self) -> List[str]:
        """Every node name (hosts and routers), in declaration order."""
        return [node.name for node in self.nodes]

    def host_names(self) -> List[str]:
        """Host-kind node names in declaration order (valid app placements)."""
        return [node.name for node in self.nodes if node.kind == "host"]

    def routing(self) -> Dict[str, Dict[str, str]]:
        """The name-level next-hop tables the builder will install.

        Pure function of the link set — declaration-order independent (the
        property test layer permutes nodes/links and asserts equality).
        """
        from ..netsim.graph import shortest_path_next_hops

        edges: Dict[Tuple[str, str], float] = {}
        for link in self.links:
            edges[(link.a, link.b)] = link.delay
            edges[(link.b, link.a)] = link.delay
        return shortest_path_next_hops(edges)

    def check_relations(self, path: str) -> None:
        if not self.nodes:
            raise SpecError(f"{path}.nodes", "a graph needs at least one node")
        if not _check_unique_nodes(self.nodes, f"{path}.nodes", "node"):
            raise SpecError(f"{path}.nodes", "a graph needs at least one host node "
                                             "(routers cannot run applications)")
        for index, node in enumerate(self.nodes):
            if node.kind == "router" and node.cm:
                raise SpecError(f"{path}.nodes[{index}].cm", "routers cannot run a "
                                "Congestion Manager (the CM is an end-system module)")
        adjacency: Dict[str, List[str]] = {node.name: [] for node in self.nodes}
        seen_pairs: Dict[Tuple[str, str], int] = {}
        for index, link in enumerate(self.links):
            link.check_relations(f"{path}.links[{index}]", adjacency, "node")
            pair = (min(link.a, link.b), max(link.a, link.b))
            if pair in seen_pairs:
                raise SpecError(f"{path}.links[{index}]",
                                f"duplicate link between {link.a!r} and {link.b!r} "
                                f"(also {path}.links[{seen_pairs[pair]}]); parallel links "
                                "would make the static routing ambiguous")
            seen_pairs[pair] = index
            adjacency[link.a].append(link.b)
            adjacency[link.b].append(link.a)
        # Reject disconnected graphs eagerly: an unreachable destination
        # would otherwise surface mid-run as a NoRouteError on the first
        # send, far from the spec mistake that caused it.
        first = self.nodes[0].name
        reached = {first}
        frontier = [first]
        while frontier:
            for neighbour in adjacency[frontier.pop()]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        if len(reached) < len(adjacency):
            unreachable = [name for name in adjacency if name not in reached]
            raise SpecError(f"{path}.links", f"graph is disconnected: no path from {first!r} "
                                             f"to {', '.join(map(repr, unreachable))}")
        last_time = 0.0
        for index, reroute in enumerate(self.reroutes):
            if (min(reroute.a, reroute.b), max(reroute.a, reroute.b)) not in seen_pairs:
                raise SpecError(f"{path}.reroutes[{index}]",
                                f"no declared link between {reroute.a!r} and {reroute.b!r}; "
                                "reroutes change the cost of an existing link, they do not "
                                "create one")
            if reroute.time < last_time:
                raise SpecError(f"{path}.reroutes[{index}].time",
                                "reroute times must be non-decreasing (declaration order is "
                                "the tie-break for same-instant changes)")
            last_time = reroute.time


@functools.lru_cache(maxsize=None)
def _registries() -> Dict[str, Mapping[str, type]]:
    """The live name -> class registries, keyed by the field that names an
    entry; resolved on first use because both registries import this module."""
    from ..workloads import WORKLOADS
    from .applications import APPLICATIONS

    return {"app": APPLICATIONS, "kind": WORKLOADS}


class _PlacedBlock(_Block):
    """What :class:`AppSpec` and :class:`WorkloadSpec` share: a registry entry
    placed on a ``host`` (talking to an optional ``peer``) with typed ``params``."""

    #: The field naming the registry entry, and what the messages call one.
    _ENTRY_FIELD: ClassVar[str]
    _ENTRY_NOUN: ClassVar[str]

    def normalized_params(self) -> Dict[str, Any]:
        """The defaults-applied params of the last :meth:`validate` (which
        ``spec.validate()`` runs), reused by the builder."""
        cached = getattr(self, "_normalized_params", None)
        if cached is None:
            raise SpecError("params", f"{self._ENTRY_NOUN} {getattr(self, self._ENTRY_FIELD)!r} "
                                      "has not been validated yet")
        return cached

    def validate(self, path: str, host_names: Mapping[str, Any]) -> Dict[str, Any]:
        """The one placement check (static ``apps:``/``workloads:`` entries and
        the service's mid-run attach), for a block whose fields are already
        checked: the entry is registered, ``host`` and ``peer`` are declared
        and differ, a needed peer is given, and ``params`` fit the entry's
        schema.  Caches and returns the normalized (defaults-applied) params."""
        registry, noun = _registries()[self._ENTRY_FIELD], self._ENTRY_NOUN
        name = getattr(self, self._ENTRY_FIELD)
        entry = registry.get(name)
        if entry is None:
            raise SpecError(_join(path, self._ENTRY_FIELD),
                            f"unknown {noun} {name!r}; registered: {', '.join(sorted(registry))}")
        for role in ("host", "peer") if self.peer else ("host",):
            if getattr(self, role) not in host_names:
                raise SpecError(_join(path, role),
                                f"unknown host {getattr(self, role)!r}; declared hosts: "
                                f"{', '.join(host_names) or '(none)'}")
        if self.peer == self.host:
            raise SpecError(_join(path, "peer"), "peer must differ from host")
        if entry.needs_peer and not self.peer:
            raise SpecError(_join(path, "peer"), f"{noun} {name!r} needs a peer host")
        self._normalized_params = check_mapping(
            entry.PARAMS, self.params, _join(path, "params"), f"{noun} {name!r}")
        return self._normalized_params


@_spec_block
class WorkloadSpec(_PlacedBlock):
    """One stochastic traffic generator from the workload registry.

    Unlike an :class:`AppSpec` — one application wired at build time — a
    workload *churns*: driven by the event engine, it attaches application
    instances (flows, web sessions, audio bursts) at seeded random arrival
    times and detaches them again while the scenario runs.  ``params`` is
    validated against the generator's declared schema in
    :mod:`repro.workloads`.  ``start``/``stop`` bound the generator's active
    window in simulated seconds (``stop=None`` means the scenario horizon);
    ``seed_offset`` decorrelates multiple workloads under one run seed
    (``0`` auto-staggers by declaration order).
    """

    FIELDS = {
        "kind": Param(str, required=True),
        "host": Param(str, required=True),
        "peer": Param(str, default=""),
        "label": Param(str, default=""),
        "start": Param(float, default=0.0, minimum=0.0),
        "stop": Param(float, nullable=True, minimum=0.0),
        "seed_offset": Param(int, default=0),
        "params": Param(dict, default=dict),
    }
    _ENTRY_FIELD, _ENTRY_NOUN = "kind", "workload"

    def validate(self, path: str, host_names: Mapping[str, Any]) -> Dict[str, Any]:
        if self.stop is not None and self.stop <= self.start:
            raise SpecError(f"{path}.stop",
                            f"must be later than start ({self.start!r}), got {self.stop!r}")
        return super().validate(path, host_names)


@_spec_block
class AppSpec(_PlacedBlock):
    """One application instance from the registry.

    ``host`` is where the application runs; ``peer`` names the remote host
    for applications that address one (senders, clients).  ``params`` is
    validated against the application's declared parameter schema — unknown
    parameters, missing required ones and type mismatches are all eager
    :class:`SpecError`\\ s.  ``label`` distinguishes multiple instances of
    the same application in the result (defaults to ``app[index]``).
    """

    FIELDS = {
        "app": Param(str, required=True),
        "host": Param(str, required=True),
        "peer": Param(str, default=""),
        "label": Param(str, default=""),
        "params": Param(dict, default=dict),
    }
    _ENTRY_FIELD, _ENTRY_NOUN = "app", "application"


@_spec_block
class StopSpec(_Block):
    """When the runner stops the simulation.

    ``until`` is the hard horizon in simulated seconds.  With
    ``when_apps_done`` the runner additionally polls every
    ``check_interval`` simulated seconds and stops early once every
    application that reports a completion state is done.
    """

    FIELDS = {
        "until": Param(float, default=10.0, minimum=1e-9),
        "when_apps_done": Param(bool, default=False),
        "check_interval": Param(float, default=1.0, minimum=1e-9),
    }


@_spec_block
class TelemetrySpec(_Block):
    """What the unified telemetry layer records during the run.

    ``samplers`` selects the periodic state samplers (driven by the event
    engine every ``sample_interval`` simulated seconds):

    * ``macroflows`` — per-macroflow cwnd, CM rate estimate, loss EWMA and
      outstanding bytes;
    * ``schedulers`` — per-macroflow scheduler backlog (pending requests);
    * ``links`` — per-link queue depth;
    * ``apps`` — whatever each application reports via
      ``telemetry_sample()`` (goodput counters, current layer, ...).

    ``events`` lists event probes (from the
    :data:`repro.telemetry.probes.EVENTS` catalog) whose emissions are kept
    in a bounded event log — a ring of the newest ``ring_capacity`` records
    or, with ``event_recorder="reservoir"``, a seeded uniform sample of the
    whole run.  Every recorder is bounded: ``max_samples`` caps each sampled
    series, ``ring_capacity`` the event log.
    """

    FIELDS = {
        "sample_interval": Param(float, default=0.25, minimum=1e-9),
        "samplers": Param(str, many=True, default=("macroflows", "links", "apps"),
                          choices=SAMPLER_GROUPS, noun="sampler group"),
        "events": Param(str, many=True, default=(), choices=EVENT_NAMES,
                        noun="telemetry event"),
        "max_samples": Param(int, default=4096, minimum=1),
        "ring_capacity": Param(int, default=4096, minimum=1),
        "event_recorder": Param(str, default="ring", choices=("ring", "reservoir"),
                                noun="event recorder"),
    }


@_spec_block
class EngineSpec(_Block):
    """How the simulation executes — never *what* it simulates.

    ``shards`` > 1 partitions a graph scenario across that many worker
    processes (conservative-lookahead sync along cut links; see
    ``docs/parallel_engine.md``).  Because the engine block only selects an
    execution strategy, it is excluded from the result ``spec_digest``: the
    same scenario at any shard count digests — and must byte-compare —
    identically.
    """

    FIELDS = {"shards": Param(int, default=1, minimum=1)}


def _sealed_setattr(self, name: str, value: Any) -> None:
    raise SpecError(
        "", f"{type(self).__name__} is shared and sealed; build a fresh spec instead of mutating"
    )


@functools.lru_cache(maxsize=None)
def _sealed_variant(cls: type) -> type:
    """The frozen subclass :meth:`ScenarioSpec.seal` swaps a block to."""
    return type(f"Sealed{cls.__name__}", (cls,),
                {"__setattr__": _sealed_setattr, "_is_sealed": True})


@_spec_block
class ScenarioSpec(_Block):
    """The root of the declarative scenario tree.

    ``graph``, ``workloads``, ``telemetry`` and ``engine`` render in
    ``to_dict`` only when configured, so specs without them render (and
    digest) exactly as they did before the blocks existed.
    """

    FIELDS = {
        "name": Param(str, required=True),
        "description": Param(str, default=""),
        "hosts": Param(HostSpec, many=True, default=list),
        "links": Param(LinkSpec, many=True, default=list),
        "dumbbell": Param(DumbbellSpec, nullable=True),
        "apps": Param(AppSpec, many=True, default=list),
        "stop": Param(StopSpec, default=StopSpec),
        "metrics": Param(str, many=True, default=("apps",),
                         choices=("apps", "links", "hosts"), noun="metric group"),
        "seed": Param(int, default=0),
        "graph": Param(GraphSpec, nullable=True, omit_if_absent=True),
        "workloads": Param(WorkloadSpec, many=True, default=list, omit_if_absent=True),
        "telemetry": Param(TelemetrySpec, nullable=True, omit_if_absent=True),
        "engine": Param(EngineSpec, nullable=True, omit_if_absent=True),
    }

    def host_names(self) -> List[str]:
        """All host names the apps/links may reference, in build order."""
        if self.dumbbell is not None:
            return self.dumbbell.host_names()
        if self.graph is not None:
            return self.graph.host_names()
        return [host.name for host in self.hosts]

    def validate(self) -> "ScenarioSpec":
        """Validate the whole tree eagerly; returns ``self`` for chaining.

        First every field against its table entry (so nothing below ever
        hashes or compares a wrong-typed value), then the relations between
        fields and blocks.  A sealed spec was proved valid and cannot have
        changed, so this is a no-op on it (the per-trial fast path).
        """
        if self._is_sealed:
            return self
        self.check_fields("")
        if self.dumbbell is not None:
            if self.hosts or self.links:
                raise SpecError("dumbbell", "a dumbbell scenario generates its hosts; "
                                            "drop the explicit hosts/links")
            if self.graph is not None:
                raise SpecError("graph", "a scenario declares either a dumbbell or a graph, "
                                         "not both")
            self.dumbbell.check_relations("dumbbell")
        elif self.graph is not None:
            if self.hosts or self.links:
                raise SpecError("graph", "a graph scenario declares its nodes/links inside "
                                         "the graph block; drop the explicit hosts/links")
            self.graph.check_relations("graph")
        else:
            if not self.hosts:
                raise SpecError("hosts", "need at least one host (or a dumbbell)")
            _check_unique_nodes(self.hosts, "hosts", "host")
        names = dict.fromkeys(self.host_names())
        for index, link in enumerate(self.links):
            link.check_relations(f"links[{index}]", names, "host")
        for section, members in (("apps", self.apps), ("workloads", self.workloads)):
            seen_labels: Dict[str, int] = {}
            for index, member in enumerate(members):
                member.validate(f"{section}[{index}]", names)
                if member.label:
                    if member.label in seen_labels:
                        raise SpecError(
                            f"{section}[{index}].label",
                            f"duplicate label {member.label!r} (also "
                            f"{section}[{seen_labels[member.label]}]); labels address "
                            f"{section} entries in the result, so they must be unique")
                    seen_labels[member.label] = index
        if self.engine is not None and self.engine.shards > 1 and self.graph is None:
            raise SpecError("engine.shards", "sharded execution needs a graph topology "
                                             "(hosts/links and dumbbell scenarios run "
                                             "single-process)")
        return self

    def seal(self) -> "ScenarioSpec":
        """Validate, then freeze this spec tree in place; returns ``self``.

        Sealing swaps the spec and its children to ``Sealed*`` subclasses
        whose ``__setattr__`` raises and whose root ``validate`` is a no-op
        — the fast path for factories that hand one shared, immutable spec
        to many trials (``repro.experiments.topology``).  Note that sealing
        changes ``type(spec)``, so sealed and unsealed specs with equal
        content compare unequal under the dataclass ``__eq__``.
        """
        if not self._is_sealed:
            self.validate()
            for block in (*self.blocks(), self):
                block.__class__ = _sealed_variant(block.__class__)
        return self
