"""Sharded parallel engine: determinism contract, partitioner, plumbing.

The headline invariant is byte-determinism: ``shards=N`` must reproduce the
single-process result *exactly* — same JSON bytes, same digest — for any N.
These tests pin that against the checked-in preset goldens, then cover the
pieces the contract stands on: the partitioner (hypothesis properties), the
engine's late-event lane, the per-node ingress sequencing, boundary-link
stats reconciliation, shard-invariant workload RNG streams, and the service
integration (progress = barrier time, no mailbox on sharded jobs).
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim.engine import SimulationError, Simulator
from repro.netsim.ingress import IngressSequencer
from repro.netsim.link import Link
from repro.netsim.parallel import partition_graph, run_sharded
from repro.netsim.parallel.boundary import BoundaryLink
from repro.netsim.parallel.shard import Placement
from repro.netsim.parallel.wire import decode_packet, encode_packet
from repro.netsim.packet import Packet, TCPHeader
from repro.scenario import get_preset
from repro.scenario.builder import build, workload_rng_seed
from repro.scenario.runner import apps_done, drive, run, run_built, spec_digest
from repro.scenario.spec import (
    AppSpec,
    EngineSpec,
    GraphLinkSpec,
    GraphNodeSpec,
    GraphSpec,
    ScenarioSpec,
    SpecError,
    StopSpec,
    WorkloadSpec,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


# ===================================================================== #
# Byte-determinism against the checked-in goldens                       #
# ===================================================================== #
class TestShardedByteIdentity:
    @pytest.mark.parametrize("preset,seed", [
        ("star_web_churn", 5),
        ("mesh_macroflow_sharing", 9),
        # Reroutes a link mid-run: the partitioner's lifetime-minimum
        # effective-delay lookahead is on the hook too.
        ("mobile_handoff_reroute", 31),
    ])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_run_matches_the_golden_bytes(self, preset, seed, shards):
        spec = get_preset(preset)
        produced = run_sharded(spec, seed=seed, shards=shards).to_json()
        with open(os.path.join(GOLDEN_DIR, f"{preset}.seed{seed}.json"),
                  encoding="utf-8") as fh:
            assert produced == fh.read()

    def test_a_big_barbell_shards_byte_identically(self):
        # The golden presets are 4-12 nodes, where routing cost and the
        # per-worker row computation are invisible: 2 x 256 leaf hosts on
        # two routers, a quarter of a simulated second, through a spec
        # file's round trip as the CLI would read it.
        from bench.workloads import WORKLOADS

        payload = json.dumps(WORKLOADS["barbell_sharded"].spec(0.25).to_dict())
        spec = ScenarioSpec.from_dict(json.loads(payload))
        assert (run_sharded(spec, seed=1, shards=2).to_json()
                == run(ScenarioSpec.from_dict(json.loads(payload)), seed=1).to_json())

    def test_engine_block_is_excluded_from_the_digest(self):
        plain = get_preset("mesh_macroflow_sharing")
        sharded = get_preset("mesh_macroflow_sharing")
        sharded.engine = EngineSpec(shards=4)
        sharded.validate()
        assert spec_digest(plain) == spec_digest(sharded)

    def test_run_dispatches_on_the_spec_engine_block(self):
        baseline = run(get_preset("star_web_churn")).to_json()
        spec = get_preset("star_web_churn")
        spec.engine = EngineSpec(shards=2)
        assert run(spec).to_json() == baseline

    def test_shards_argument_overrides_the_spec_engine_block(self):
        spec = get_preset("star_web_churn")
        spec.engine = EngineSpec(shards=4)
        # shards=1 forces the single-process path despite the spec.
        assert run(spec, shards=1).to_json() == run(get_preset("star_web_churn")).to_json()

    def test_realism_blocks_and_reroute_shard_byte_identically(self):
        from repro.scenario.spec import RerouteSpec

        # Gilbert–Elliott loss, RED, and a scheduled reroute all at once:
        # the per-direction model state and the global route recomputation
        # must reproduce the single-process bytes across the shard boundary.
        graph = GraphSpec(
            nodes=[GraphNodeSpec(name="src", cm=True),
                   GraphNodeSpec(name="ra", kind="router"),
                   GraphNodeSpec(name="rb", kind="router"),
                   GraphNodeSpec(name="dst")],
            links=[
                GraphLinkSpec(a="src", b="ra", rate_bps=4e6, delay=0.002,
                              loss={"kind": "gilbert_elliott",
                                    "p_good_bad": 0.01, "p_bad_good": 0.3}),
                GraphLinkSpec(a="ra", b="dst", rate_bps=4e6, delay=0.002,
                              queue_limit=32,
                              aqm={"kind": "red", "min_th": 4, "max_th": 12}),
                GraphLinkSpec(a="src", b="rb", rate_bps=4e6, delay=0.008),
                GraphLinkSpec(a="rb", b="dst", rate_bps=4e6, delay=0.008),
            ],
            reroutes=[RerouteSpec(time=1.3, a="src", b="ra", delay=0.03)],
        )
        spec = ScenarioSpec(
            name="realism_shards", graph=graph,
            workloads=[WorkloadSpec(kind="tcp_flows", host="src", peer="dst",
                                    label="churn",
                                    params={"rate": 3.0, "min_bytes": 5_000,
                                            "max_bytes": 40_000})],
            stop=StopSpec(until=3.0), metrics=("apps", "links"), seed=2)
        sharded = run_sharded(spec, seed=2, shards=2).to_json()
        assert sharded == run(spec, seed=2, shards=1).to_json()

    def test_sharding_a_non_graph_spec_is_a_spec_error(self):
        spec = get_preset("web_vat_mix")
        assert spec.graph is None
        with pytest.raises(SpecError, match="graph topology"):
            run(spec, shards=2)

    def test_sharding_a_telemetry_spec_is_a_spec_error(self):
        spec = get_preset("dumbbell_bulk")
        with pytest.raises(SpecError):
            run(spec, shards=2)


# ===================================================================== #
# One build under a placement: the invariants byte-identity stands on   #
# ===================================================================== #
#: (preset, seed) pairs with a checked-in golden result (graph presets).
GOLDEN_GRAPH_PRESETS = (
    ("parking_lot_mix", 21),
    ("star_web_churn", 5),
    ("mesh_macroflow_sharing", 9),
    ("gilbert_wireless_bulk", 17),
    ("red_gateway_sharing", 19),
    ("flash_crowd_star", 23),
    ("cm_vs_udp_blast", 27),
    ("mobile_handoff_reroute", 31),
)


def _placements(spec, shards):
    """Every shard's placement of ``spec``, as the coordinator derives them."""
    part = partition_graph(spec, shards)
    return [Placement(frozenset(part.members(k))) for k in range(part.shards)]


def _identity(scenario):
    """What a build must derive from global declaration positions only."""
    return {
        "nodes": list(scenario.graph_net.nodes),
        "links": [(index, name, link._seed,
                   None if link._rng is None else link._rng.getstate())
                  for index, name, link in scenario.directed_links()],
        "apps": [(app.index, app.label) for app in scenario.apps],
        "workloads": [(w.index, w.label) for w in scenario.workloads],
    }


class TestPlacementInvariants:
    @pytest.mark.parametrize("preset,seed", GOLDEN_GRAPH_PRESETS)
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_slices_cover_the_all_local_build_exactly_once(self, preset, seed, shards):
        spec = get_preset(preset)
        whole = _identity(build(spec, seed=seed))
        slices = [build(spec, seed=seed, placement=placement)
                  for placement in _placements(spec, shards)]
        for key, expected in whole.items():
            pieces = [item for scenario in slices for item in _identity(scenario)[key]]
            # Same members with the same global identity, and none built twice.
            assert sorted(pieces) == sorted(expected), key
        for scenario in slices:
            for _index, name, link in scenario.directed_links():
                # A directed link is owned, whole, by the shard of its source;
                # it is a boundary stub exactly when its destination is remote.
                src, dst = name.split("->")
                assert scenario.is_local(src)
                assert isinstance(link, BoundaryLink) == (not scenario.is_local(dst))

    @pytest.mark.parametrize("preset,seed", GOLDEN_GRAPH_PRESETS)
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_a_slice_routes_its_own_rows_exactly_as_the_whole_graph_does(
            self, preset, seed, shards):
        # Routing is derived per worker from the spec, never shipped: each
        # slice must hold precisely its local rows of the whole table and
        # install the routes the single-process build installs on those nodes.
        spec = get_preset(preset)
        whole = build(spec, seed=seed).graph_net
        assert whole.next_hops == spec.graph.routing()
        slices = [build(spec, seed=seed, placement=placement).graph_net
                  for placement in _placements(spec, shards)]

        def agree():
            for net in slices:
                assert net.next_hops == {name: whole.next_hops[name] for name in net.nodes}
                for name, node in net.nodes.items():
                    assert [(addr, link.name) for addr, link in node._routes.items()] == [
                        (addr, link.name) for addr, link in whole.nodes[name]._routes.items()]
                    # By behaviour too: a leaf resolves through its default route.
                    for addr in whole.host_addrs.values():
                        if addr != node.addr:
                            assert node.route_for(addr).name == \
                                whole.nodes[name].route_for(addr).name, (name, addr)

        agree()
        for reroute in spec.graph.reroutes:      # every process replays the change
            for net in [whole] + slices:
                net.apply_reroute(reroute.a, reroute.b, reroute.delay)
            agree()

    @pytest.mark.parametrize("preset,seed", GOLDEN_GRAPH_PRESETS)
    def test_every_slice_lists_all_hosts_in_declaration_order(self, preset, seed):
        # Telemetry sources register in ``scenario.hosts`` order, so it must
        # be the declaration order in every process — never a set's order.
        spec = get_preset(preset)
        for placement in _placements(spec, 2):
            scenario = build(spec, seed=seed, placement=placement)
            assert list(scenario.hosts) == spec.graph.host_names()
            assert [name for name in scenario.hosts if scenario.is_local(name)] == [
                name for name in scenario.graph_net.hosts]

    @pytest.mark.parametrize("preset,seed", GOLDEN_GRAPH_PRESETS)
    def test_the_all_local_placement_is_the_single_process_run(self, preset, seed):
        spec = get_preset(preset)
        plain = build(spec, seed=seed)
        everything = Placement(frozenset(spec.graph.node_names()))
        placed = build(spec, seed=seed, placement=everything)
        assert _identity(placed) == _identity(plain)
        produced = run_built(placed).to_json()
        with open(os.path.join(GOLDEN_DIR, f"{preset}.seed{seed}.json"),
                  encoding="utf-8") as fh:
            assert produced == fh.read()
        run_built(plain)
        assert placed.sim.events_dispatched == plain.sim.events_dispatched
        assert not everything.outbox


# ===================================================================== #
# The stop-condition driver (shared by run_built and the coordinator)   #
# ===================================================================== #
class _FakeRun:
    """A scripted ``advance``/``done_states``/``drained`` triple that logs calls."""

    def __init__(self, done_at=None, drained_at=None):
        self.now = 0.0
        self.calls = []
        self.done_at = done_at
        self.drained_at = drained_at

    def advance(self, until):
        self.calls.append(("advance", until))
        self.now = until
        return until

    def done_states(self):
        self.calls.append(("states", self.now))
        done = self.done_at is not None and self.now >= self.done_at
        return [None, done]

    def drained(self):
        self.calls.append(("drained", self.now))
        return self.drained_at is not None and self.now >= self.drained_at


class TestStopConditionDriver:
    def test_apps_done_needs_a_finite_transfer_and_all_of_them_finished(self):
        assert not apps_done([])
        assert not apps_done([None, None])       # nothing to finish early on
        assert not apps_done([None, True, False])
        assert apps_done([None, True, True])

    def test_fixed_horizon_is_one_advance_and_no_polling(self):
        fake = _FakeRun()
        end = drive(StopSpec(until=7.5), 2.0, fake.advance, fake.done_states, fake.drained)
        assert end == 9.5
        assert fake.calls == [("advance", 9.5)]

    def test_predicate_is_asked_before_drained_and_only_on_the_check_grid(self):
        fake = _FakeRun(done_at=1.5)
        stop = StopSpec(until=10.0, when_apps_done=True, check_interval=0.5)
        end = drive(stop, 0.0, fake.advance, fake.done_states, fake.drained)
        assert end == 1.5
        assert fake.calls == [
            ("states", 0.0), ("drained", 0.0), ("advance", 0.5),
            ("states", 0.5), ("drained", 0.5), ("advance", 1.0),
            ("states", 1.0), ("drained", 1.0), ("advance", 1.5),
            ("states", 1.5),                      # done: drained is not asked
        ]

    def test_a_drained_simulation_ends_the_run_at_the_grid_point(self):
        fake = _FakeRun(drained_at=0.5)
        stop = StopSpec(until=10.0, when_apps_done=True, check_interval=0.5)
        assert drive(stop, 0.0, fake.advance, fake.done_states, fake.drained) == 0.5
        assert [call for call in fake.calls if call[0] == "advance"] == [("advance", 0.5)]

    def test_the_last_interval_is_clamped_to_the_horizon(self):
        fake = _FakeRun()
        stop = StopSpec(until=1.2, when_apps_done=True, check_interval=0.5)
        end = drive(stop, 3.0, fake.advance, fake.done_states, fake.drained)
        assert end == pytest.approx(4.2)
        targets = [until for kind, until in fake.calls if kind == "advance"]
        assert targets == [pytest.approx(3.5), pytest.approx(4.0), pytest.approx(4.2)]
        assert fake.calls[-1][0] == "advance"     # no poll once the horizon is reached


# ===================================================================== #
# Partitioner properties                                                #
# ===================================================================== #
def _chain_spec(names, delays, shuffle=None):
    """A path graph host0 - host1 - ... with the given per-hop delays."""
    nodes = [GraphNodeSpec(name=name) for name in names]
    links = [
        GraphLinkSpec(a=names[i], b=names[i + 1], rate_bps=10e6, delay=delays[i])
        for i in range(len(names) - 1)
    ]
    if shuffle is not None:
        nodes = [nodes[i] for i in shuffle[0]]
        links = [links[i] for i in shuffle[1]]
    return ScenarioSpec(
        name="chain", graph=GraphSpec(nodes=nodes, links=links),
        stop=StopSpec(until=1.0), seed=1,
    )


@st.composite
def random_graphs(draw):
    """A connected random graph: a spanning chain plus random extra edges."""
    n = draw(st.integers(min_value=2, max_value=12))
    names = [f"n{i}" for i in range(n)]
    delay = st.floats(min_value=1e-4, max_value=0.05,
                      allow_nan=False, allow_infinity=False)
    edges = [(i, i + 1) for i in range(n - 1)]
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    seen = set(edges)
    for a, b in extra:
        pair = (min(a, b), max(a, b))
        if a != b and pair not in seen:
            seen.add(pair)
            edges.append(pair)
    delays = [draw(delay) for _ in edges]
    nodes = [GraphNodeSpec(name=name) for name in names]
    links = [GraphLinkSpec(a=names[a], b=names[b], rate_bps=10e6, delay=d)
             for (a, b), d in zip(edges, delays)]
    spec = ScenarioSpec(name="rand", graph=GraphSpec(nodes=nodes, links=links),
                        stop=StopSpec(until=1.0), seed=1)
    shards = draw(st.integers(min_value=1, max_value=5))
    return spec, shards


class TestPartitionerProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_graphs())
    def test_every_node_lands_in_exactly_one_shard(self, case):
        spec, shards = case
        part = partition_graph(spec, shards)
        names = {node.name for node in spec.graph.nodes}
        assert set(part.shard_of) == names
        assert set(part.shard_of.values()) <= set(range(part.shards))
        # Every shard index in [0, shards) is actually inhabited.
        assert set(part.shard_of.values()) == set(range(part.shards))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_graphs())
    def test_cut_pairs_are_exactly_the_inter_shard_links(self, case):
        spec, shards = case
        part = partition_graph(spec, shards)
        for link in spec.graph.links:
            crosses = part.shard_of[link.a] != part.shard_of[link.b]
            assert part.is_cut(link.a, link.b) == crosses
            assert part.is_cut(link.b, link.a) == crosses
        if part.shards > 1:
            cut_delays = [link.delay for link in spec.graph.links
                          if part.is_cut(link.a, link.b)]
            assert part.lookahead == min(cut_delays)
            assert part.lookahead > 0.0

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_graphs(), st.randoms(use_true_random=False))
    def test_declaration_order_does_not_change_the_partition(self, case, rng):
        spec, shards = case
        part = partition_graph(spec, shards)
        nodes = list(spec.graph.nodes)
        links = list(spec.graph.links)
        rng.shuffle(nodes)
        rng.shuffle(links)
        shuffled = ScenarioSpec(
            name="rand", graph=GraphSpec(nodes=nodes, links=links),
            stop=StopSpec(until=1.0), seed=1)
        assert partition_graph(shuffled, shards).shard_of == part.shard_of

    def test_min_delay_links_are_cut_last(self):
        # Chain of 4 hosts; the middle hop is 10x slower to cross, so a
        # 2-way split must cut there and leave the fast edges internal.
        spec = _chain_spec(["a", "b", "c", "d"], [0.001, 0.010, 0.001])
        part = partition_graph(spec, 2)
        assert part.shards == 2
        assert part.cut_pairs == frozenset({("b", "c")})
        assert part.lookahead == 0.010

    def test_colocate_peer_apps_share_a_shard(self):
        # BulkApp installs a listener on the live peer object, so the
        # partitioner must keep the pair together even across the best cut.
        spec = _chain_spec(["a", "b", "c", "d"], [0.001, 0.010, 0.001])
        spec.apps = [AppSpec(app="bulk", host="b", peer="c",
                             params={"port": 5001, "transfer_bytes": 1000})]
        part = partition_graph(spec, 2)
        assert part.shard_of["b"] == part.shard_of["c"]

    def test_zero_delay_cut_is_rejected(self):
        spec = _chain_spec(["a", "b"], [0.0])
        with pytest.raises(SpecError, match="engine.shards"):
            partition_graph(spec, 2)

    def test_reroutes_lower_the_effective_lookahead(self):
        from repro.scenario.spec import RerouteSpec

        # The conservative window must stay safe over the link's whole
        # lifetime: a reroute that shrinks the cut link's delay mid-run
        # caps the lookahead from build time.
        spec = _chain_spec(["a", "b", "c", "d"], [0.001, 0.010, 0.001])
        spec.graph.reroutes = [RerouteSpec(time=1.0, a="c", b="b", delay=0.004)]
        part = partition_graph(spec, 2)
        assert part.cut_pairs == frozenset({("b", "c")})
        assert part.lookahead == 0.004

    def test_reroute_to_zero_delay_on_a_cut_link_is_rejected(self):
        from repro.scenario.spec import RerouteSpec

        # With spare capacity the clusterer absorbs a rerouted-to-zero link
        # into one shard (it sorts by effective delay), so force the cut:
        # two nodes, one link, delay rerouted to zero mid-run.
        spec = _chain_spec(["a", "b"], [0.004])
        spec.graph.reroutes = [RerouteSpec(time=1.0, a="a", b="b", delay=0.0)]
        with pytest.raises(SpecError, match="scheduled reroute"):
            partition_graph(spec, 2)

    def test_zero_delay_reroute_link_is_absorbed_when_capacity_allows(self):
        from repro.scenario.spec import RerouteSpec

        # The clusterer weights links by lifetime-minimum delay, so the
        # rerouted-to-zero middle hop sorts first and stays shard-internal.
        spec = _chain_spec(["a", "b", "c", "d"], [0.001, 0.010, 0.001])
        spec.graph.reroutes = [RerouteSpec(time=1.0, a="b", b="c", delay=0.0)]
        part = partition_graph(spec, 2)
        assert part.shard_of["b"] == part.shard_of["c"]
        assert ("b", "c") not in part.cut_pairs

    def test_requesting_more_shards_than_nodes_clamps(self):
        spec = _chain_spec(["a", "b"], [0.004])
        part = partition_graph(spec, 5)
        assert part.shards <= 2


# ===================================================================== #
# Engine late lane + ingress sequencing                                 #
# ===================================================================== #
class TestDrainLateEntries:
    """A sequencer's drain is a late queue entry (pushed by ``inject``)."""

    def test_late_entry_runs_after_every_normal_event_at_its_time(self):
        sim = Simulator()
        order = []
        IngressSequencer(sim, 5, order.append).inject(1.0, 0, 0, "late")
        sim.at(1.0, order.append, "first")
        sim.at(1.0, order.append, "second")
        sim.at(2.0, order.append, "next-instant")
        sim.run()
        assert order == ["first", "second", "late", "next-instant"]

    def test_same_time_late_entries_order_by_rank(self):
        sim = Simulator()
        order = []
        IngressSequencer(sim, 7, order.append).inject(1.0, 0, 0, "rank7")
        IngressSequencer(sim, 2, order.append).inject(1.0, 0, 0, "rank2")
        sim.run()
        assert order == ["rank2", "rank7"]

    def test_past_time_raises(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            IngressSequencer(sim, 0, lambda packet: None).inject(0.5, 0, 0, "late")

    def test_horizon_overshoot_keeps_the_late_entry_behind_normal_pushes(self):
        # A late entry popped and pushed back at the horizon must still sort
        # after a same-time normal event scheduled later on.
        sim = Simulator()
        order = []
        IngressSequencer(sim, 1, order.append).inject(2.0, 0, 0, "late")
        sim.run(until=1.0)  # pops the late entry, pushes it back
        sim.at(2.0, order.append, "normal")
        sim.run()
        assert order == ["normal", "late"]


def _graph_link(sim, sequencer, link_rank, delay=0.001):
    """A 8 Mbit/s link handing off to ``sequencer`` (1000-byte packet = 1 ms)."""
    link = Link(sim, rate_bps=8e6, delay=delay, name=f"l{link_rank}")
    link.attach_sequencer(sequencer, link_rank)
    return link


def _udp(tag):
    return Packet("a", "b", 1, tag, protocol="udp", payload_bytes=1000 - 28)


class TestIngressSequencer:
    def test_same_instant_deliveries_drain_in_link_then_seq_order(self):
        sim = Simulator()
        got = []
        seq = IngressSequencer(sim, rank=0, receiver=lambda p: got.append(p.dport))
        # Hand-off order disagrees with link order on purpose: the high link
        # finishes its transmission first, both arrive at the same instant.
        hi = _graph_link(sim, seq, 9, delay=0.002)
        lo = _graph_link(sim, seq, 3, delay=0.001)
        sim.at(0.0, hi.send, _udp(90))
        sim.at(0.001, lo.send, _udp(30))
        sim.run()
        assert got == [30, 90]
        assert hi.stats.delivered_packets == lo.stats.delivered_packets == 1

    def test_injected_entries_drain_in_link_then_seq_order(self):
        sim = Simulator()
        got = []
        seq = IngressSequencer(sim, rank=0, receiver=got.append)
        seq.inject(1.0, 9, 1, "hi-1")
        seq.inject(1.0, 3, 0, "lo-0")
        seq.inject(1.0, 9, 0, "hi-0")
        sim.run()
        assert got == ["lo-0", "hi-0", "hi-1"]

    def test_distinct_instants_stay_separate(self):
        sim = Simulator()
        got = []
        seq = IngressSequencer(sim, rank=0, receiver=lambda p: got.append((sim.now, p.dport)))
        link = _graph_link(sim, seq, 0)
        sim.at(0.0, link.send, _udp(1))
        sim.at(0.0, link.send, _udp(2))
        sim.run()
        assert got == [(0.002, 1), (0.003, 2)]

    def test_injection_joins_the_same_instant_ordering(self):
        sim = Simulator()
        got = []
        seq = IngressSequencer(sim, rank=0,
                               receiver=lambda p: got.append(getattr(p, "dport", p)))
        link = _graph_link(sim, seq, 6)
        seq.inject(0.002, 2, 0, "injected")  # lower link index than the link
        sim.at(0.0, link.send, _udp(6))
        sim.run()
        assert got == ["injected", 6]


# ===================================================================== #
# The graph hop is finish -> drain: no delivery event of the link's own #
# ===================================================================== #
class TestSequencerHandOff:
    def test_zero_delay_link_delivers_after_every_normal_event_of_its_instant(self):
        sim = Simulator()
        order = []
        seq = IngressSequencer(sim, rank=0, receiver=lambda p: order.append("deliver"))
        link = _graph_link(sim, seq, 0, delay=0.0)
        sim.at(0.0, link.send, _udp(1))
        # Scheduled after the send, so after the transmission end at 1 ms.
        sim.at(0.0005, lambda: sim.at(0.001, order.append, "normal"))
        sim.run()
        assert order == ["normal", "deliver"]
        assert sim.now == 0.001

    def test_arrival_past_the_horizon_is_neither_counted_nor_received(self):
        sim = Simulator()
        got = []
        seq = IngressSequencer(sim, rank=0, receiver=got.append)
        link = _graph_link(sim, seq, 0, delay=0.010)
        packet = _udp(1)
        sim.at(0.0, link.send, packet)
        sim.run(until=0.005)
        assert got == [] and link.stats.delivered_packets == 0
        assert link.stats.dequeued_packets == 1
        assert link.propagating() == [packet]
        sim.run(until=0.011)          # exactly the arrival instant: delivered
        assert got == [packet] and link.propagating() == []
        assert (link.stats.delivered_packets, link.stats.delivered_bytes) == (1, 1000)

    def test_simulation_is_not_idle_while_a_packet_propagates(self):
        sim = Simulator()
        seq = IngressSequencer(sim, rank=0, receiver=lambda p: None)
        link = _graph_link(sim, seq, 0, delay=0.010)
        sim.start_control(0.004, lambda: None)
        sim.at(0.0, link.send, _udp(1))
        sim.run(until=0.005)
        assert link.propagating() and not sim.idle_except_control()
        sim.run(until=0.012)
        assert sim.idle_except_control()
        sim.stop_control()

    def test_lowered_delay_never_reorders_one_links_arrivals(self):
        sim = Simulator()
        got = []
        seq = IngressSequencer(sim, rank=0, receiver=lambda p: got.append((sim.now, p.dport)))
        link = _graph_link(sim, seq, 0, delay=0.010)
        sim.at(0.0, link.send, _udp(1))
        sim.at(0.0, link.send, _udp(2))
        sim.at(0.0015, setattr, link, "delay", 0.001)   # second packet's wire is shorter
        sim.run()
        assert got == [(0.011, 1), (0.011, 2)]


#: ``(events_dispatched, Simulator._seq)`` of each golden graph preset at the
#: commit before graph links stopped scheduling a delivery event.
EVENTS_WITH_A_DELIVER_EVENT_PER_HOP = {
    "parking_lot_mix": (36880, 26499),
    "star_web_churn": (29898, 22520),
    "mesh_macroflow_sharing": (69193, 49168),
    "gilbert_wireless_bulk": (7586, 5438),
    "red_gateway_sharing": (45943, 32808),
    "flash_crowd_star": (22832, 17015),
    "cm_vs_udp_blast": (61308, 43258),
    "mobile_handoff_reroute": (28178, 21149),
}


class TestOneEventFewerPerHop:
    @pytest.mark.parametrize("preset,seed", GOLDEN_GRAPH_PRESETS)
    def test_exactly_the_delivery_events_are_gone(self, preset, seed):
        # The result bytes are the golden's (checked elsewhere); what moved is
        # one dispatch per delivered packet-hop and one sequence number per
        # packet that entered propagation — nothing else was an event.
        scenario = build(get_preset(preset), seed=seed)
        run_built(scenario)
        links = list(scenario.graph_net.links.values())
        delivered = sum(link.stats.delivered_packets for link in links)
        entered_propagation = delivered + sum(len(link.propagating()) for link in links)
        events_before, seq_before = EVENTS_WITH_A_DELIVER_EVENT_PER_HOP[preset]
        assert delivered > 1000
        assert events_before - scenario.sim.events_dispatched == delivered
        assert seq_before - scenario.sim._seq == entered_propagation


# ===================================================================== #
# Wire format + boundary link                                           #
# ===================================================================== #
class TestWireAndBoundary:
    def test_tcp_packet_round_trips(self):
        header = TCPHeader()
        header.seq, header.ack, header.syn = 7, 3, True
        packet = Packet("10.0.0.1", "10.0.0.2", 5001, 80, protocol="tcp",
                        payload_bytes=1460, headers=header, ecn_capable=True,
                        flow_id=4, created_at=1.25)
        clone = decode_packet(encode_packet(packet))
        assert (clone.src, clone.dst, clone.sport, clone.dport) == (
            packet.src, packet.dst, packet.sport, packet.dport)
        assert (clone.headers.seq, clone.headers.ack, clone.headers.syn) == (7, 3, True)
        assert clone.ecn_capable and clone.flow_id == 4 and clone.created_at == 1.25
        assert clone._pool_state == 0  # unmanaged: receiver release is a no-op

    def test_boundary_link_emits_instead_of_delivering(self):
        sim = Simulator()
        outbox = []
        link = BoundaryLink(sim, outbox, 12, rate_bps=8e6, delay=0.01, name="x->y")
        packet = Packet("10.0.0.1", "10.0.0.2", 1, 2, protocol="udp", payload_bytes=1000)
        sim.at(0.0, link.send, packet)
        sim.run()
        assert len(outbox) == 1
        deliver_ts, link_index, emit_seq, wire = outbox[0]
        assert link_index == 12 and emit_seq == 0
        assert deliver_ts == pytest.approx(packet.size * 8 / 8e6 + 0.01)
        assert decode_packet(wire).payload_bytes == 1000
        assert link.stats.delivered_packets == 1

    def test_finalize_backs_out_in_flight_emissions(self):
        sim = Simulator()
        outbox = []
        link = BoundaryLink(sim, outbox, 0, rate_bps=8e6, delay=5.0, name="x->y")
        packet = Packet("10.0.0.1", "10.0.0.2", 1, 2, protocol="udp", payload_bytes=1000)
        sim.at(0.0, link.send, packet)
        sim.run()
        assert link.stats.delivered_packets == 1
        link.finalize(end_time=1.0)  # delivery at ~5s is beyond the horizon
        assert link.stats.delivered_packets == 0
        assert link.stats.delivered_bytes == 0


# ===================================================================== #
# Workload RNG shard invariance                                         #
# ===================================================================== #
class TestWorkloadRngInvariance:
    def test_seed_derivation_depends_only_on_global_identity(self):
        # The derivation takes (run_seed, seed_offset, global index) and
        # nothing else — there is no shard-local input it *could* vary by.
        assert workload_rng_seed(5, None, 0) == workload_rng_seed(5, None, 0)
        assert workload_rng_seed(5, None, 0) != workload_rng_seed(5, None, 1)
        assert workload_rng_seed(5, 3, 0) == workload_rng_seed(5, 3, 7)

    def test_workload_streams_are_identical_across_hosting_shards(self):
        # Run star_web_churn at every shard count; each client workload's
        # flow metrics (arrival times, sizes — all RNG-driven) must agree
        # no matter which shard hosted the generator.
        spec = get_preset("star_web_churn")
        baseline = json.loads(run(spec, seed=5).to_json())["workloads"]
        for shards in (2, 3, 4):
            sharded = json.loads(
                run_sharded(get_preset("star_web_churn"), seed=5,
                            shards=shards).to_json())["workloads"]
            assert sharded == baseline


# ===================================================================== #
# Coordinator progress + service integration                            #
# ===================================================================== #
def _graph_spec_with_engine(shards):
    spec = get_preset("star_web_churn")
    spec.engine = EngineSpec(shards=shards)
    return spec


class TestCoordinatorProgress:
    def test_progress_reports_monotone_barrier_times(self):
        spec = get_preset("star_web_churn")
        ticks = []
        run_sharded(spec, seed=5, shards=2,
                    progress_cb=lambda now, horizon: ticks.append((now, horizon)))
        times = [now for now, _ in ticks]
        assert times[0] == 0.0
        assert times == sorted(times)
        assert times[-1] <= spec.stop.until
        horizon = {h for _, h in ticks}
        assert horizon == {spec.stop.until}
        # Barrier granularity: consecutive ticks are at most one lookahead
        # window apart (the min shard sim-time can never be stale by more).
        lookahead = partition_graph(spec, 2).lookahead
        assert all(b - a <= lookahead + 1e-12 for a, b in zip(times, times[1:]))


class TestServiceSharding:
    def test_sharded_job_runs_to_done_with_identical_bytes(self):
        from repro.service.jobs import JobManager

        manager = JobManager(slots=1)
        try:
            job = manager.submit(get_preset("star_web_churn"), shards=2)
            assert job.shards == 2
            manager.wait(job.id, timeout=120.0)
            assert job.state == "done"
            assert job.result.to_json() == run(get_preset("star_web_churn")).to_json()
            status = job.status()
            assert status["shards"] == 2
            assert status["progress"]["fraction"] == pytest.approx(1.0)
        finally:
            manager.shutdown()

    def test_sharded_job_progress_is_the_min_shard_sim_time(self):
        # The slot publishes sim_time from the coordinator's barrier
        # callback; at DONE it equals the final barrier = stop time.
        from repro.service.jobs import JobManager

        manager = JobManager(slots=1)
        try:
            job = manager.submit(_graph_spec_with_engine(2))
            manager.wait(job.id, timeout=120.0)
            assert job.sim_time == pytest.approx(job.result.duration_s)
        finally:
            manager.shutdown()

    @staticmethod
    def _children_of(pid):
        """Live (non-zombie) processes whose parent is ``pid``."""
        found = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat") as handle:
                        fields = handle.read().rsplit(") ", 1)[1].split()
                except OSError:
                    continue
                if int(fields[1]) == pid and fields[0] != "Z":
                    found.append(int(entry))
        return found

    @staticmethod
    def _long_sharded_job(manager):
        spec = get_preset("star_web_churn")
        spec.stop.until = 1e5
        job = manager.submit(spec, shards=2)
        deadline = time.time() + 60
        while job.sim_time < 1.0:
            assert time.time() < deadline and not job.finished, job.status()
            time.sleep(0.01)
        return job

    def test_a_sharded_job_forks_its_workers_from_its_slot_and_cancels_at_a_barrier(self):
        from repro.service.jobs import JobManager

        manager = JobManager(slots=1)
        try:
            job = self._long_sharded_job(manager)
            (slot,) = manager.health()["slots"]
            assert slot["pid"] != os.getpid() and slot["job"] == job.id
            assert len(self._children_of(slot["pid"])) == 2  # the shard workers are the slot's
            asked = time.monotonic()
            manager.cancel(job.id)
            manager.wait(job.id, timeout=60.0)
            assert time.monotonic() - asked < 1.0
            assert job.state == "cancelled"
            assert job.error.startswith("cancelled at sim t=")
            assert self._children_of(slot["pid"]) == []
            (after,) = manager.health()["slots"]
            assert after["pid"] == slot["pid"] and after["respawns"] == 0
        finally:
            manager.shutdown()

    def test_a_slot_killed_mid_sharded_job_takes_its_shard_workers_along(self):
        import signal

        from repro.service.jobs import JobManager

        manager = JobManager(slots=1)
        try:
            job = self._long_sharded_job(manager)
            (slot,) = manager.health()["slots"]
            workers = self._children_of(slot["pid"])
            assert len(workers) == 2
            os.kill(slot["pid"], signal.SIGKILL)
            manager.wait(job.id, timeout=60.0)
            assert job.state == "failed" and "exit code -9" in job.error
            deadline = time.time() + 10
            while any(os.path.exists(f"/proc/{pid}") for pid in workers):
                assert time.time() < deadline, "orphaned shard workers"
                time.sleep(0.01)
            # The replacement slot runs the next sharded job to the same bytes.
            again = manager.submit(get_preset("star_web_churn"), shards=2)
            manager.wait(again.id, timeout=120.0)
            assert again.result.to_json() == run(get_preset("star_web_churn")).to_json()
        finally:
            manager.shutdown()

    def test_a_shard_worker_killed_mid_job_fails_the_job_not_the_slot(self, monkeypatch, tmp_path):
        import multiprocessing

        from repro.service.jobs import JobManager

        record = tmp_path / "record"
        record.mkdir()
        spec = get_preset("star_web_churn")
        _kill_shard_mid_window(monkeypatch, record, spec)  # before the slot is forked
        manager = JobManager(slots=1, trace_dir=str(tmp_path / "traces"))
        try:
            job = manager.submit(spec, shards=2, trace=True)
            manager.wait(job.id, timeout=60.0)
            assert job.state == "failed"
            assert re.fullmatch(
                r"WorkerDied: shard worker 1 \(pid \d+\) died; exit code -9", job.error)
            assert job.finished_at - float((record / "died").read_text()) < 1.0
            (slot,) = manager.health()["slots"]
            assert slot["alive"] and slot["respawns"] == 0
            assert self._children_of(slot["pid"]) == []
            pids = [int(line) for line in (record / "pids").read_text().split()]
            assert len(pids) == 2 and all(_reaped(pid) for pid in pids)
            assert not list((tmp_path / "traces").iterdir())
        finally:
            manager.shutdown()
        assert multiprocessing.active_children() == []

    def test_ops_are_rejected_on_sharded_jobs(self):
        from repro.service.jobs import JobManager, JobNotLive

        manager = JobManager(slots=1)
        try:
            job = manager.submit(get_preset("star_web_churn"), shards=2)
            with pytest.raises(JobNotLive, match="sharded"):
                job.request("hosts")
            manager.wait(job.id, timeout=120.0)
        finally:
            manager.shutdown()

    def test_op_rejection_maps_to_http_409(self):
        from repro.service.api import ServiceApi
        from repro.service.jobs import JobManager

        manager = JobManager(slots=1)
        api = ServiceApi(manager)
        try:
            body = json.dumps({"preset": "star_web_churn", "shards": 2}).encode()
            response = api.dispatch("POST", "/v1/jobs", body)
            assert response.status == 201
            job_id = response.json()["job"]["id"]
            assert response.json()["job"]["shards"] == 2
            hosts = api.dispatch("GET", f"/v1/jobs/{job_id}/hosts")
            assert hosts.status == 409
            assert "sharded" in hosts.json()["error"]
            manager.wait(job_id, timeout=120.0)
        finally:
            manager.shutdown()

    def test_submitting_shards_on_a_non_graph_spec_is_http_400(self):
        from repro.service.api import ServiceApi
        from repro.service.jobs import JobManager

        manager = JobManager(slots=1)
        api = ServiceApi(manager)
        try:
            body = json.dumps({"preset": "web_vat_mix", "shards": 2}).encode()
            response = api.dispatch("POST", "/v1/jobs", body)
            assert response.status == 400
            assert "graph" in response.json()["error"]
        finally:
            manager.shutdown()

    def test_control_hook_on_sharded_run_is_a_spec_error(self):
        from repro.scenario.runner import run_streaming

        with pytest.raises(SpecError, match="control hooks"):
            run_streaming(get_preset("star_web_churn"), shards=2,
                          control_hook=lambda scenario: None)


def _reaped(pid):
    """Neither running nor a zombie: the pid is gone from the process table."""
    return not os.path.exists(f"/proc/{pid}")


def _exited(pid):
    """Gone, or a zombie: an orphan's zombie is for init to collect, in its own time."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(") ", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _doom_shard(monkeypatch, record, spec, shard=1):
    """Mark the worker of ``spec``'s shard ``shard`` as it builds its slice.

    Forked workers inherit the patch.  Each shard worker appends its pid to
    ``record/pids``; the returned predicate is true in the marked worker only.
    """
    import repro.scenario.builder as builder

    unlucky = partition_graph(spec, 2).members(shard)[0]
    real_build = builder.build
    doomed = []

    def build_and_mark(spec, seed=None, trace_path=None, placement=None):
        if placement is not None:
            with open(record / "pids", "a") as handle:
                handle.write(f"{os.getpid()}\n")
            if unlucky in placement.local:
                doomed.append(os.getpid())
        return real_build(spec, seed=seed, trace_path=trace_path, placement=placement)

    monkeypatch.setattr(builder, "build", build_and_mark)
    return lambda: os.getpid() in doomed


def _kill_shard_mid_window(monkeypatch, record, spec, window=3):
    """Make shard 1's worker SIGKILL itself inside its ``window``-th window.

    The victim writes its time of death to ``record/died``.
    """
    import signal

    doomed = _doom_shard(monkeypatch, record, spec)
    real_run = Simulator.run
    windows = []

    def run_or_die(sim, *args, **kwargs):
        if doomed():
            windows.append(None)
            if len(windows) == window:
                (record / "died").write_text(repr(time.time()))
                os.kill(os.getpid(), signal.SIGKILL)
        return real_run(sim, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", run_or_die)


class TestShardWorkerLifetime:
    """Spawn, death and reap of shard workers: a dead process is an error at once."""

    def test_a_partial_start_leaves_no_worker_behind(self, monkeypatch):
        # Shard 0 starts, shard 1 cannot: the coordinator must take shard 0
        # down again instead of stranding it on an open pipe.
        import multiprocessing
        from multiprocessing.process import BaseProcess

        real_start = BaseProcess.start
        started = []

        def start_once(process):
            if started:
                raise OSError("cannot fork")
            started.append(process)
            real_start(process)

        monkeypatch.setattr(BaseProcess, "start", start_once)
        with pytest.raises(OSError, match="cannot fork"):
            run_sharded(get_preset("star_web_churn"), seed=5, shards=2)
        assert len(started) == 1
        started[0].join(timeout=10.0)
        assert not started[0].is_alive()
        assert multiprocessing.active_children() == []

    def test_a_worker_killed_mid_window_is_one_error_naming_it(self, monkeypatch, tmp_path):
        import multiprocessing

        from repro.netsim.parallel.workers import WorkerDied

        record = tmp_path / "record"
        record.mkdir()
        spec = get_preset("star_web_churn")
        _kill_shard_mid_window(monkeypatch, record, spec)
        with pytest.raises(WorkerDied, match=r"^shard worker 1 \(pid \d+\) died; exit code -9$"):
            run_sharded(spec, seed=5, shards=2, trace_path=str(tmp_path / "killed.jsonl"))
        assert time.time() - float((record / "died").read_text()) < 1.0
        assert multiprocessing.active_children() == []
        pids = [int(line) for line in (record / "pids").read_text().split()]
        assert len(pids) == 2 and all(_reaped(pid) for pid in pids)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["record"]

    def test_a_worker_gone_between_ready_and_the_first_window_is_one_error(
            self, monkeypatch, tmp_path):
        import multiprocessing
        from multiprocessing.connection import Connection

        from repro.netsim.parallel.workers import WorkerDied

        record = tmp_path / "record"
        record.mkdir()
        spec = get_preset("star_web_churn")
        doomed = _doom_shard(monkeypatch, record, spec)
        real_recv = Connection.recv

        def exit_after_ready(conn):
            # A worker's first recv comes right after it sent "ready".
            if doomed():
                os._exit(3)
            return real_recv(conn)

        monkeypatch.setattr(Connection, "recv", exit_after_ready)
        with pytest.raises(WorkerDied, match=r"^shard worker 1 \(pid \d+\) died; exit code 3$"):
            run_sharded(spec, seed=5, shards=2, trace_path=str(tmp_path / "gone.jsonl"))
        assert multiprocessing.active_children() == []
        pids = [int(line) for line in (record / "pids").read_text().split()]
        assert len(pids) == 2 and all(_reaped(pid) for pid in pids)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["record"]

    def test_a_killed_coordinator_takes_its_workers_along(self, tmp_path):
        # The coordinator runs in a process of its own and prints its
        # workers' pids once the run is under way; SIGKILL it then.
        import multiprocessing
        import signal

        script = (
            "import multiprocessing, sys\n"
            "from repro.netsim.parallel import run_sharded\n"
            "from repro.scenario import get_preset\n"
            "spec = get_preset('star_web_churn')\n"
            "spec.stop.until = 1e5\n"
            "told = []\n"
            "def report(now, horizon):\n"
            "    if now > 1.0 and not told:\n"
            "        told.append(now)\n"
            "        print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
            "run_sharded(spec, seed=5, shards=2, trace_path=sys.argv[1], progress_cb=report)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        coordinator = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "orphaned.jsonl")],
            stdout=subprocess.PIPE, env=env, text=True)
        try:
            pids = [int(pid) for pid in coordinator.stdout.readline().split()]
            assert len(pids) == 2
            coordinator.send_signal(signal.SIGKILL)
            assert coordinator.wait(timeout=10) == -signal.SIGKILL
            deadline = time.monotonic() + 1.0
            while not all(_exited(pid) for pid in pids):
                assert time.monotonic() < deadline, "shard workers outlived their coordinator"
                time.sleep(0.01)
        finally:
            coordinator.kill()
            coordinator.wait()
            coordinator.stdout.close()
        assert multiprocessing.active_children() == []
        assert not list(tmp_path.glob("*.shard*"))

    def test_a_partition_without_lookahead_is_an_error_not_an_assert(self, monkeypatch):
        import repro.netsim.parallel.partition as partition

        real = partition.partition_graph

        def no_lookahead(spec, shards):
            part = real(spec, shards)
            return type(part)(part.shards, part.shard_of, part.cut_pairs, None)

        monkeypatch.setattr(partition, "partition_graph", no_lookahead)
        with pytest.raises(RuntimeError, match="lookahead"):
            run_sharded(get_preset("star_web_churn"), seed=5, shards=2)


# ===================================================================== #
# Per-shard traces                                                      #
# ===================================================================== #
class TestShardedTraces:
    def test_merged_trace_is_time_ordered_jsonl(self, tmp_path):
        trace = tmp_path / "sharded.jsonl"
        run_sharded(get_preset("star_web_churn"), seed=5, shards=2,
                    trace_path=str(trace))
        lines = trace.read_text().splitlines()
        assert lines, "sharded trace must not be empty"
        times = [json.loads(line).get("t", 0.0) for line in lines]
        assert times == sorted(times)
        # No stray per-shard files left behind.
        assert not list(tmp_path.glob("*.shard*"))

    def test_a_cancelled_run_leaves_no_trace_files_behind(self, tmp_path):
        # The service cancels a sharded job by raising from progress_cb at a
        # barrier; the workers must still close their parts and the
        # coordinator remove them.
        class Cancelled(Exception):
            pass

        def cancel_mid_run(now, horizon):
            if now > 0.5:
                raise Cancelled

        with pytest.raises(Cancelled):
            run_sharded(get_preset("star_web_churn"), seed=5, shards=2,
                        trace_path=str(tmp_path / "cancelled.jsonl"),
                        progress_cb=cancel_mid_run)
        assert not list(tmp_path.iterdir())

    def test_a_failed_worker_leaves_no_trace_files_behind(self, tmp_path, monkeypatch):
        # One shard's build fails (forked workers inherit the patch); the
        # other shard built fine and opened its part, which must go too.
        import repro.scenario.builder as builder

        spec = get_preset("star_web_churn")
        unlucky = partition_graph(spec, 2).members(1)[0]
        real_build = builder.build

        def build_or_fail(spec, seed=None, trace_path=None, placement=None):
            if placement is not None and unlucky in placement.local:
                raise SpecError("apps[0]", "injected build failure")
            return real_build(spec, seed=seed, trace_path=trace_path, placement=placement)

        monkeypatch.setattr(builder, "build", build_or_fail)
        with pytest.raises(SpecError, match="injected build failure"):
            run_sharded(spec, seed=5, shards=2, trace_path=str(tmp_path / "failed.jsonl"))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("shards", [1, 2])
    def test_trace_bytes_do_not_depend_on_the_hash_seed(self, tmp_path, shards):
        # Telemetry sources used to register in set-iteration order in the
        # shard build, so the merged trace changed with PYTHONHASHSEED.
        traces = []
        for hash_seed in ("1", "5"):
            trace = tmp_path / f"hashseed{hash_seed}.jsonl"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            subprocess.run(
                [sys.executable, "-m", "repro.scenario", "run", "mesh_macroflow_sharing",
                 "--shards", str(shards), "--trace", str(trace), "--quiet"],
                check=True, env=env, timeout=300)
            traces.append(trace.read_bytes())
        assert traces[0] and traces[0] == traces[1]

    @pytest.mark.parametrize("preset,seed,shards,lines,digest", [
        ("mesh_macroflow_sharing", 9, 1, 52608,
         "d5f2281467bab285d1bd60dddf6fbde2d101a14414e70a1073bf461a6c61e7f9"),
        ("mesh_macroflow_sharing", 9, 2, 41958,
         "bb08336b40be837395bcced853ad366bf9fe90604e03689d3a45f125460c5ca7"),
        ("mobile_handoff_reroute", 31, 1, 23202,
         "e71170513a16d66c42bf45fe3407b37b94df594fe5ae16209cf346cd2ab9c2cf"),
        ("mobile_handoff_reroute", 31, 2, 14777,
         "974f6f6c7368e0cd98f43eea1da125c664d7254b31e78c21ed47aa28aa203cb1"),
    ])
    def test_every_instant_holds_the_lines_it_held_with_a_deliver_event(
            self, tmp_path, preset, seed, shards, lines, digest):
        # A ``packet.deliver`` line is now written from the node's drain, so
        # within one instant it follows content order instead of scheduling
        # history; per timestamp the *multiset* of lines is what it was.  The
        # digests are of the trace sorted by (t, line) at the commit before.
        import hashlib

        trace = tmp_path / "trace.jsonl"
        run(get_preset(preset), seed=seed, shards=shards, trace_path=str(trace))
        produced = trace.read_text(encoding="utf-8").splitlines(True)
        produced.sort(key=lambda line: (json.loads(line).get("t", 0.0), line))
        assert len(produced) == lines
        assert hashlib.sha256("".join(produced).encode()).hexdigest() == digest
