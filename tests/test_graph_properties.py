"""Property tests (hypothesis) for GraphSpec / WorkloadSpec and routing.

Three contracts the graph/workload subsystem promises:

* any *valid* spec round-trips ``to_dict`` / ``from_dict`` byte-identically
  (canonical JSON equality, not just ``==``);
* unknown keys are rejected *by name* at every nesting level;
* the static routing tables are a pure function of the link set —
  permuting the declaration order of nodes and links changes nothing;
* the leaf-aware, per-source ``shortest_path_next_hops`` and the bulk
  ``install_routes`` return exactly what the all-pairs search and the
  ``add_route`` loop they replaced returned (kept here as the oracles).
"""

import heapq
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.graph import install_routes, shortest_path_next_hops
from repro.netsim.node import Host, Router
from repro.scenario import (
    GraphLinkSpec,
    GraphNodeSpec,
    GraphSpec,
    HostSpec,
    LinkSpec,
    ScenarioSpec,
    SpecError,
    StopSpec,
    WorkloadSpec,
)

# ---------------------------------------------------------------- strategies

names = st.integers(min_value=0, max_value=25).map(lambda i: f"n{i}")


@st.composite
def graph_specs(draw):
    """Arbitrary *valid* connected graphs: 2-8 nodes, a spanning tree plus
    random extra links, mixed host/router kinds (>= 1 host)."""
    n = draw(st.integers(min_value=2, max_value=8))
    node_names = [f"n{i}" for i in range(n)]
    kinds = draw(st.lists(st.sampled_from(["host", "router"]), min_size=n, max_size=n))
    if "host" not in kinds:
        kinds[draw(st.integers(min_value=0, max_value=n - 1))] = "host"
    nodes = [
        GraphNodeSpec(
            name=name,
            kind=kind,
            cm=draw(st.booleans()) if kind == "host" else False,
            costs=draw(st.booleans()) if kind == "host" else True,
        )
        for name, kind in zip(node_names, kinds)
    ]
    # A random spanning tree keeps the graph connected; extra random links
    # (deduped, no self-loops) exercise multi-path routing.
    pairs = []
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        pairs.append((node_names[j], node_names[i]))
    extra = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=n - 1),
                  st.integers(min_value=0, max_value=n - 1)),
        max_size=5,
    ))
    seen = {tuple(sorted(p)) for p in pairs}
    for i, j in extra:
        if i == j:
            continue
        key = tuple(sorted((node_names[i], node_names[j])))
        if key in seen:
            continue
        seen.add(key)
        pairs.append((node_names[i], node_names[j]))
    links = [
        GraphLinkSpec(
            a=a,
            b=b,
            rate_bps=float(draw(st.integers(min_value=1, max_value=10_000))) * 1e3,
            delay=draw(st.integers(min_value=0, max_value=200)) / 1_000.0,
            queue_limit=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=500))),
            loss_rate=draw(st.integers(min_value=0, max_value=100)) / 1_000.0,
            ecn_threshold=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=50))),
            seed_offset=draw(st.integers(min_value=0, max_value=64)),
        )
        for a, b in pairs
    ]
    return GraphSpec(nodes=nodes, links=links)


@st.composite
def workload_specs(draw):
    """Arbitrary valid workload blocks against a fixed two-host topology."""
    kind = draw(st.sampled_from(["tcp_flows", "web_sessions", "vat_onoff"]))
    params = {}
    if kind in ("tcp_flows", "web_sessions"):
        params["arrival"] = draw(st.sampled_from(["poisson", "weibull"]))
        params["rate"] = draw(st.integers(min_value=1, max_value=50)) / 10.0
    if kind == "tcp_flows":
        params["variant"] = "reno"  # host needs no CM; spec-level property only
        params["min_bytes"] = draw(st.integers(min_value=1_000, max_value=50_000))
    start = draw(st.integers(min_value=0, max_value=5)) / 2.0
    stop = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=10)))
    if stop is not None:
        stop = start + float(stop)
    return WorkloadSpec(
        kind=kind,
        host="a",
        peer="b",
        label=draw(st.sampled_from(["", "w0", "churn"])),
        start=start,
        stop=stop,
        seed_offset=draw(st.integers(min_value=0, max_value=8)),
        params=params,
    )


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def graph_scenario(graph: GraphSpec) -> ScenarioSpec:
    return ScenarioSpec(name="prop", graph=graph, stop=StopSpec(until=1.0))


# ------------------------------------------------------------------- tests


class TestGraphSpecProperties:
    @given(graph_specs())
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    def test_valid_graphs_round_trip_byte_identically(self, graph):
        spec = graph_scenario(graph)
        spec.validate()
        first = canonical(spec.to_dict())
        reparsed = ScenarioSpec.from_dict(json.loads(first))
        reparsed.validate()
        assert canonical(reparsed.to_dict()) == first

    @given(graph_specs(), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    def test_routing_invariant_under_declaration_order_permutation(self, graph, rnd):
        baseline = graph.routing()
        shuffled_nodes = list(graph.nodes)
        shuffled_links = list(graph.links)
        rnd.shuffle(shuffled_nodes)
        rnd.shuffle(shuffled_links)
        permuted = GraphSpec(nodes=shuffled_nodes, links=shuffled_links)
        assert permuted.routing() == baseline

    @given(graph_specs())
    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.too_slow])
    def test_routing_reaches_every_node_pair(self, graph):
        # Validation guarantees connectivity, so every (src, dst) pair must
        # have a next hop that is a declared neighbour of src.
        table = graph.routing()
        neighbours = {name: set() for name in graph.node_names()}
        for link in graph.links:
            neighbours[link.a].add(link.b)
            neighbours[link.b].add(link.a)
        for src in graph.node_names():
            for dst in graph.node_names():
                if src == dst:
                    continue
                assert table[src][dst] in neighbours[src]

    def test_unknown_graph_key_rejected_by_name(self):
        payload = graph_scenario(GraphSpec(
            nodes=[GraphNodeSpec(name="a"), GraphNodeSpec(name="b")],
            links=[GraphLinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01)],
        )).to_dict()
        payload["graph"]["topology"] = "ring"
        with pytest.raises(SpecError, match="'topology'"):
            ScenarioSpec.from_dict(payload)

    def test_unknown_node_key_rejected_by_name(self):
        payload = graph_scenario(GraphSpec(
            nodes=[GraphNodeSpec(name="a"), GraphNodeSpec(name="b")],
            links=[GraphLinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01)],
        )).to_dict()
        payload["graph"]["nodes"][0]["role"] = "gateway"
        with pytest.raises(SpecError, match="'role'"):
            ScenarioSpec.from_dict(payload)

    def test_unknown_graph_link_key_rejected_by_name(self):
        payload = graph_scenario(GraphSpec(
            nodes=[GraphNodeSpec(name="a"), GraphNodeSpec(name="b")],
            links=[GraphLinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01)],
        )).to_dict()
        payload["graph"]["links"][0]["rate_schedule"] = [[1.0, 2e6]]
        with pytest.raises(SpecError, match="'rate_schedule'"):
            ScenarioSpec.from_dict(payload)


class TestWorkloadSpecProperties:
    @given(workload_specs())
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    def test_valid_workloads_round_trip_byte_identically(self, workload):
        spec = ScenarioSpec(
            name="prop",
            hosts=[HostSpec(name="a"), HostSpec(name="b")],
            links=[LinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01)],
            workloads=[workload],
            stop=StopSpec(until=1.0),
        )
        spec.validate()
        first = canonical(spec.to_dict())
        reparsed = ScenarioSpec.from_dict(json.loads(first))
        reparsed.validate()
        assert canonical(reparsed.to_dict()) == first

    def test_unknown_workload_key_rejected_by_name(self):
        spec = ScenarioSpec(
            name="prop",
            hosts=[HostSpec(name="a"), HostSpec(name="b")],
            links=[LinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01)],
            workloads=[WorkloadSpec(kind="tcp_flows", host="a", peer="b")],
            stop=StopSpec(until=1.0),
        )
        payload = spec.to_dict()
        payload["workloads"][0]["burstiness"] = 2.0
        with pytest.raises(SpecError, match="'burstiness'"):
            ScenarioSpec.from_dict(payload)

    def test_unknown_workload_param_rejected_by_name(self):
        spec = WorkloadSpec(kind="tcp_flows", host="a", peer="b",
                            params={"flowrate": 3.0})
        with pytest.raises(SpecError, match="'flowrate'"):
            spec.validate("workloads[0]", ["a", "b"])


class TestShortestPathProperties:
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=9),
                  st.integers(min_value=0, max_value=9),
                  st.integers(min_value=0, max_value=100)),
        min_size=1, max_size=30,
    ))
    @settings(deadline=None, max_examples=60)
    def test_next_hop_tables_are_edge_order_independent(self, triples):
        edges = {}
        for i, j, d in triples:
            if i == j:
                continue
            a, b = f"v{i}", f"v{j}"
            edges[(a, b)] = d / 1000.0
            edges[(b, a)] = d / 1000.0
        if not edges:
            return
        forward = shortest_path_next_hops(edges)
        reversed_insertion = dict(reversed(list(edges.items())))
        assert shortest_path_next_hops(reversed_insertion) == forward


# ------------------------------------------------- routing equivalence oracles


def _reference_next_hops(edges):
    """The all-pairs routine ``shortest_path_next_hops`` replaced, verbatim:
    one path-tuple Dijkstra per node, leaves included."""
    adjacency = {}
    for (a, b), delay in edges.items():
        adjacency.setdefault(a, []).append((b, float(delay)))
        adjacency.setdefault(b, [])
    for neighbours in adjacency.values():
        neighbours.sort()

    table = {}
    for source in sorted(adjacency):
        # Dijkstra keyed by the full (delay, hops, path-names) triple: the
        # heap order *is* the path preference order, so the first time a
        # node is popped its best path is final.
        best = {}
        heap = [(0.0, 0, (source,))]
        while heap:
            delay, hops, path = heapq.heappop(heap)
            node = path[-1]
            if node in best:
                continue
            best[node] = (delay, hops, path)
            for neighbour, edge_delay in adjacency.get(node, ()):
                if neighbour not in best:
                    heapq.heappush(heap, (delay + edge_delay, hops + 1, path + (neighbour,)))
        table[source] = {
            dst: path[1] for dst, (_delay, _hops, path) in best.items() if dst != source
        }
    return table


def _reference_install_routes(nodes, host_addrs, links, next_hops):
    """The ``add_route``-per-entry loop ``install_routes`` replaced, verbatim."""
    for name, node in nodes.items():
        for dst_name, via in next_hops.get(name, {}).items():
            addr = host_addrs.get(dst_name)
            if addr is None:
                continue
            link = links.get((name, via))
            if link is not None:
                node.add_route(addr, link)


@st.composite
def directed_edge_sets(draw):
    """Directed delay-weighted edge sets shaped like what routing must survive.

    A base shape — star, chain, equal-delay mesh (every tie breaks on hops
    and names), or nothing — then leaves hung off arbitrary nodes (so off
    hubs, off chain ends and off other leaves' neighbours), then one-way
    edges (out-degree 1 with in-degree > 1, out-degree 0) and a second,
    disconnected component.  Delays are multiples of 1/64: path sums are
    exact, which is where the leaf rule is exact too (see the docstring of
    ``shortest_path_next_hops``).
    """
    delay = st.integers(min_value=0, max_value=6).map(lambda k: k / 64.0)
    edges = {}

    def both(a, b, d):
        edges[(a, b)] = d
        edges[(b, a)] = d

    shape = draw(st.sampled_from(["star", "chain", "mesh", "none"]))
    n = draw(st.integers(min_value=2, max_value=6))
    core = [f"c{i}" for i in range(n)]
    if shape == "star":
        for name in core[1:]:
            both(core[0], name, draw(delay))
    elif shape == "chain":
        for a, b in zip(core, core[1:]):
            both(a, b, draw(delay))
    elif shape == "mesh":
        d = draw(delay)
        for i, a in enumerate(core):
            for b in core[i + 1:]:
                if draw(st.booleans()):
                    both(a, b, d)
    names = core + [f"x{i}" for i in range(4)]
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        both(f"leaf{i}", draw(st.sampled_from(names + [f"leaf{j}" for j in range(i)])),
             draw(delay))
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names + ["sink"]))
        if a != b:
            edges[(a, b)] = draw(delay)
    if draw(st.booleans()):
        both("island0", "island1", draw(delay))
        if draw(st.booleans()):
            both("island1", "island2", draw(delay))
    return edges


class TestLeafAwareRoutingEquivalence:
    @given(directed_edge_sets())
    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.too_slow])
    def test_whole_table_equals_the_all_pairs_search(self, edges):
        reference = _reference_next_hops(edges)
        produced = shortest_path_next_hops(edges)
        assert produced == reference
        # Same rows in the same destination order: routes install in it.
        assert {s: list(row) for s, row in produced.items()} == {
            s: list(row) for s, row in reference.items()}

    @given(directed_edge_sets(), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    def test_restricted_call_returns_exactly_the_owned_rows(self, edges, rnd):
        reference = _reference_next_hops(edges)
        owned = [name for name in reference if rnd.random() < 0.5]
        rnd.shuffle(owned)
        assert shortest_path_next_hops(edges, sources=owned) == {
            name: reference[name] for name in owned}
        # A name without an edge has no row, restricted or not.
        assert shortest_path_next_hops(edges, sources=owned + ["nowhere"]) == {
            name: reference[name] for name in owned}

    def test_rows_never_alias_each_other(self):
        # Two leaves on one hub read their rows off the same searched row;
        # each still gets a row object of its own, and a shared one is
        # read-only (editing it would edit the hub's row and every leaf's).
        edges = {}
        for leaf in ("a", "b"):
            edges[(leaf, "hub")] = edges[("hub", leaf)] = 0.25
        edges[("hub", "far")] = edges[("far", "hub")] = 0.5
        table = shortest_path_next_hops(edges)
        assert table["a"] == {"hub": "hub", "b": "hub", "far": "hub"}
        assert len({id(row) for row in table.values()}) == len(table)
        with pytest.raises(TypeError):
            table["a"]["far"] = "b"

    def test_a_leaf_row_is_the_dict_it_stands_for(self):
        edges = {}
        for leaf in ("a", "b"):
            edges[(leaf, "hub")] = edges[("hub", leaf)] = 0.25
        edges[("hub", "far")] = edges[("far", "hub")] = 0.5
        row = shortest_path_next_hops(edges)["a"]
        assert list(row.items()) == [("hub", "hub"), ("b", "hub"), ("far", "hub")]
        assert len(row) == 3
        assert "a" not in row and row.get("a") is None
        for missing in ("a", "nowhere"):
            with pytest.raises(KeyError):
                row[missing]

    @given(directed_edge_sets(), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bulk_install_leaves_the_routes_the_add_route_loop_left(self, edges, rnd):
        next_hops = _reference_next_hops(edges)
        names = sorted(next_hops)
        # Routers have no entry in host_addrs; links may be a partial view.
        routers = {name for name in names if rnd.random() < 0.3}
        host_addrs = {name: f"10.0.0.{i}" for i, name in enumerate(names)
                      if name not in routers}
        links = {pair: f"link:{pair[0]}->{pair[1]}" for pair in edges
                 if rnd.random() < 0.8}
        kept = [name for name in names if rnd.random() < 0.9]
        expected, produced = (
            {name: (Router(sim, name) if name in routers
                    else Host(sim, name, host_addrs[name])) for name in kept}
            for sim in (Simulator(), Simulator()))
        for nodes in (expected, produced):
            for node in nodes.values():
                node.add_route("10.0.0.0", "stale")   # a reinstall overwrites in place
        _reference_install_routes(expected, host_addrs, links, next_hops)
        install_routes(produced, host_addrs, links, next_hops)
        for name, node in expected.items():
            assert list(produced[name]._routes.items()) == list(node._routes.items()), name

    @given(directed_edge_sets(), st.randoms(use_true_random=False), st.booleans())
    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    def test_installed_routes_forward_as_the_reference_install_does(self, edges, rnd, whole):
        # The real pipeline, leaf rows included: every address resolves to
        # the link the reference install chose.  An address the reference
        # left unrouted resolves to a leaf's one link (its default route)
        # and to nothing anywhere else.  A slice owns some of the nodes and
        # every link leaving them, as a partial build does.
        reference = _reference_next_hops(edges)
        names = sorted(reference)
        routers = {name for name in names if rnd.random() < 0.3}
        host_addrs = {name: f"10.0.0.{i}" for i, name in enumerate(names)
                      if name not in routers}
        owned = names if whole else [name for name in names if rnd.random() < 0.5]
        links = {pair: f"link:{pair[0]}->{pair[1]}" for pair in edges if pair[0] in owned}
        expected, produced = (
            {name: (Router(sim, name) if name in routers
                    else Host(sim, name, host_addrs[name])) for name in owned}
            for sim in (Simulator(), Simulator()))
        _reference_install_routes(expected, host_addrs, links, reference)
        install_routes(produced, host_addrs, links,
                       shortest_path_next_hops(edges, sources=owned))
        for name, node in expected.items():
            exits = [pair for pair in links if pair[0] == name]
            default = links[exits[0]] if len(exits) == 1 else None
            for dst, addr in host_addrs.items():
                if dst != name:
                    assert produced[name].route_for(addr) == (
                        node.route_for(addr) or default), (name, dst)
