"""Graph topology compilation and stochastic workload behaviour."""

import pytest

from repro.hostmodel import HostCosts
from repro.netsim import Packet, Simulator, build_graph
from repro.netsim.graph import shortest_path_next_hops
from repro.scenario import (
    AppSpec,
    GraphLinkSpec,
    GraphNodeSpec,
    GraphSpec,
    HostSpec,
    LinkSpec,
    RerouteSpec,
    ScenarioSpec,
    SpecError,
    StopSpec,
    WorkloadSpec,
    build,
    run,
)


def chain_graph() -> GraphSpec:
    """src - r0 - r1 - dst: the smallest multi-hop routed topology."""
    return GraphSpec(
        nodes=[
            GraphNodeSpec(name="src", cm=True),
            GraphNodeSpec(name="r0", kind="router"),
            GraphNodeSpec(name="r1", kind="router"),
            GraphNodeSpec(name="dst"),
        ],
        links=[
            GraphLinkSpec(a="src", b="r0", rate_bps=50e6, delay=0.001),
            GraphLinkSpec(a="r0", b="r1", rate_bps=5e6, delay=0.010),
            GraphLinkSpec(a="r1", b="dst", rate_bps=50e6, delay=0.001),
        ],
    )


def chain_scenario(**overrides) -> ScenarioSpec:
    fields = dict(
        name="chain",
        graph=chain_graph(),
        apps=[
            AppSpec(app="tcp_listener", host="dst", label="listener", params={"port": 5001}),
            AppSpec(app="tcp_sender", host="src", peer="dst", label="flow",
                    params={"variant": "cm", "port": 5001, "transfer_bytes": 200_000}),
        ],
        stop=StopSpec(until=5.0),
        metrics=("apps", "links", "hosts"),
        seed=2,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestShortestPathRouting:
    def test_delay_metric_prefers_the_faster_path(self):
        # a-b direct is slower (30ms) than a-c-b (10+10ms): route via c.
        table = shortest_path_next_hops({
            ("a", "b"): 0.030, ("b", "a"): 0.030,
            ("a", "c"): 0.010, ("c", "a"): 0.010,
            ("c", "b"): 0.010, ("b", "c"): 0.010,
        })
        assert table["a"]["b"] == "c"
        assert table["b"]["a"] == "c"

    def test_equal_delay_prefers_fewer_hops_then_names(self):
        # Two equal-delay paths a->b: direct (0.02) and via c (0.01+0.01);
        # the direct link wins on hop count.
        table = shortest_path_next_hops({
            ("a", "b"): 0.020, ("b", "a"): 0.020,
            ("a", "c"): 0.010, ("c", "a"): 0.010,
            ("c", "b"): 0.010, ("b", "c"): 0.010,
        })
        assert table["a"]["b"] == "b"

    def test_unreachable_destinations_are_absent(self):
        table = shortest_path_next_hops({("a", "b"): 0.01, ("b", "a"): 0.01,
                                         ("c", "d"): 0.01, ("d", "c"): 0.01})
        assert "c" not in table["a"]
        assert "a" in table["b"]


class TestBuildGraph:
    def test_multi_hop_delivery_through_routers(self):
        sim = Simulator()
        net = build_graph(
            sim,
            nodes=[{"name": "h0"}, {"name": "r", "kind": "router"}, {"name": "h1"}],
            links=[{"a": "h0", "b": "r", "rate_bps": 1e6, "delay": 0.001},
                   {"a": "r", "b": "h1", "rate_bps": 1e6, "delay": 0.001}],
            host_costs_factory=HostCosts,
        )
        h0, h1 = net.hosts["h0"], net.hosts["h1"]
        received = []
        h1.ip.register_handler("udp", 9, received.append)
        h0.ip.send(Packet(src=h0.addr, dst=h1.addr, sport=9, dport=9,
                          payload_bytes=100, protocol="udp"))
        sim.run()
        assert len(received) == 1
        assert net.nodes["r"].ip.packets_forwarded == 1

    def test_router_counts_unroutable_forward_drops(self):
        sim = Simulator()
        net = build_graph(
            sim,
            nodes=[{"name": "h0"}, {"name": "r", "kind": "router"}, {"name": "h1"}],
            links=[{"a": "h0", "b": "r", "rate_bps": 1e6, "delay": 0.001},
                   {"a": "r", "b": "h1", "rate_bps": 1e6, "delay": 0.001}],
        )
        router = net.nodes["r"]
        router.ip.receive(Packet(src="10.9.9.9", dst="10.99.0.1", sport=1,
                                 dport=1, payload_bytes=10, protocol="udp"))
        assert router.ip.forward_drops == 1
        assert router.ip.packets_forwarded == 0

    def test_a_leaf_sends_an_address_outside_the_graph_to_its_neighbour(self):
        # A single-link node routes through its link as a host does through
        # its default gateway: it holds no per-destination entries, does not
        # raise NoRouteError, and the neighbour (which has a choice of exit
        # and no entry for the address) drops the packet and counts it.
        sim = Simulator()
        net = build_graph(
            sim,
            nodes=[{"name": "h0"}, {"name": "r", "kind": "router"}, {"name": "h1"}],
            links=[{"a": "h0", "b": "r", "rate_bps": 1e6, "delay": 0.001},
                   {"a": "r", "b": "h1", "rate_bps": 1e6, "delay": 0.001}],
        )
        h0, router = net.hosts["h0"], net.nodes["r"]
        assert h0._routes == {}
        assert h0.route_for("10.99.0.1") is net.link("h0", "r")
        assert h0.ip.send(Packet(src=h0.addr, dst="10.99.0.1", sport=1, dport=1,
                                 payload_bytes=10, protocol="udp"))
        sim.run()
        assert router.ip.forward_drops == 1
        assert router.ip.packets_forwarded == 0

    def test_routers_never_get_cost_ledgers(self):
        sim = Simulator()
        net = build_graph(
            sim,
            nodes=[{"name": "h0"}, {"name": "r", "kind": "router"}],
            links=[{"a": "h0", "b": "r", "rate_bps": 1e6, "delay": 0.001}],
            host_costs_factory=HostCosts,
        )
        assert net.hosts["h0"].costs is not None
        assert net.nodes["r"].costs is None


class TestGraphScenarios:
    def test_chain_scenario_transfers_end_to_end(self):
        result = run(chain_scenario(), seed=2)
        assert result.app("flow")["metrics"]["done"] is True
        assert result.app("flow")["metrics"]["bytes_acked"] == 200_000
        # Every directed link reports metrics; the bottleneck carried data.
        links = {entry["link"]: entry for entry in result.links}
        assert set(links) == {"src->r0", "r0->src", "r0->r1", "r1->r0",
                              "r1->dst", "dst->r1"}
        assert links["r0->r1"]["delivered_packets"] > 0
        # Host metrics cover end systems only (routers have no CPU model).
        assert {entry["host"] for entry in result.hosts} == {"src", "dst"}

    def test_graph_scenario_is_byte_deterministic(self):
        spec = chain_scenario()
        assert run(spec, seed=7).to_json() == run(spec, seed=7).to_json()

    def test_apps_cannot_be_placed_on_routers(self):
        spec = chain_scenario(apps=[
            AppSpec(app="tcp_listener", host="r0", params={"port": 5001}),
        ])
        with pytest.raises(SpecError, match="unknown host 'r0'"):
            spec.validate()

    def test_cm_on_router_rejected(self):
        graph = chain_graph()
        graph.nodes[1] = GraphNodeSpec(name="r0", kind="router", cm=True)
        with pytest.raises(SpecError, match="routers cannot run a Congestion Manager"):
            chain_scenario(graph=graph, apps=[]).validate()

    def test_disconnected_graph_rejected(self):
        graph = GraphSpec(
            nodes=[GraphNodeSpec(name="a"), GraphNodeSpec(name="b"),
                   GraphNodeSpec(name="c")],
            links=[GraphLinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01)],
        )
        with pytest.raises(SpecError, match="disconnected.*'c'"):
            ScenarioSpec(name="x", graph=graph).validate()

    def test_parallel_links_rejected(self):
        graph = GraphSpec(
            nodes=[GraphNodeSpec(name="a"), GraphNodeSpec(name="b")],
            links=[GraphLinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01),
                   GraphLinkSpec(a="b", b="a", rate_bps=2e6, delay=0.01)],
        )
        with pytest.raises(SpecError, match="duplicate link"):
            ScenarioSpec(name="x", graph=graph).validate()

    def test_graph_and_hosts_are_exclusive(self):
        spec = chain_scenario(hosts=[HostSpec(name="extra")])
        with pytest.raises(SpecError, match="graph"):
            spec.validate()

    def test_graph_and_dumbbell_are_exclusive(self):
        from repro.scenario import DumbbellSpec

        spec = chain_scenario(
            dumbbell=DumbbellSpec(n_pairs=1, bottleneck_bps=1e6, bottleneck_delay=0.01))
        with pytest.raises(SpecError, match="dumbbell or a graph"):
            spec.validate()


def workload_scenario(workload: WorkloadSpec, until: float = 5.0, **overrides) -> ScenarioSpec:
    fields = dict(
        name="wl",
        hosts=[HostSpec(name="src", cm=True), HostSpec(name="dst")],
        links=[LinkSpec(a="src", b="dst", rate_bps=10e6, delay=0.005)],
        workloads=[workload],
        stop=StopSpec(until=until),
        metrics=("apps", "links"),
        seed=6,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestWorkloadGenerators:
    def test_arrival_window_bounds_generation(self):
        late = WorkloadSpec(kind="tcp_flows", host="src", peer="dst", label="late",
                            start=10.0, params={"rate": 20.0})
        result = run(workload_scenario(late, until=3.0), seed=1)
        assert result.workload("late")["metrics"]["flows_started"] == 0

        windowed = WorkloadSpec(kind="tcp_flows", host="src", peer="dst", label="win",
                                start=0.0, stop=1.0, params={"rate": 8.0})
        result = run(workload_scenario(windowed, until=6.0), seed=1)
        started = result.workload("win")["metrics"]["flows_started"]
        # Arrivals only inside [0, 1]: far fewer than 6 s at 8/s could make.
        assert 1 <= started <= 16

    def test_max_active_cap_counts_suppressed_arrivals(self):
        capped = WorkloadSpec(
            kind="tcp_flows", host="src", peer="dst", label="capped",
            params={"rate": 30.0, "max_active": 1, "min_bytes": 500_000,
                    "max_bytes": 2_000_000, "reap_interval": 2.0},
        )
        result = run(workload_scenario(capped, until=3.0), seed=2)
        metrics = result.workload("capped")["metrics"]
        assert metrics["flows_suppressed"] > 0

    def test_different_seeds_draw_different_trajectories(self):
        spec = workload_scenario(WorkloadSpec(
            kind="tcp_flows", host="src", peer="dst", label="w",
            params={"rate": 4.0}))
        a = run(spec, seed=1).workload("w")["metrics"]
        b = run(spec, seed=2).workload("w")["metrics"]
        assert a != b

    def test_web_sessions_complete_against_a_web_server(self):
        spec = workload_scenario(
            WorkloadSpec(kind="web_sessions", host="dst", peer="src", label="sessions",
                         params={"rate": 2.0, "requests_mean": 2.0,
                                 "max_bytes": 64 * 1024}),
            until=6.0,
            apps=[AppSpec(app="web_server", host="src", label="server",
                          params={"port": 80, "variant": "cm"})],
        )
        result = run(spec, seed=3)
        metrics = result.workload("sessions")["metrics"]
        assert metrics["sessions_started"] >= 2
        assert metrics["requests_completed"] >= 1
        assert result.app("server")["metrics"]["requests_served"] >= metrics["requests_completed"]

    def test_vat_onoff_churns_fresh_cm_flows_per_burst(self):
        spec = workload_scenario(
            WorkloadSpec(kind="vat_onoff", host="src", peer="dst", label="audio",
                         params={"mean_on": 0.8, "mean_off": 0.4}),
            until=6.0,
            apps=[AppSpec(app="ack_reflector", host="dst", label="sink",
                          params={"port": 9001})],
        )
        scenario = build(spec, seed=5)
        from repro.scenario.runner import run_built

        result = run_built(scenario)
        metrics = result.workload("audio")["metrics"]
        assert metrics["bursts"] >= 2
        assert metrics["frames_sent"] > 0
        # Every burst's CM-UDP flow was closed on detach.
        assert scenario.hosts["src"].cm.open_flow_count == 0

    def test_workload_needing_cm_rejected_without_one(self):
        spec = workload_scenario(
            WorkloadSpec(kind="vat_onoff", host="src", peer="dst",
                         params={}),
            hosts=[HostSpec(name="src"), HostSpec(name="dst")],
        )
        with pytest.raises(SpecError, match="Congestion Manager"):
            build(spec, seed=1)

    def test_unknown_workload_kind_lists_registry(self):
        spec = workload_scenario(WorkloadSpec(kind="carrier_pigeons", host="src",
                                              peer="dst"))
        with pytest.raises(SpecError, match="tcp_flows"):
            spec.validate()

    def test_missing_peer_rejected(self):
        spec = workload_scenario(WorkloadSpec(kind="tcp_flows", host="src"))
        with pytest.raises(SpecError, match="peer"):
            spec.validate()


def diamond_graph(**overrides) -> GraphSpec:
    """src reaches dst over a fast path (via ra) and a slow one (via rb)."""
    fields = dict(
        nodes=[
            GraphNodeSpec(name="src", cm=True),
            GraphNodeSpec(name="ra", kind="router"),
            GraphNodeSpec(name="rb", kind="router"),
            GraphNodeSpec(name="dst"),
        ],
        links=[
            GraphLinkSpec(a="src", b="ra", rate_bps=10e6, delay=0.001),
            GraphLinkSpec(a="ra", b="dst", rate_bps=10e6, delay=0.001),
            GraphLinkSpec(a="src", b="rb", rate_bps=10e6, delay=0.010),
            GraphLinkSpec(a="rb", b="dst", rate_bps=10e6, delay=0.010),
        ],
    )
    fields.update(overrides)
    return GraphSpec(**fields)


class TestMidRunReroute:
    def test_apply_reroute_switches_next_hops_and_link_delay(self):
        sim = Simulator()
        net = build_graph(
            sim,
            nodes=[{"name": "h0"}, {"name": "ra", "kind": "router"},
                   {"name": "rb", "kind": "router"}, {"name": "h1"}],
            links=[{"a": "h0", "b": "ra", "rate_bps": 1e6, "delay": 0.001},
                   {"a": "ra", "b": "h1", "rate_bps": 1e6, "delay": 0.001},
                   {"a": "h0", "b": "rb", "rate_bps": 1e6, "delay": 0.010},
                   {"a": "rb", "b": "h1", "rate_bps": 1e6, "delay": 0.010}],
        )
        assert net.next_hops["h0"]["h1"] == "ra"
        net.apply_reroute("h0", "ra", 0.05)
        assert net.next_hops["h0"]["h1"] == "rb"
        # The physical link got slower in both directions, not just the table.
        assert net.links[("h0", "ra")].delay == 0.05
        assert net.links[("ra", "h0")].delay == 0.05
        h0, h1 = net.hosts["h0"], net.hosts["h1"]
        received = []
        h1.ip.register_handler("udp", 9, received.append)
        h0.ip.send(Packet(src=h0.addr, dst=h1.addr, sport=9, dport=9,
                          payload_bytes=100, protocol="udp"))
        sim.run()
        assert len(received) == 1
        assert net.nodes["rb"].ip.packets_forwarded == 1
        assert net.nodes["ra"].ip.packets_forwarded == 0

    def reroute_scenario(self, reroutes=()) -> ScenarioSpec:
        return ScenarioSpec(
            name="handoff",
            graph=diamond_graph(reroutes=list(reroutes)),
            apps=[
                AppSpec(app="tcp_listener", host="dst", label="listener",
                        params={"port": 5001}),
                # reno: the CM's rate estimate takes a while to re-converge
                # after a 10x RTT jump, so plain Reno keeps this test about
                # the routing handoff rather than CM ramp-up dynamics.
                AppSpec(app="tcp_sender", host="src", peer="dst", label="flow",
                        params={"variant": "reno", "port": 5001,
                                "transfer_bytes": 2_000_000}),
            ],
            stop=StopSpec(until=8.0),
            metrics=("apps", "links"),
            seed=3,
        )

    def test_scheduled_reroute_shifts_traffic_mid_run(self):
        steady = run(self.reroute_scenario(), seed=3)
        links = {entry["link"]: entry for entry in steady.links}
        assert links["src->rb"]["delivered_packets"] == 0  # fast path only

        rerouted = run(self.reroute_scenario(
            [RerouteSpec(time=0.7, a="src", b="ra", delay=0.08)]), seed=3)
        links = {entry["link"]: entry for entry in rerouted.links}
        # Traffic used the fast path first, then handed off to the detour.
        assert links["src->ra"]["delivered_packets"] > 0
        assert links["src->rb"]["delivered_packets"] > 0
        assert rerouted.app("flow")["metrics"]["done"] is True

    def test_reroute_scenario_is_byte_deterministic(self):
        spec = self.reroute_scenario(
            [RerouteSpec(time=0.7, a="src", b="ra", delay=0.08)])
        assert run(spec, seed=5).to_json() == run(spec, seed=5).to_json()

    def test_reroute_on_undeclared_link_rejected(self):
        graph = diamond_graph(reroutes=[RerouteSpec(time=1.0, a="src", b="dst",
                                                    delay=0.05)])
        with pytest.raises(SpecError, match="no declared link between 'src' and 'dst'"):
            ScenarioSpec(name="x", graph=graph, stop=StopSpec(until=2.0)).validate()

    def test_reroute_time_must_be_positive(self):
        graph = diamond_graph(reroutes=[RerouteSpec(time=0.0, a="src", b="ra",
                                                    delay=0.05)])
        with pytest.raises(SpecError, match=r"reroutes\[0\]\.time"):
            ScenarioSpec(name="x", graph=graph, stop=StopSpec(until=2.0)).validate()

    def test_reroute_times_must_be_non_decreasing(self):
        graph = diamond_graph(reroutes=[
            RerouteSpec(time=3.0, a="src", b="ra", delay=0.05),
            RerouteSpec(time=2.0, a="src", b="rb", delay=0.05),
        ])
        with pytest.raises(SpecError, match="non-decreasing"):
            ScenarioSpec(name="x", graph=graph, stop=StopSpec(until=5.0)).validate()

    def test_reroutes_round_trip_and_are_omitted_when_empty(self):
        spec = ScenarioSpec(
            name="x",
            graph=diamond_graph(reroutes=[RerouteSpec(time=1.5, a="src", b="ra",
                                                      delay=0.02)]),
            stop=StopSpec(until=2.0))
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.graph.reroutes[0].delay == 0.02
        plain = ScenarioSpec(name="x", graph=diamond_graph(),
                             stop=StopSpec(until=2.0)).to_dict()
        assert "reroutes" not in plain["graph"]

    def test_reroutes_change_the_spec_digest(self):
        from repro.scenario.runner import spec_digest

        plain = ScenarioSpec(name="x", graph=diamond_graph(), stop=StopSpec(until=2.0))
        moved = ScenarioSpec(
            name="x",
            graph=diamond_graph(reroutes=[RerouteSpec(time=1.0, a="src", b="ra",
                                                      delay=0.05)]),
            stop=StopSpec(until=2.0))
        assert spec_digest(plain) != spec_digest(moved)


class TestUdpBlast:
    def blast_spec(self, **params):
        merged = {"rate_bps": 2_000_000.0, "packet_bytes": 1_000, "port": 9900}
        merged.update(params)
        return workload_scenario(
            WorkloadSpec(kind="udp_blast", host="src", peer="dst", label="blast",
                         params=merged),
            until=2.0)

    def test_cbr_offered_load_and_delivery(self):
        result = run(self.blast_spec(), seed=4)
        metrics = result.workload("blast")["metrics"]
        # 2 Mbit/s in 1000-byte datagrams = 250 pkt/s over 2 s.
        assert 495 <= metrics["packets_sent"] <= 505
        assert 0 < metrics["packets_delivered"] <= metrics["packets_sent"]
        assert metrics["bytes_delivered"] == metrics["packets_delivered"] * 1_000
        # The 10 Mbit/s link is uncongested: nothing is lost, though the
        # final datagram may still be in flight at the stop horizon.
        assert metrics["packets_delivered"] >= metrics["packets_sent"] - 2

    def test_blast_never_joins_the_cm(self):
        # The source socket is deliberately unconnected, so even though the
        # host runs a CM the stream opens no CM flow and is never regulated.
        scenario = build(self.blast_spec(), seed=4)
        from repro.scenario.runner import run_built

        result = run_built(scenario)
        assert result.workload("blast")["metrics"]["packets_sent"] > 0
        assert scenario.hosts["src"].cm.open_flow_count == 0

    def test_blast_respects_the_arrival_window(self):
        spec = workload_scenario(
            WorkloadSpec(kind="udp_blast", host="src", peer="dst", label="blast",
                         start=0.5, stop=1.0,
                         params={"rate_bps": 800_000.0, "packet_bytes": 1_000}),
            until=3.0)
        metrics = run(spec, seed=1).workload("blast")["metrics"]
        # 100 pkt/s confined to a 0.5 s window.
        assert 45 <= metrics["packets_sent"] <= 55


class TestTimeVaryingArrivals:
    def test_flash_crowd_outdraws_the_poisson_baseline(self):
        def flows_started(arrival_params):
            spec = workload_scenario(
                WorkloadSpec(kind="tcp_flows", host="src", peer="dst", label="w",
                             params={"rate": 1.0, "max_active": 64,
                                     "min_bytes": 2_000, "max_bytes": 20_000,
                                     **arrival_params}),
                until=6.0)
            return run(spec, seed=11).workload("w")["metrics"]["flows_started"]

        poisson = flows_started({})
        flash = flows_started({"arrival": "flash_crowd", "flash_peak": 12.0,
                               "flash_at": 3.0, "flash_width": 1.0})
        assert flash > 2 * max(poisson, 1)

    def test_diurnal_arrivals_run_end_to_end(self):
        spec = workload_scenario(
            WorkloadSpec(kind="web_sessions", host="dst", peer="src", label="sessions",
                         params={"rate": 3.0, "arrival": "diurnal",
                                 "diurnal_period": 4.0, "diurnal_depth": 0.7,
                                 "max_bytes": 64 * 1024}),
            until=6.0,
            apps=[AppSpec(app="web_server", host="src", label="server",
                          params={"port": 80, "variant": "cm"})],
        )
        result = run(spec, seed=13)
        metrics = result.workload("sessions")["metrics"]
        assert metrics["sessions_started"] >= 2
        assert metrics["requests_completed"] >= 1

    def test_time_varying_trajectory_is_byte_deterministic(self):
        spec = workload_scenario(
            WorkloadSpec(kind="tcp_flows", host="src", peer="dst", label="w",
                         params={"rate": 2.0, "arrival": "flash_crowd"}),
            until=4.0)
        assert run(spec, seed=3).to_json() == run(spec, seed=3).to_json()


class TestWorkloadsOnGraphs:
    def test_churn_across_a_routed_path(self):
        spec = chain_scenario(
            apps=[],
            workloads=[WorkloadSpec(
                kind="tcp_flows", host="src", peer="dst", label="churn",
                params={"rate": 3.0, "min_bytes": 8_000, "max_bytes": 60_000},
            )],
            stop=StopSpec(until=6.0),
        )
        result = run(spec, seed=8)
        metrics = result.workload("churn")["metrics"]
        assert metrics["flows_completed"] >= 3
        links = {entry["link"]: entry for entry in result.links}
        assert links["r0->r1"]["delivered_packets"] > 0
