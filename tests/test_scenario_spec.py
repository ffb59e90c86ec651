"""Spec-tree validation and JSON round-tripping for the scenario layer."""

import pytest

from repro.scenario import (
    AppSpec,
    DumbbellSpec,
    HostSpec,
    LinkSpec,
    PRESETS,
    ScenarioSpec,
    SpecError,
    StopSpec,
    get_preset,
    known_applications,
    validate_params,
)


def minimal_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        name="minimal",
        hosts=[HostSpec(name="a"), HostSpec(name="b")],
        links=[LinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01)],
        stop=StopSpec(until=1.0),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestValidation:
    def test_minimal_spec_validates(self):
        minimal_spec().validate()

    def test_empty_name_rejected(self):
        with pytest.raises(SpecError, match="name"):
            minimal_spec(name="").validate()

    def test_no_hosts_rejected(self):
        with pytest.raises(SpecError, match="at least one host"):
            ScenarioSpec(name="x").validate()

    def test_duplicate_host_name_rejected(self):
        spec = minimal_spec(hosts=[HostSpec(name="a"), HostSpec(name="a")])
        with pytest.raises(SpecError, match="duplicate host name"):
            spec.validate()

    def test_duplicate_addr_rejected(self):
        spec = minimal_spec(
            hosts=[HostSpec(name="a", addr="10.0.0.1"), HostSpec(name="b", addr="10.0.0.1")]
        )
        with pytest.raises(SpecError, match="duplicate address"):
            spec.validate()

    def test_explicit_addr_colliding_with_generated_default_rejected(self):
        # Host 0 defaults to 10.1.0.1; an explicit 10.1.0.1 elsewhere would
        # silently merge the two hosts' routing.
        spec = minimal_spec(
            hosts=[HostSpec(name="a"), HostSpec(name="b", addr="10.1.0.1")]
        )
        with pytest.raises(SpecError, match="duplicate address '10.1.0.1'"):
            spec.validate()

    def test_link_to_unknown_host_names_known_hosts(self):
        spec = minimal_spec(links=[LinkSpec(a="a", b="nowhere", rate_bps=1e6, delay=0.01)])
        with pytest.raises(SpecError, match="unknown host 'nowhere'.*declared hosts: a, b"):
            spec.validate()

    def test_self_link_rejected(self):
        spec = minimal_spec(links=[LinkSpec(a="a", b="a", rate_bps=1e6, delay=0.01)])
        with pytest.raises(SpecError, match="endpoints must differ"):
            spec.validate()

    @pytest.mark.parametrize("second", [("a", "b"), ("b", "a")])
    def test_duplicate_pair_link_rejected(self, second):
        # Building keeps one link per host pair, so a second one would
        # silently replace the first: 2 Mbit/s instead of the declared 1.
        spec = minimal_spec(links=[LinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01),
                                   LinkSpec(a=second[0], b=second[1], rate_bps=2e6, delay=0.01)])
        with pytest.raises(SpecError, match=r"links\[1\]: duplicate link between .* \(also links\[0\]\)"):
            spec.validate()

    def test_loss_rate_range_checked(self):
        spec = minimal_spec(links=[LinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01, loss_rate=1.5)])
        with pytest.raises(SpecError, match=r"loss_rate: must be < 1"):
            spec.validate()

    def test_rate_schedule_must_increase(self):
        spec = minimal_spec(
            links=[LinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01,
                            rate_schedule=((5.0, 1e6), (2.0, 2e6)))]
        )
        with pytest.raises(SpecError, match="strictly increasing"):
            spec.validate()

    def test_unknown_controller_rejected(self):
        spec = minimal_spec(hosts=[HostSpec(name="a", cm_controller="vegas"), HostSpec(name="b")])
        with pytest.raises(SpecError, match="unknown controller 'vegas'"):
            spec.validate()

    def test_dumbbell_and_hosts_are_exclusive(self):
        spec = minimal_spec(
            dumbbell=DumbbellSpec(n_pairs=1, bottleneck_bps=1e6, bottleneck_delay=0.01)
        )
        with pytest.raises(SpecError, match="dumbbell"):
            spec.validate()

    def test_dumbbell_cm_sender_index_checked(self):
        spec = ScenarioSpec(
            name="bell",
            dumbbell=DumbbellSpec(n_pairs=2, bottleneck_bps=1e6, bottleneck_delay=0.01,
                                  cm_senders=(5,)),
        )
        with pytest.raises(SpecError, match="out of range"):
            spec.validate()

    def test_dumbbell_generates_host_names(self):
        spec = ScenarioSpec(
            name="bell",
            dumbbell=DumbbellSpec(n_pairs=2, bottleneck_bps=1e6, bottleneck_delay=0.01),
        )
        assert spec.host_names() == ["sender0", "sender1", "receiver0", "receiver1"]

    def test_cm_and_costs_must_be_booleans(self):
        spec = minimal_spec(hosts=[HostSpec(name="a", cm="no"), HostSpec(name="b")])
        with pytest.raises(SpecError, match=r"hosts\[0\].cm: must be a boolean"):
            spec.validate()
        spec = minimal_spec(hosts=[HostSpec(name="a", costs="false"), HostSpec(name="b")])
        with pytest.raises(SpecError, match=r"hosts\[0\].costs: must be a boolean"):
            spec.validate()

    def test_duplicate_app_labels_rejected(self):
        spec = minimal_spec(apps=[
            AppSpec(app="tcp_listener", host="b", label="L", params={"port": 80}),
            AppSpec(app="tcp_listener", host="b", label="L", params={"port": 81}),
        ])
        with pytest.raises(SpecError, match=r"apps\[1\].label: duplicate label 'L'"):
            spec.validate()

    def test_unknown_metric_group_rejected(self):
        with pytest.raises(SpecError, match="unknown metric group"):
            minimal_spec(metrics=("apps", "quarks")).validate()

    def test_stop_until_must_be_positive(self):
        with pytest.raises(SpecError, match="stop.until"):
            minimal_spec(stop=StopSpec(until=0.0)).validate()


class TestAppValidation:
    def test_unknown_app_lists_registry(self):
        spec = minimal_spec(apps=[AppSpec(app="quake", host="a")])
        with pytest.raises(SpecError, match="unknown application 'quake'.*registered:"):
            spec.validate()

    def test_app_on_unknown_host_rejected(self):
        spec = minimal_spec(apps=[AppSpec(app="tcp_listener", host="z", params={"port": 80})])
        with pytest.raises(SpecError, match="unknown host 'z'"):
            spec.validate()

    def test_missing_peer_rejected(self):
        spec = minimal_spec(apps=[
            AppSpec(app="tcp_sender", host="a", params={"port": 80, "transfer_bytes": 1000}),
        ])
        with pytest.raises(SpecError, match="needs a peer host"):
            spec.validate()

    def test_unknown_param_is_actionable(self):
        with pytest.raises(SpecError, match="unknown parameter 'prot'.*valid parameters:"):
            validate_params("tcp_listener", {"port": 80, "prot": "tcp"})

    def test_missing_required_param_rejected(self):
        with pytest.raises(SpecError, match="params.port: required parameter"):
            validate_params("tcp_listener", {})

    def test_wrong_param_type_rejected(self):
        with pytest.raises(SpecError, match="expected int, got str"):
            validate_params("tcp_listener", {"port": "eighty"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(SpecError, match="expected int, got"):
            validate_params("tcp_listener", {"port": True})

    def test_param_choices_enforced(self):
        with pytest.raises(SpecError, match="must be one of"):
            validate_params("tcp_sender", {"port": 80, "transfer_bytes": 10, "variant": "cubic"})

    def test_int_accepted_where_float_declared(self):
        params = validate_params("web_client", {"spacing": 1})
        assert params["spacing"] == 1.0 and isinstance(params["spacing"], float)

    def test_nullable_param_accepts_null(self):
        params = validate_params("ack_reflector", {"port": 1, "ack_delay": None})
        assert params["ack_delay"] is None

    def test_defaults_applied(self):
        params = validate_params("tcp_listener", {"port": 80})
        assert params == {"port": 80, "delayed_acks": True}


def ge_loss(**overrides):
    block = {"kind": "gilbert_elliott", "p_good_bad": 0.05, "p_bad_good": 0.3}
    block.update(overrides)
    return block


def red_aqm(**overrides):
    block = {"kind": "red", "min_th": 5, "max_th": 15}
    block.update(overrides)
    return block


def realism_link(**overrides) -> LinkSpec:
    fields = dict(a="a", b="b", rate_bps=1e6, delay=0.01)
    fields.update(overrides)
    return LinkSpec(**fields)


class TestLinkRealismBlocks:
    def test_loss_and_aqm_blocks_validate(self):
        minimal_spec(links=[realism_link(loss=ge_loss(), aqm=red_aqm())]).validate()

    def test_unknown_loss_kind_rejected(self):
        spec = minimal_spec(links=[realism_link(loss=ge_loss(kind="rayleigh"))])
        with pytest.raises(SpecError, match="unknown loss model 'rayleigh'"):
            spec.validate()

    def test_unknown_loss_key_rejected_by_name(self):
        spec = minimal_spec(links=[realism_link(loss=ge_loss(burstiness=3))])
        with pytest.raises(SpecError, match=r"loss: unknown key 'burstiness'"):
            spec.validate()

    def test_loss_transition_probabilities_range_checked(self):
        with pytest.raises(SpecError, match=r"loss\.p_good_bad: must be > 0"):
            minimal_spec(links=[realism_link(loss=ge_loss(p_good_bad=0.0))]).validate()
        with pytest.raises(SpecError, match=r"loss\.p_bad_good: must be <= 1"):
            minimal_spec(links=[realism_link(loss=ge_loss(p_bad_good=1.5))]).validate()
        with pytest.raises(SpecError, match=r"loss\.loss_good: must be < 1"):
            minimal_spec(links=[realism_link(loss=ge_loss(loss_good=1.0))]).validate()

    def test_loss_block_missing_required_key_rejected(self):
        spec = minimal_spec(links=[realism_link(
            loss={"kind": "gilbert_elliott", "p_good_bad": 0.05})])
        with pytest.raises(SpecError, match=r"loss\.p_bad_good: is required"):
            spec.validate()

    def test_loss_model_and_bernoulli_loss_rate_are_exclusive(self):
        spec = minimal_spec(links=[realism_link(loss=ge_loss(), loss_rate=0.1)])
        with pytest.raises(SpecError, match="must stay 0 when a loss model"):
            spec.validate()

    def test_unknown_aqm_kind_rejected(self):
        spec = minimal_spec(links=[realism_link(aqm=red_aqm(kind="codel"))])
        with pytest.raises(SpecError, match="unknown aqm 'codel'"):
            spec.validate()

    def test_aqm_thresholds_must_be_ordered(self):
        spec = minimal_spec(links=[realism_link(aqm=red_aqm(min_th=15, max_th=15))])
        with pytest.raises(SpecError, match=r"aqm\.max_th: must be > min_th"):
            spec.validate()

    def test_aqm_and_legacy_ecn_threshold_are_exclusive(self):
        spec = minimal_spec(links=[realism_link(aqm=red_aqm(), ecn_threshold=10)])
        with pytest.raises(SpecError, match="must stay unset when an aqm"):
            spec.validate()

    def test_graph_links_take_the_same_blocks(self):
        from repro.scenario import GraphLinkSpec, GraphNodeSpec, GraphSpec

        graph = GraphSpec(
            nodes=[GraphNodeSpec(name="a"), GraphNodeSpec(name="b")],
            links=[GraphLinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01,
                                 loss=ge_loss(), aqm=red_aqm())],
        )
        ScenarioSpec(name="g", graph=graph, stop=StopSpec(until=1.0)).validate()
        bad = GraphSpec(
            nodes=[GraphNodeSpec(name="a"), GraphNodeSpec(name="b")],
            links=[GraphLinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01,
                                 loss=ge_loss(p_good_bad=2.0))],
        )
        with pytest.raises(SpecError, match=r"p_good_bad: must be <= 1"):
            ScenarioSpec(name="g", graph=bad, stop=StopSpec(until=1.0)).validate()

    def test_blocks_round_trip_and_are_omitted_when_absent(self):
        spec = minimal_spec(links=[realism_link(loss=ge_loss(), aqm=red_aqm())])
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.links[0].loss == ge_loss()
        # Pre-existing specs must render (and digest) exactly as before the
        # blocks were introduced.
        plain = minimal_spec().to_dict()
        assert "loss" not in plain["links"][0]
        assert "aqm" not in plain["links"][0]

    def test_blocks_change_the_spec_digest(self):
        from repro.scenario.runner import spec_digest

        plain = minimal_spec()
        lossy = minimal_spec(links=[realism_link(loss=ge_loss())])
        tweaked = minimal_spec(links=[realism_link(loss=ge_loss(p_good_bad=0.1))])
        digests = {spec_digest(spec) for spec in (plain, lossy, tweaked)}
        assert len(digests) == 3


class TestRoundTrip:
    def test_from_dict_rejects_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="unknown key 'topology'.*valid keys:"):
            ScenarioSpec.from_dict({"name": "x", "topology": []})

    def test_from_dict_rejects_unknown_nested_key(self):
        data = minimal_spec().to_dict()
        data["hosts"][0]["cpu"] = 2
        with pytest.raises(SpecError, match=r"hosts\[0\]: unknown key 'cpu'"):
            ScenarioSpec.from_dict(data)

    def test_from_dict_rejects_unknown_link_key(self):
        data = minimal_spec().to_dict()
        data["links"][0]["bandwidth"] = 1e6
        with pytest.raises(SpecError, match=r"links\[0\]: unknown key 'bandwidth'"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_validate_and_round_trip(self, name):
        spec = get_preset(name)
        spec.validate()
        clone = ScenarioSpec.from_dict(spec.to_dict())
        clone.validate()
        assert clone.to_dict() == spec.to_dict()

    def test_from_dict_rejects_string_metrics(self):
        data = minimal_spec().to_dict()
        data["metrics"] = "apps"  # would otherwise explode into characters
        with pytest.raises(SpecError, match="metrics: expected a list"):
            ScenarioSpec.from_dict(data)

    def test_malformed_rate_schedule_step_gets_spec_error_not_type_error(self):
        data = minimal_spec().to_dict()
        # A user forgetting the nested pair list is a SpecError with a path,
        # not a raw TypeError from tuple-izing a float.
        data["links"][0]["rate_schedule"] = [6.0, 4e6]
        with pytest.raises(SpecError, match=r"rate_schedule\[0\].*pair"):
            ScenarioSpec.from_dict(data).validate()

    def test_round_trip_preserves_rate_schedule(self):
        spec = minimal_spec(
            links=[LinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01,
                            rate_schedule=((1.0, 2e6), (2.0, 3e6)))]
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.links[0].rate_schedule == ((1.0, 2e6), (2.0, 3e6))


def graph_dict(**graph_overrides):
    """A two-node graph scenario as a JSON dict (for malformed-input cases)."""
    graph = {
        "nodes": [{"name": "a"}, {"name": "b"}],
        "links": [{"a": "a", "b": "b", "rate_bps": 1e6, "delay": 0.01}],
    }
    graph.update(graph_overrides)
    return {"name": "g", "graph": graph, "stop": {"until": 1.0}}


def load(data):
    return ScenarioSpec.from_dict(data).validate()


class TestMalformedInput:
    """Wrong-shaped input is a path-qualified SpecError, never a raw
    TypeError / AttributeError / ValueError (which the service would turn
    into a 500): every field is type-checked from its table entry before
    anything hashes, iterates or compares it."""

    @pytest.mark.parametrize("bad", [[1], {"x": 1}, [[1]]])
    @pytest.mark.parametrize("trail", [
        ("name",), ("description",), ("seed",), ("hosts", 0, "name"), ("hosts", 0, "addr"),
        ("links", 0, "a"), ("links", 0, "rate_bps"), ("links", 0, "queue_limit"),
        ("stop", "until"), ("apps", 0, "app"), ("apps", 0, "host"), ("apps", 0, "label"),
    ])
    def test_container_in_a_scalar_field(self, trail, bad):
        data = minimal_spec(apps=[AppSpec(app="tcp_listener", host="b",
                                          params={"port": 80})]).to_dict()
        target = data
        for step in trail[:-1]:
            target = target[step]
        target[trail[-1]] = bad
        with pytest.raises(SpecError) as caught:
            load(data)
        assert str(trail[-1]) in caught.value.path

    @pytest.mark.parametrize("key", ["hosts", "links", "apps", "workloads"])
    @pytest.mark.parametrize("bad", [5, "abc", True, {"x": 1}])
    def test_non_list_where_a_list_of_blocks_is_expected(self, key, bad):
        data = minimal_spec().to_dict()
        data[key] = bad
        with pytest.raises(SpecError, match=f"^{key}: expected a list"):
            load(data)

    @pytest.mark.parametrize("key", ["nodes", "links", "reroutes"])
    def test_non_list_inside_a_graph_block(self, key):
        with pytest.raises(SpecError, match=rf"^graph\.{key}: expected a list"):
            load(graph_dict(**{key: "abc"}))

    def test_non_mapping_where_a_block_is_expected(self):
        data = minimal_spec().to_dict()
        data["hosts"][0] = 5
        with pytest.raises(SpecError, match=r"^hosts\[0\]: expected a mapping"):
            load(data)
        data = minimal_spec().to_dict()
        data["stop"] = [1.0]
        with pytest.raises(SpecError, match="^stop: expected a mapping"):
            load(data)

    def test_non_mapping_params(self):
        data = minimal_spec(apps=[AppSpec(app="tcp_listener", host="b")]).to_dict()
        data["apps"][0]["params"] = 5
        with pytest.raises(SpecError, match=r"^apps\[0\]\.params: expected dict"):
            load(data)

    def test_non_string_reroute_endpoints(self):
        reroute = {"time": 1.0, "a": 5, "b": ["b"], "delay": 0.02}
        with pytest.raises(SpecError, match=r"^graph\.reroutes\[0\]\.a: expected str"):
            load(graph_dict(reroutes=[reroute]))

    def test_bare_string_is_not_exploded_into_characters(self):
        data = minimal_spec().to_dict()
        data["telemetry"] = {"samplers": "links"}
        with pytest.raises(SpecError, match=r"^telemetry\.samplers: expected a list"):
            load(data)
        data["telemetry"] = {"events": "packet.drop"}
        with pytest.raises(SpecError, match=r"^telemetry\.events: expected a list"):
            load(data)
        bell = {"name": "bell", "dumbbell": {"n_pairs": 2, "bottleneck_bps": 1e6,
                                             "bottleneck_delay": 0.01, "cm_senders": "01"}}
        with pytest.raises(SpecError, match=r"^dumbbell\.cm_senders: expected a list"):
            load(bell)

    def test_missing_required_key_names_it(self):
        data = minimal_spec().to_dict()
        del data["links"][0]["rate_bps"]
        with pytest.raises(SpecError, match=r"^links\[0\]\.rate_bps: is required"):
            ScenarioSpec.from_dict(data)

    def test_python_built_specs_get_the_same_checks(self):
        with pytest.raises(SpecError, match=r"^hosts\[0\]\.name: expected str"):
            minimal_spec(hosts=[HostSpec(name=["a"]), HostSpec(name="b")]).validate()
        with pytest.raises(SpecError, match="^apps: expected a list"):
            minimal_spec(apps=5).validate()
        with pytest.raises(SpecError, match=r"^links\[0\]: expected a LinkSpec"):
            minimal_spec(links=[{"a": "a", "b": "b"}]).validate()


class TestRangesMatchTheConstructors:
    """What validates must build: the table's ranges are the model
    constructors' ranges, and no numeric field takes a non-finite value."""

    def test_loss_rate_one_is_rejected_like_link_does(self):
        # Link.__init__ wants [0, 1); 1.0 used to validate and then escape
        # build() as a bare ValueError.
        for field in ("loss_rate", "reverse_loss_rate"):
            spec = minimal_spec(links=[realism_link(**{field: 1.0})])
            with pytest.raises(SpecError, match=rf"links\[0\]\.{field}: must be < 1"):
                spec.validate()
        with pytest.raises(SpecError, match=r"graph\.links\[0\]\.loss_rate: must be < 1"):
            load(graph_dict(links=[{"a": "a", "b": "b", "rate_bps": 1e6, "delay": 0.01,
                                    "loss_rate": 1.0}]))
        bell = DumbbellSpec(n_pairs=1, bottleneck_bps=1e6, bottleneck_delay=0.01, loss_rate=1.0)
        with pytest.raises(SpecError, match=r"dumbbell\.loss_rate: must be < 1"):
            ScenarioSpec(name="bell", dumbbell=bell).validate()
        minimal_spec(links=[realism_link(loss_rate=0.999)]).validate()

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), 10 ** 400],
                             ids=["inf", "-inf", "nan", "10**400"])
    def test_non_finite_numbers_are_rejected(self, bad):
        with pytest.raises(SpecError, match="stop.until: must be a finite number"):
            minimal_spec(stop=StopSpec(until=bad)).validate()
        with pytest.raises(SpecError, match=r"aqm\.max_th: must be a finite number"):
            minimal_spec(links=[realism_link(aqm=red_aqm(max_th=bad))]).validate()
        with pytest.raises(SpecError, match="start_at: must be a finite number"):
            validate_params("tcp_sender", {"port": 1, "transfer_bytes": 1, "start_at": bad})


class TestValidationCacheSoundness:
    """The content-keyed validation memo must never change an outcome."""

    def test_cache_hit_skips_rewalk_but_same_result(self):
        a = minimal_spec()
        b = minimal_spec()
        assert a.validate() is a
        assert b.validate() is b  # served from the cache, equally valid

    def test_int_float_confusion_never_shares_a_slot(self):
        # seed=1 is valid; seed=1.0 must still raise even though 1 == 1.0
        # would otherwise collide in the cache key.
        minimal_spec(seed=1).validate()
        with pytest.raises(SpecError, match="seed"):
            minimal_spec(seed=1.0).validate()

    def test_bool_int_confusion_never_shares_a_slot(self):
        # stop.until=1 is a valid number; True == 1 but bools are rejected
        # by _check_number and must not reuse the cached success.
        minimal_spec(stop=StopSpec(until=1)).validate()
        with pytest.raises(SpecError, match="until"):
            minimal_spec(stop=StopSpec(until=True)).validate()

    def test_params_cache_keeps_int_param_strict(self):
        validate_params("tcp_listener", {"port": 5001})
        with pytest.raises(SpecError, match="port"):
            validate_params("tcp_listener", {"port": 5001.0})

    def test_specs_differing_only_in_workload_params_never_collide(self):
        # Regression: the memo key predates the workloads block; if the key
        # omitted it, validating a good spec would let an otherwise-equal
        # spec with *invalid* workload params sail through on the cache hit.
        from repro.scenario import WorkloadSpec

        def spec_with(rate):
            return minimal_spec(workloads=[WorkloadSpec(
                kind="tcp_flows", host="a", peer="b", params={"rate": rate})])

        spec_with(2.0).validate()
        with pytest.raises(SpecError, match="rate"):
            spec_with("fast").validate()
        # And two valid-but-different workload params get distinct results.
        spec = spec_with(3.5)
        spec.validate()
        assert spec.workloads[0].normalized_params()["rate"] == 3.5

    def test_specs_differing_only_in_graph_never_collide(self):
        from repro.scenario import GraphLinkSpec, GraphNodeSpec, GraphSpec

        def graph_spec(delay):
            return ScenarioSpec(
                name="memo_graph",
                graph=GraphSpec(
                    nodes=[GraphNodeSpec(name="a"), GraphNodeSpec(name="b")],
                    links=[GraphLinkSpec(a="a", b="b", rate_bps=1e6, delay=delay)],
                ),
                stop=StopSpec(until=1.0),
            )

        graph_spec(0.01).validate()
        with pytest.raises(SpecError, match="delay"):
            graph_spec(-0.5).validate()

    def test_reregistered_application_invalidates_cached_params(self):
        from repro.scenario.applications import APPLICATIONS, Param, register_application
        from repro.scenario.applications import Application

        class FakeApp(Application):
            name = "cache_fake"
            PARAMS = {"n": Param(int, default=1)}

        register_application(FakeApp)
        try:
            spec = minimal_spec(apps=[AppSpec(app="cache_fake", host="a")])
            spec.validate()
            assert spec.apps[0].normalized_params() == {"n": 1}

            class FakeApp2(Application):
                name = "cache_fake"
                PARAMS = {"n": Param(int, default=99)}

            register_application(FakeApp2)
            spec2 = minimal_spec(apps=[AppSpec(app="cache_fake", host="a")])
            spec2.validate()
            assert spec2.apps[0].normalized_params() == {"n": 99}
        finally:
            APPLICATIONS.pop("cache_fake", None)


def test_registry_covers_all_app_layers():
    """Every workload family from the paper is registered."""
    names = known_applications()
    for expected in ("bulk", "web_server", "web_client", "vat", "layered_streaming",
                     "udp_api", "tcp_api", "tcp_sender", "tcp_listener", "ack_reflector"):
        assert expected in names
