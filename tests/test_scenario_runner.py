"""Building and running scenarios: determinism, equivalence, metrics, CLI."""

import json

import pytest

from repro.experiments.topology import dummynet_pair_spec, lan_pair_spec, wan_pair_spec
from repro.scenario import (
    AppSpec,
    DumbbellSpec,
    HostSpec,
    LinkSpec,
    ScenarioSpec,
    StopSpec,
    build,
    run,
    validate_result_payload,
)
from repro.scenario.cli import main as scenario_main


def tiny_transfer_spec(**stop_overrides) -> ScenarioSpec:
    """A fast-to-run single-transfer scenario used across these tests."""
    stop = dict(until=30.0, when_apps_done=True)
    stop.update(stop_overrides)
    return ScenarioSpec(
        name="tiny_transfer",
        hosts=[HostSpec(name="tx", cm=True), HostSpec(name="rx")],
        links=[LinkSpec(a="tx", b="rx", rate_bps=8e6, delay=0.01, queue_limit=50)],
        apps=[
            AppSpec(app="tcp_listener", host="rx", label="sink", params={"port": 5001}),
            AppSpec(app="tcp_sender", host="tx", peer="rx", label="flow",
                    params={"variant": "cm", "port": 5001, "transfer_bytes": 200_000}),
        ],
        stop=StopSpec(**stop),
        metrics=("apps", "links", "hosts"),
        seed=3,
    )


class TestBuild:
    def test_pair_spec_builds_the_sender_receiver_pair(self):
        scenario = build(lan_pair_spec(), seed=7)
        assert scenario.host("sender").addr == "10.1.0.1"
        assert scenario.host("receiver").addr == "10.2.0.1"
        assert scenario.graph_net.link("sender", "receiver").rate_bps == 100e6
        assert scenario.host("sender").costs is not None

    def test_pair_without_costs(self):
        scenario = build(dummynet_pair_spec(loss_rate=0.0, with_costs=False), seed=1)
        assert scenario.host("sender").costs is None and scenario.host("receiver").costs is None

    def test_each_pair_spec_compiles_to_its_path(self):
        assert build(lan_pair_spec(), seed=2).graph_net.link(
            "sender", "receiver").rate_bps == 100e6
        dummynet = build(dummynet_pair_spec(loss_rate=0.02), seed=2).graph_net
        assert dummynet.link("sender", "receiver").loss_rate == 0.02
        assert dummynet.link("receiver", "sender").loss_rate == 0.0
        wan = build(wan_pair_spec(), seed=2).graph_net
        assert (wan.link("sender", "receiver").delay
                + wan.link("receiver", "sender").delay) == pytest.approx(0.075)

    def test_pair_factories_hand_out_fresh_specs(self):
        # Each trial completes its own spec, so no two calls may share one.
        first, second = dummynet_pair_spec(loss_rate=0.01), dummynet_pair_spec(loss_rate=0.01)
        assert first is not second and first == second
        first.hosts[0].cm = True
        first.apps.append(AppSpec(app="tcp_listener", host="receiver", params={"port": 1}))
        assert not second.hosts[0].cm and not second.apps
        assert build(first, seed=0).host("sender").cm is not None

    def test_cm_attachment_with_named_controller(self):
        spec = ScenarioSpec(
            name="cm",
            hosts=[HostSpec(name="a", cm=True, cm_controller="aimd_rate",
                            cm_scheduler="weighted"), HostSpec(name="b")],
            links=[LinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01)],
        )
        scenario = build(spec, seed=0)
        from repro.core import RateAimdController, WeightedRoundRobinScheduler

        cm = scenario.host("a").cm
        assert cm is not None
        fid = cm.cm_open("10.1.0.1", "10.2.0.1", 1, 2)
        macroflow = cm.macroflow_of(fid)
        assert isinstance(macroflow.controller, RateAimdController)
        assert isinstance(macroflow.scheduler, WeightedRoundRobinScheduler)
        assert scenario.host("b").cm is None

    def test_dumbbell_build_names_hosts_and_attaches_cms(self):
        spec = ScenarioSpec(
            name="bell",
            dumbbell=DumbbellSpec(n_pairs=2, bottleneck_bps=4e6, bottleneck_delay=0.01,
                                  cm_senders=(1,)),
        )
        scenario = build(spec, seed=0)
        assert set(scenario.hosts) == {"sender0", "sender1", "receiver0", "receiver1"}
        assert scenario.host("sender1").cm is not None
        assert scenario.host("sender0").cm is None
        # A dumbbell is a graph: routers ``left`` / ``right``, bottleneck first.
        assert list(scenario.graph_net.nodes)[-2:] == ["left", "right"]
        assert [name for _index, name, _link in scenario.directed_links()][:2] == [
            "left->right", "right->left"]

    def test_sibling_links_get_independent_loss_rngs_by_default(self):
        spec = ScenarioSpec(
            name="two_paths",
            hosts=[HostSpec(name="a1"), HostSpec(name="b1"),
                   HostSpec(name="a2"), HostSpec(name="b2")],
            links=[LinkSpec(a="a1", b="b1", rate_bps=1e6, delay=0.01, loss_rate=0.1),
                   LinkSpec(a="a2", b="b2", rate_bps=1e6, delay=0.01, loss_rate=0.1)],
        )
        scenario = build(spec, seed=4)
        first = scenario.graph_net.link("a1", "b1")._rng
        second = scenario.graph_net.link("a2", "b2")._rng
        assert [first.random() for _ in range(8)] != [second.random() for _ in range(8)]

    def test_build_rejects_invalid_spec(self):
        from repro.scenario import SpecError

        with pytest.raises(SpecError):
            build(ScenarioSpec(name="broken"), seed=0)

    def test_app_needing_cm_fails_with_actionable_error(self):
        from repro.scenario import SpecError

        spec = tiny_transfer_spec()
        spec.hosts[0].cm = False
        with pytest.raises(SpecError, match="requires a Congestion Manager"):
            build(spec, seed=0)


class TestRun:
    def test_transfer_completes_and_reports_metrics(self):
        result = run(tiny_transfer_spec(), seed=3)
        flow = result.app("flow")["metrics"]
        assert flow["done"] is True
        assert flow["bytes_acked"] == 200_000
        sink = result.app("sink")["metrics"]
        assert sink["bytes_received"] == 200_000
        assert any(entry["link"] == "tx->rx" for entry in result.links)
        assert any(entry["host"] == "tx" and "cpu_total_us" in entry for entry in result.hosts)

    def test_when_apps_done_stops_early(self):
        result = run(tiny_transfer_spec(), seed=3)
        assert result.duration_s < 30.0

    def test_fixed_horizon_runs_to_horizon(self):
        result = run(tiny_transfer_spec(until=2.5, when_apps_done=False), seed=3)
        assert result.duration_s == pytest.approx(2.5)

    def test_same_seed_byte_identical_json(self):
        first = run(tiny_transfer_spec(), seed=9).to_json()
        second = run(tiny_transfer_spec(), seed=9).to_json()
        assert first == second

    def test_result_passes_golden_schema(self):
        payload = json.loads(run(tiny_transfer_spec(), seed=3).to_json())
        assert validate_result_payload(payload) == []

    def test_schema_validator_flags_problems(self):
        payload = json.loads(run(tiny_transfer_spec(), seed=3).to_json())
        del payload["spec_digest"]
        payload["apps"][0].pop("metrics")
        problems = validate_result_payload(payload)
        assert any("spec_digest" in p for p in problems)
        assert any("apps[0]" in p for p in problems)

    def test_unfinished_fetches_serialize_as_null_not_nan(self):
        spec = ScenarioSpec(
            name="slow_web",
            hosts=[HostSpec(name="server", cm=True), HostSpec(name="client")],
            links=[LinkSpec(a="server", b="client", rate_bps=1e6, delay=0.05)],
            apps=[
                AppSpec(app="web_server", host="server", params={"port": 80}),
                AppSpec(app="web_client", host="client", peer="server", label="web",
                        params={"server_port": 80, "n_requests": 2, "size": 512 * 1024}),
            ],
            stop=StopSpec(until=0.5),  # far too short for the fetches to finish
        )
        result = run(spec, seed=1)
        text = result.to_json()
        assert "NaN" not in text
        metrics = result.app("web")["metrics"]
        assert metrics["requests_completed"] == 0
        assert all(d is None for d in metrics["durations_ms"])
        json.loads(text, parse_constant=lambda c: pytest.fail(f"non-strict JSON constant {c}"))

    def test_rate_schedule_applied(self):
        spec = tiny_transfer_spec(until=4.0, when_apps_done=False)
        spec.links[0].rate_schedule = ((1.0, 1e6),)
        scenario = build(spec, seed=3)
        from repro.scenario import run_built

        run_built(scenario)
        assert scenario.graph_net.link("tx", "rx").rate_bps == 1e6

    def test_rate_schedule_rescales_both_directions(self):
        # Documented contract (GraphNet.set_rate): a rate_schedule step models
        # reconfiguring one Dummynet pipe, so the reverse (ACK) path rescales
        # with the forward path.  The libcm_*_streaming presets and their
        # pinned results encode this — scoping a step to the forward
        # direction only would shift every golden that uses a schedule.
        spec = tiny_transfer_spec(until=4.0, when_apps_done=False)
        spec.links[0].rate_schedule = ((1.0, 1e6),)
        scenario = build(spec, seed=3)
        from repro.scenario import run_built

        run_built(scenario)
        assert scenario.graph_net.link("tx", "rx").rate_bps == 1e6
        assert scenario.graph_net.link("rx", "tx").rate_bps == 1e6


class TestCli:
    def test_list_runs(self, capsys):
        assert scenario_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "web_vat_mix" in out and "tcp_sender" in out

    def test_dump_then_run_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps(tiny_transfer_spec().to_dict()) + "\n")
        json_dir = tmp_path / "out"
        assert scenario_main(["run", str(spec_path), "--seed", "4",
                              "--json-dir", str(json_dir), "--quiet"]) == 0
        result_path = json_dir / "tiny_transfer.seed4.json"
        payload = json.loads(result_path.read_text())
        assert validate_result_payload(payload) == []
        assert payload["seed"] == 4
        assert scenario_main(["validate", str(result_path)]) == 0

    def test_dump_preset_is_loadable(self, tmp_path):
        out = tmp_path / "preset.json"
        assert scenario_main(["dump", "web_vat_mix", "--output", str(out)]) == 0
        from repro.scenario import ScenarioSpec as Spec

        Spec.from_dict(json.loads(out.read_text())).validate()

    def test_unknown_preset_is_reported(self, capsys):
        assert scenario_main(["run", "no_such_preset"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_invalid_spec_file_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "warp": 9}))
        assert scenario_main(["run", str(bad)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_build_time_spec_error_exits_2(self, tmp_path, capsys):
        spec = tiny_transfer_spec()
        spec.hosts[0].cm = False  # tcp_sender variant=cm now fails at build
        spec_path = tmp_path / "no_cm.json"
        spec_path.write_text(json.dumps(spec.to_dict()) + "\n")
        assert scenario_main(["run", str(spec_path), "--quiet"]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    def test_validate_flags_bad_result(self, tmp_path, capsys):
        bad = tmp_path / "result.json"
        bad.write_text(json.dumps({"name": "x"}))
        assert scenario_main(["validate", str(bad)]) == 1
        assert "schema violation" in capsys.readouterr().err
