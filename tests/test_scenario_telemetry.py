"""Telemetry through the scenario layer: spec block, runner, CLI, experiment.

The end-to-end contracts of the PR-4 telemetry wiring:

* the ``telemetry:`` block validates eagerly and round-trips strictly;
* ``ScenarioResult`` gains deterministic per-probe time series;
* a ``--trace`` JSONL file is byte-identical per ``(spec, seed)``;
* probes-on vs probes-off produces identical non-telemetry results;
* the ``timeseries`` experiment is registered and byte-stable.
"""

import json

import pytest

from repro.scenario import (
    ScenarioSpec,
    SpecError,
    TelemetrySpec,
    get_preset,
    run,
)
from repro.scenario.cli import main as scenario_main


def streaming_spec(until=4.0, telemetry=None):
    spec = get_preset("libcm_select_streaming")
    spec.stop.until = until
    spec.telemetry = telemetry
    return spec


class TestTelemetrySpecValidation:
    def test_defaults_validate(self):
        spec = streaming_spec(telemetry=TelemetrySpec())
        assert spec.validate() is spec

    def test_unknown_sampler_group_rejected(self):
        spec = streaming_spec(telemetry=TelemetrySpec(samplers=("macroflows", "nope")))
        with pytest.raises(SpecError, match=r"telemetry\.samplers\[1\].*nope"):
            spec.validate()

    def test_unknown_event_rejected(self):
        spec = streaming_spec(telemetry=TelemetrySpec(events=("packet.teleport",)))
        with pytest.raises(SpecError, match=r"telemetry\.events\[0\].*packet\.teleport"):
            spec.validate()

    def test_bad_bounds_rejected(self):
        with pytest.raises(SpecError, match="sample_interval"):
            streaming_spec(telemetry=TelemetrySpec(sample_interval=0.0)).validate()
        with pytest.raises(SpecError, match="ring_capacity"):
            streaming_spec(telemetry=TelemetrySpec(ring_capacity=0)).validate()
        with pytest.raises(SpecError, match="event_recorder"):
            streaming_spec(telemetry=TelemetrySpec(event_recorder="list")).validate()

    def test_round_trip_preserves_block(self):
        spec = streaming_spec(telemetry=TelemetrySpec(
            sample_interval=0.5, samplers=("links",), events=("packet.drop",),
            max_samples=64, ring_capacity=128, event_recorder="reservoir",
        ))
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.telemetry == spec.telemetry
        assert clone.to_dict() == spec.to_dict()

    def test_round_trip_rejects_unknown_telemetry_key(self):
        payload = streaming_spec(telemetry=TelemetrySpec()).to_dict()
        payload["telemetry"]["cadence"] = 1.0
        with pytest.raises(SpecError, match="cadence"):
            ScenarioSpec.from_dict(payload)

    def test_detached_spec_renders_without_telemetry_key(self):
        # Pre-telemetry digests and dumps must stay byte-identical.
        assert "telemetry" not in streaming_spec().to_dict()


class TestRunnerTelemetry:
    def test_result_carries_deterministic_series(self):
        telemetry = TelemetrySpec(
            sample_interval=0.5,
            samplers=("macroflows", "schedulers", "links", "apps"),
            events=("cm.grant", "cm.congestion"),
        )
        a = run(streaming_spec(telemetry=telemetry), seed=1)
        b = run(streaming_spec(telemetry=telemetry), seed=1)
        assert a.to_json() == b.to_json()
        section = a.telemetry
        names = set(section["samples"])
        assert "cm.server.mf1.cwnd" in names
        assert "cm.server.mf1.rate" in names
        assert "cm.server.mf1.pending" in names
        assert any(name.startswith("link.") for name in names)
        assert any(name.startswith("app.") for name in names)
        assert section["events"]["cm.grant"]["count"] > 0
        assert len(section["event_log"]) <= telemetry.ring_capacity
        # The sampled series are (time, value) pairs on the configured cadence.
        cwnd = a.sample_series("cm.server.mf1.cwnd")
        assert cwnd[0][0] == 0.0 and cwnd[1][0] == 0.5

    def test_probes_on_equals_probes_off(self, tmp_path):
        off = run(streaming_spec(), seed=2)
        on = run(streaming_spec(), seed=2, trace_path=str(tmp_path / "t.jsonl"))
        assert on.to_json() == off.to_json()

    def test_detached_result_has_no_telemetry_key(self):
        result = run(streaming_spec(), seed=1)
        assert result.telemetry == {}
        assert "telemetry" not in result.payload()

    def test_trace_file_deterministic_and_canonical(self, tmp_path):
        spec = streaming_spec(telemetry=TelemetrySpec(sample_interval=0.5))
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            run(spec, seed=3, trace_path=str(path))
        first, second = (path.read_bytes() for path in paths)
        assert first == second and first
        events = [json.loads(line) for line in first.decode().splitlines()]
        assert all("t" in event and "event" in event for event in events)
        kinds = {event["event"] for event in events}
        assert "sample" in kinds and "cm.grant" in kinds

    def test_reservoir_event_log(self):
        telemetry = TelemetrySpec(events=("cm.grant",), ring_capacity=32,
                                  event_recorder="reservoir")
        a = run(streaming_spec(telemetry=telemetry), seed=4)
        b = run(streaming_spec(telemetry=telemetry), seed=4)
        assert a.telemetry["event_log"] == b.telemetry["event_log"]
        assert len(a.telemetry["event_log"]) == 32
        assert a.telemetry["events"]["cm.grant"]["count"] > 32
        times = [entry[0] for entry in a.telemetry["event_log"]]
        assert times == sorted(times)


class TestCliTrace:
    def test_run_with_trace_flag(self, tmp_path, capsys):
        trace = tmp_path / "dump.jsonl"
        code = scenario_main([
            "run", "libcm_select_streaming", "--seed", "1",
            "--trace", str(trace), "--quiet",
        ])
        assert code == 0
        assert trace.exists() and trace.stat().st_size > 0

    def test_multi_seed_trace_gets_seed_infix(self, tmp_path):
        trace = tmp_path / "dump.jsonl"
        code = scenario_main([
            "run", "web_vat_mix", "--seeds", "2", "--trace", str(trace), "--quiet",
        ])
        assert code == 0
        assert (tmp_path / "dump.seed1.jsonl").exists()
        assert (tmp_path / "dump.seed2.jsonl").exists()

    def test_dumbbell_bulk_preset_listed_and_valid(self):
        spec = get_preset("dumbbell_bulk")
        assert spec.telemetry is not None
        spec.validate()
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()


class TestTimeseriesExperiment:
    def test_registered_with_smoke_config(self):
        from repro.experiments.registry import get_sweep

        assert get_sweep("timeseries").smoke["duration"] == 6.0

    def test_smoke_run_produces_series_and_is_byte_stable(self):
        from repro.experiments.runner import run_experiment

        a = run_experiment("timeseries", duration=4.0, sample_interval=0.5)
        b = run_experiment("timeseries", duration=4.0, sample_interval=0.5)
        assert a.to_json() == b.to_json()
        assert any(name.startswith("dumbbell_bulk.cm.") and name.endswith(".cwnd")
                   for name in a.series)
        assert any(name.startswith("libcm_select_streaming.cm.") for name in a.series)
        presets = set(a.column("preset"))
        assert presets == {"dumbbell_bulk", "libcm_select_streaming"}
