"""CLI runner behaviour (error isolation, flags) and JSON artifact round-trips."""

import json

import pytest

from repro.experiments import artifacts, runner
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import SWEEPS
from repro.experiments.sweep import Sweep


def _quick_reduce(outcomes):
    result = ExperimentResult("_quick", "a fake instant experiment", ["x", "y"])
    for outcome in outcomes:
        result.add_row(outcome.spec.params["x"], outcome.value)
    result.add_series("s", [(0.0, 1.0), (1.0, 2.0)])
    return result


def _explode(params):
    raise RuntimeError("trial exploded")


@pytest.fixture
def fake_experiments(monkeypatch):
    """Register one instant experiment and one whose trial always raises."""
    monkeypatch.setitem(
        SWEEPS, "_quick", Sweep("_quick", [("x", (1, 2))], {}, lambda params: params["x"] * 10, _quick_reduce)
    )
    monkeypatch.setitem(SWEEPS, "_boom", Sweep("_boom", [("x", (1,))], {}, _explode, _quick_reduce))


class TestRunnerMain:
    def test_failing_experiment_reports_and_continues(self, fake_experiments, capsys):
        exit_code = runner.main(["_boom", "_quick", "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "experiment _boom failed" in captured.err
        assert "trial exploded" in captured.err
        # The run continued past the failure and printed the good result.
        assert "a fake instant experiment" in captured.out

    def test_unknown_experiment_exit_code(self, capsys):
        assert runner.main(["nosuchthing", "--quiet"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bad_flag_values_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["figure3", "--jobs", "0"])
        with pytest.raises(SystemExit):
            runner.main(["figure3", "--seeds", "0"])

    def test_json_dir_writes_payload_and_sidecar(self, fake_experiments, tmp_path, capsys):
        out = tmp_path / "out"
        exit_code = runner.main(["_quick", "--quiet", "--json-dir", str(out), "--jobs", "2"])
        assert exit_code == 0
        payload = json.loads((out / "_quick.json").read_text())
        assert payload["rows"] == [[1, 10], [2, 20]]
        meta = json.loads((out / "_quick.meta.json").read_text())
        assert meta["jobs"] == 2 and meta["trials"] == 2

    def test_registry_lists_the_experiments_the_cli_runs(self):
        assert "figure3" in SWEEPS and "aggressiveness" in SWEEPS


class TestArtifacts:
    def test_result_json_round_trip(self):
        result = ExperimentResult("x", "title", ["a", "b"])
        result.add_row(1, 2.5)
        result.add_series("s", [(0.0, 1.0)])
        result.notes.append("note")
        clone = ExperimentResult.from_json(result.to_json())
        assert clone.payload() == result.payload()
        assert clone.to_json() == result.to_json()
        assert clone.series["s"] == [(0.0, 1.0)]

    def test_write_and_read_artifacts(self, tmp_path):
        result = ExperimentResult("demo", "t", ["v"])
        result.add_row(42)
        result.provenance = {"jobs": 3, "seeds": [1, 2, 3]}
        payload_path, meta_path = artifacts.write_artifacts(result, str(tmp_path))
        loaded = artifacts.read_artifact(payload_path)
        assert loaded.rows == [[42]]
        assert loaded.provenance["jobs"] == 3
        assert json.loads(open(meta_path).read())["seeds"] == [1, 2, 3]

    def test_provenance_contents(self):
        meta = artifacts.build_provenance(
            experiment="figure3", seeds=(1, 2), jobs=4, wall_clock_s=1.5, n_trials=8
        )
        for key in ("git_revision", "timestamp", "python", "wall_clock_s"):
            assert key in meta
        assert meta["seeds"] == [1, 2] and meta["trials"] == 8

    def test_git_revision_is_hex_or_unknown(self):
        revision = artifacts.git_revision()
        assert revision == "unknown" or all(c in "0123456789abcdef" for c in revision)
