"""Tests for the ensemble-aggressiveness experiment and the runnable examples."""

import runpy
from pathlib import Path

import pytest

from repro.experiments import aggressiveness
from repro.experiments.runner import run_experiment

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestAggressiveness:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            aggressiveness.run_scenario("hybrid", 2, 1.0)

    def test_cm_ensemble_less_aggressive_than_parallel_tcps(self):
        cm = aggressiveness.run_scenario("cm", 3, duration=8.0)
        independent = aggressiveness.run_scenario("independent", 3, duration=8.0)
        # The single competing flow keeps more of the bottleneck against the
        # CM ensemble than against three independent TCP connections.
        assert cm["reference_share"] > independent["reference_share"]
        # The independent case approaches the 1/(N+1) squeeze the paper warns about.
        assert independent["reference_share"] < 0.45
        # Everybody makes progress.
        assert cm["ensemble_bytes"] > 0
        assert independent["ensemble_bytes"] > 0

    def test_result_table_shape(self):
        result = run_experiment("aggressiveness", n=(2,), duration=4.0)
        assert result.columns[0] == "ensemble_size"
        assert len(result.rows) == 1
        assert 0.0 < result.rows[0][1] <= 1.0
        assert 0.0 < result.rows[0][2] <= 1.0


class TestExamples:
    """Each example must run end to end and print a sensible report."""

    def run_example(self, name, capsys):
        runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
        return capsys.readouterr().out

    def test_quickstart(self, capsys):
        out = self.run_example("quickstart.py", capsys)
        assert "packets sent" in out
        assert "CM rate estimate" in out

    def test_adaptive_audio(self, capsys):
        out = self.run_example("adaptive_audio.py", capsys)
        assert "uncongested path" in out and "constrained path" in out
        assert "dropped by policer" in out

    def test_web_transfer(self, capsys):
        out = self.run_example("web_transfer.py", capsys)
        assert "TCP/CM" in out
        assert "Congestion Manager" in out

    def test_layered_streaming(self, capsys):
        out = self.run_example("layered_streaming.py", capsys)
        assert "alf mode" in out and "rate mode" in out
