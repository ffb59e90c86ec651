"""Scaled-down runs of every experiment harness, checking the paper's qualitative claims.

These are integration tests: each one runs the same code path as the
corresponding benchmark but with reduced workloads so the whole file stays
in the tens of seconds.
"""

import math

import pytest

from repro.experiments import ablations, figure4, figure5
from repro.experiments.base import ExperimentResult, format_table
from repro.experiments.registry import SWEEPS
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import run_trials


class TestResultContainer:
    def test_add_row_and_column(self):
        result = ExperimentResult("x", "t", ["a", "b"])
        result.add_row(1, 2)
        result.add_row(3, 4)
        assert result.column("b") == [2, 4]

    def test_unknown_column(self):
        result = ExperimentResult("x", "t", ["a"])
        with pytest.raises(ValueError):
            result.column("zzz")

    def test_to_text_includes_everything(self):
        result = ExperimentResult("x", "title", ["a"])
        result.add_row(1)
        result.add_series("s", [(0.0, 1.0)])
        result.notes.append("hello")
        text = result.to_text()
        assert "title" in text and "hello" in text and "series: s" in text

    def test_format_table_alignment(self):
        text = format_table(["col", "value"], [["x", 1.234567]])
        assert "1.23" in text


class TestFigure3:
    def test_throughput_decreases_with_loss_and_variants_comparable(self):
        result = run_experiment("figure3", loss=(0.0, 0.02), transfer_bytes=600_000, seed=(1,))
        cm = result.column("tcp_cm_kBps")
        linux = result.column("tcp_linux_kBps")
        assert cm[0] > cm[-1]
        assert linux[0] > linux[-1]
        # At zero loss both sit near the receive-window limit (~450-530 KB/s).
        assert 350 < cm[0] < 600
        assert 350 < linux[0] < 600
        assert 0.9 < cm[0] / linux[0] < 1.1


class TestFigures4And5:
    def test_throughput_and_cpu_comparison(self):
        # One set of trials, reduced by both figures.
        outcomes = run_trials(figure4.SWEEP.trials(nbuffers=(2000, 8000)), jobs=1)
        fig4 = figure4.reduce(outcomes)
        fig5 = figure5.reduce(outcomes)
        # Long transfers: CM throughput within a few percent of native TCP.
        assert abs(fig4.rows[-1][3]) < 5.0
        # CPU overhead of the CM is small but positive.
        diff_points = fig5.rows[-1][3]
        assert 0.0 < diff_points < 5.0


class TestFigure6AndTable1:
    def test_api_cost_ordering(self):
        result = run_experiment("figure6", packet_size=(168, 1400), npackets=300)
        variants = result.columns[1:]
        first_row = dict(zip(variants, result.rows[0][1:]))
        assert first_row["alf_noconnect"] > first_row["alf"] > first_row["tcp_cm"]
        assert first_row["buffered"] > first_row["tcp_cm"]
        # Costs grow with packet size for every API.
        last_row = dict(zip(variants, result.rows[-1][1:]))
        for variant in variants:
            assert last_row[variant] > first_row[variant]

    def test_table1_incremental_operations(self):
        result = run_experiment("table1", packet_size=700, npackets=250)
        rows = {row[0]: dict(zip(result.columns[1:], row[1:])) for row in result.rows}
        assert rows["alf_noconnect"]["ioctl"] > rows["alf"]["ioctl"]
        assert rows["alf"]["ioctl"] > rows["buffered"]["ioctl"]
        assert rows["buffered"]["gettimeofday"] >= 2.0 - 0.1
        assert rows["tcp_cm"]["ioctl"] == 0.0


class TestFigure7:
    def test_sharing_speeds_up_later_requests(self):
        result = run_experiment("figure7", file_size=96 * 1024, n_requests=5)
        cm = result.column("tcp_cm_ms")
        linux = result.column("tcp_linux_ms")
        # Later CM requests are much faster than the first; native TCP's are not.
        assert cm[-1] < 0.8 * cm[0]
        assert linux[-1] > 0.8 * linux[0]
        assert cm[-1] < linux[-1]


class TestFigures8To10:
    def test_alf_adaptation_tracks_bandwidth(self):
        result = run_experiment("figure8", duration=12.0, bandwidth_schedule=((0.0, 16e6), (6.0, 4e6)))
        tx = result.series["transmission_rate"]
        early = [v for t, v in tx if 3.0 <= t < 6.0]
        late = [v for t, v in tx if 8.0 <= t < 12.0]
        assert sum(early) / len(early) > sum(late) / len(late)
        assert result.series["cm_reported_rate"]

    def test_rate_callback_mode_switches_less_often(self):
        fig8 = run_experiment("figure8", duration=10.0)
        fig9 = run_experiment("figure9", duration=10.0)
        switches8 = dict((r[0], r[1]) for r in fig8.rows)["layer_switches"]
        switches9 = dict((r[0], r[1]) for r in fig9.rows)["layer_switches"]
        callbacks9 = dict((r[0], r[1]) for r in fig9.rows)["rate_callbacks"]
        assert switches9 <= switches8
        assert callbacks9 < 200  # threshold-driven, not per-packet

    def test_delayed_feedback_is_bursty_and_slow_to_start(self):
        result = run_experiment("figure10", duration=30.0)
        rows = dict((r[0], r[1]) for r in result.rows)
        assert not math.isnan(rows["time_of_first_rate_increase_s"])
        assert rows["time_of_first_rate_increase_s"] > 1.0
        assert rows["peak_to_mean_ratio"] > 1.2


class TestAblationsAndRunner:
    def test_scheduler_ablation_weighted_share(self):
        result = ablations.run_scheduler_ablation(transfer_bytes=4_000_000)
        shares = {row[0]: row[3] for row in result.rows}
        assert abs(shares["round-robin"] - 0.5) < 0.1
        assert shares["weighted 3:1"] > 0.6

    def test_sharing_ablation(self):
        result = ablations.run_sharing_ablation()
        rows = {row[0]: row for row in result.rows}
        shared_second = rows["shared macroflow"][2]
        split_second = rows["cm_split (no sharing)"][2]
        assert shared_second < split_second

    def test_runner_knows_every_experiment(self):
        assert set(SWEEPS) == {
            "figure3", "figure4", "figure5", "figure6", "table1",
            "figure7", "figure8", "figure9", "figure10", "ablations",
            "aggressiveness", "timeseries", "scale", "hostile", "burstloss",
        }

    def test_runner_rejects_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")

    def test_an_unknown_override_names_the_params(self):
        with pytest.raises(TypeError, match="'transfer_bytes'"):
            run_experiment("figure3", buffers=3)
