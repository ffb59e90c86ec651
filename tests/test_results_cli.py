"""End-to-end CLI tests for ``python -m repro.results`` and its integrations."""

from __future__ import annotations

import json
import os

import pytest

from repro.results.cli import main
from repro.results.store import ResultStore

from test_result_store import (
    bench_report,
    scenario_payload,
    write_foreign_store,
    write_v1_store,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def baseline_dir(tmp_path):
    """A directory shaped like the repo root: checked-in BENCH history."""
    history = {
        "BENCH_PR1": {"event_churn": 1000.0, "grant_dispatch": 500.0},
        "BENCH_PR2": {"event_churn": 1100.0, "grant_dispatch": 520.0, "graph_build": 80.0},
    }
    for label, rows in history.items():
        (tmp_path / f"{label}.json").write_text(json.dumps(bench_report(label, rows)))
    return tmp_path


def run_cli(*argv):
    return main([str(arg) for arg in argv])


# --------------------------------------------------------------------- #
# ingest + query                                                        #
# --------------------------------------------------------------------- #
def test_ingest_then_query_round_trip(tmp_path, baseline_dir, capsys):
    db = tmp_path / "results.sqlite"
    assert run_cli("ingest", "--db", db, baseline_dir) == 0
    out = capsys.readouterr().out
    assert "ingested 2 run(s) (5 row(s))" in out

    assert run_cli("query", "--db", db, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["runs"] == 2
    assert payload["counts"]["bench_rows"] == 5
    assert {run["label"] for run in payload["runs"]} == {"BENCH_PR1", "BENCH_PR2"}

    assert run_cli("query", "--db", db, "--name", "event_churn", "--json") == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["label"] for row in rows] == ["BENCH_PR1", "BENCH_PR2"]


def test_ingest_missing_path_is_strict_failure(tmp_path, capsys):
    db = tmp_path / "results.sqlite"
    assert run_cli("ingest", "--db", db, tmp_path / "nope.json") == 0
    assert run_cli("ingest", "--strict", "--db", db, tmp_path / "nope.json") == 1
    assert "no such file" in capsys.readouterr().out


def test_checked_in_bench_history_ingests_strictly(tmp_path, capsys):
    history = [os.path.join(REPO_ROOT, f"BENCH_PR{k}.json") for k in range(1, 9)]
    db = tmp_path / "history.sqlite"
    assert run_cli("ingest", "--strict", "--db", db, *history) == 0
    summary = capsys.readouterr().out
    assert summary.startswith("ingested 8 run(s)")
    assert summary.rstrip().endswith("0 duplicate(s), 0 skipped")

    assert run_cli("query", "--db", db, "--kind", "bench", "--json") == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [run["label"] for run in runs] == [f"BENCH_PR{k}" for k in range(1, 9)]


def test_reingest_reports_duplicates(tmp_path, baseline_dir, capsys):
    db = tmp_path / "results.sqlite"
    assert run_cli("ingest", "--db", db, baseline_dir) == 0
    capsys.readouterr()
    assert run_cli("ingest", "--strict", "--db", db, baseline_dir) == 0
    assert capsys.readouterr().out.strip() == \
        "ingested 0 run(s) (0 row(s)), 2 duplicate(s), 0 skipped"


def test_ingest_strict_fails_on_a_corrupt_file(tmp_path, capsys):
    db = tmp_path / "results.sqlite"
    torn = tmp_path / "torn.json"
    torn.write_text('{"meta": ')
    assert run_cli("ingest", "--strict", "--db", db, torn) == 1
    assert "corrupt JSON" in capsys.readouterr().out
    assert run_cli("ingest", "--db", db, torn) == 0


@pytest.fixture
def one_of_each(tmp_path):
    """A directory holding one artifact of every family the store ingests."""
    root = tmp_path / "artifacts"
    root.mkdir()
    (root / "BENCH_PR1.json").write_text(json.dumps(bench_report("BENCH_PR1", {"x": 1.0})))
    (root / "web.json").write_text(json.dumps(scenario_payload()))
    (root / "t1.json").write_text(json.dumps(
        {"name": "t1", "title": "", "columns": [], "rows": []}))
    (root / "run.jsonl").write_text(json.dumps({"t": 0.0, "event": "e"}) + "\n")
    return root


@pytest.mark.parametrize("kind", ["bench", "experiment", "scenario", "trace"])
def test_query_kind_lists_only_that_family(kind, tmp_path, one_of_each, capsys):
    db = tmp_path / "results.sqlite"
    assert run_cli("ingest", "--strict", "--db", db, one_of_each) == 0
    capsys.readouterr()
    assert run_cli("query", "--db", db, "--kind", kind, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert [run["kind"] for run in payload["runs"]] == [kind]
    assert payload["counts"]["runs"] == 4


@pytest.mark.parametrize("kind", ["bench", "experiment", "scenario", "trace"])
def test_ingest_label_flag_labels_every_family(kind, tmp_path, one_of_each, capsys):
    db = tmp_path / "results.sqlite"
    assert run_cli("ingest", "--db", db, "--label", "PR6", one_of_each) == 0
    capsys.readouterr()
    assert run_cli("query", "--db", db, "--kind", kind, "--label", "PR6", "--json") == 0
    assert len(json.loads(capsys.readouterr().out)["runs"]) == 1


def test_query_text_output_lists_counts_and_runs(tmp_path, one_of_each, capsys):
    db = tmp_path / "results.sqlite"
    assert run_cli("ingest", "--db", db, "--label", "PR6", one_of_each) == 0
    capsys.readouterr()
    assert run_cli("query", "--db", db, "--kind", "scenario") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("store: 1 bench_rows, 1 experiment_results, 6 metrics, 4 runs,"
                        " 1 scenario_results, 1 trace_events")
    assert len(lines) == 2
    assert lines[1].split() == ["#4", "scenario", "PR6", "web_mix.seed3", "src=web.json"]


def test_query_name_text_output_shows_rate_and_speedup(tmp_path, capsys):
    report = bench_report("BENCH_PR2", {"churn": 12345.0, "plain": 10.0})
    report["benchmarks"]["churn"]["speedup"] = 2.5
    (tmp_path / "BENCH_PR2.json").write_text(json.dumps(report))
    db = tmp_path / "results.sqlite"
    assert run_cli("ingest", "--db", db, tmp_path / "BENCH_PR2.json") == 0
    capsys.readouterr()
    assert run_cli("query", "--db", db, "--name", "churn") == 0
    assert capsys.readouterr().out.split() == \
        ["BENCH_PR2", "churn", "12,345", "ops/s", "x2.50", "vs", "seed"]
    assert run_cli("query", "--db", db, "--name", "plain") == 0
    assert capsys.readouterr().out.split() == ["BENCH_PR2", "plain", "10", "ops/s"]


def test_query_without_db_reads_an_empty_store(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("query", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] == [] and set(payload["counts"].values()) == {0}
    assert os.listdir(tmp_path) == []


def test_query_reads_a_store_written_with_the_v1_schema(tmp_path, capsys):
    db = tmp_path / "old.sqlite"
    write_v1_store(str(db))
    assert run_cli("query", "--db", db, "--name", "event_churn", "--json") == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert (row["label"], row["ops_per_sec"]) == ("PR9", 200.0)
    assert run_cli("query", "--db", db, "--kind", "bench", "--json") == 0
    assert [run["source"] for run in json.loads(capsys.readouterr().out)["runs"]] == \
        ["BENCH_PR9.json"]


@pytest.mark.parametrize("command", [["ingest"], ["query", "--kind", "bench"]])
def test_a_store_with_another_schema_version_exits_2_with_its_error(
        tmp_path, baseline_dir, capsys, command):
    db = tmp_path / "foreign.sqlite"
    write_foreign_store(str(db), "7")
    argv = command + ["--db", db] + ([baseline_dir] if command == ["ingest"] else [])
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {db}: result store schema version 7, expected 1\n"


# --------------------------------------------------------------------- #
# the command surface: ingest and query, nothing else                   #
# --------------------------------------------------------------------- #
def test_help_lists_exactly_ingest_and_query(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("--help")
    assert exit_info.value.code == 0
    assert "{ingest,query}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["compare", "BENCH_PR1", "BENCH_PR2"],
    ["report", "--html", "out.html"],
    ["check"],
    ["query", "--baseline-dir", "."],
], ids=["compare", "report", "check", "baseline-dir"])
def test_retired_commands_and_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# integrations: experiment registration and the scenario CLI            #
# --------------------------------------------------------------------- #
def test_experiment_registration_env_var(tmp_path, monkeypatch):
    from repro.experiments.artifacts import register_artifact
    from repro.experiments.base import ExperimentResult

    db = tmp_path / "results.sqlite"
    monkeypatch.setenv("REPRO_RESULT_STORE", str(db))
    result = ExperimentResult(name="t_env", title="via env", columns=["a"], rows=[[1]])
    assert register_artifact(result, source="t_env.json") is not None
    with ResultStore(str(db)) as store:
        (entry,) = store.experiment_results(name="t_env")
        assert entry["rows"] == [[1]]

    monkeypatch.delenv("REPRO_RESULT_STORE")
    assert register_artifact(result) is None  # no store configured: a no-op


def test_scenario_cli_store_flag(tmp_path, monkeypatch):
    from repro.scenario.cli import main as scenario_main

    monkeypatch.chdir(tmp_path)
    db = tmp_path / "scenario.sqlite"
    trace = tmp_path / "run.jsonl"
    assert scenario_main(["run", "web_vat_mix", "--seed", "2", "--quiet",
                          "--store", str(db), "--trace", str(trace)]) == 0
    with ResultStore(str(db)) as store:
        counts = store.counts()
        assert counts["scenario_results"] == 1
        assert counts["trace_events"] > 0
        (entry,) = store.scenario_results()
        assert entry["seed"] == 2
        assert store.metrics(scenario=entry["payload"]["name"])
