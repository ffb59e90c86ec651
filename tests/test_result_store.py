"""Result store: ingest/query round trips, dedup, corruption tolerance, gate math."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.results.analytics import check_regressions, compare_labels
from repro.results.labels import (
    current_pr_label,
    derive_bench_label,
    label_sort_key,
    sort_labels,
)
from repro.results.store import IngestReport, ResultStore, classify_payload

# --------------------------------------------------------------------- #
# fixtures                                                              #
# --------------------------------------------------------------------- #
MACHINE = {
    "python": "3.11.7",
    "implementation": "CPython",
    "platform": "Linux-test-x86_64",
}


def bench_report(label, rows, quick=False, machine=None, git_revision="deadbeef"):
    """A BENCH_*.json-shaped dict; ``rows`` maps name -> ops_per_sec."""
    meta = dict(machine or MACHINE)
    meta.update({"label": label, "quick": quick, "git_revision": git_revision,
                 "timestamp": "2026-08-08T00:00:00+0000"})
    benchmarks = {}
    for name, ops_per_sec in rows.items():
        benchmarks[name] = {
            "ops": 1000,
            "wall_s": 1000.0 / ops_per_sec,
            "ops_per_sec": ops_per_sec,
            "notes": f"fixture row {name}",
        }
    return {"meta": meta, "benchmarks": benchmarks}


def scenario_payload(name="web_mix", seed=3, digest="ab" * 32):
    return {
        "name": name,
        "seed": seed,
        "spec_digest": digest,
        "duration_s": 30.0,
        "apps": [{"app": "vat", "host": "h1", "label": "audio",
                  "metrics": {"packets": 120, "goodput_bps": 64000.0, "adapted": True}}],
        "links": [{"link": "h1->h2", "delivered_packets": 400, "dropped_overflow": 3}],
        "hosts": [{"host": "h1", "cpu_total_us": 1234.5}],
        "workloads": [{"kind": "tcp_flows", "host": "h1", "label": "churn",
                       "metrics": {"flows_started": 17}}],
    }


@pytest.fixture
def store():
    with ResultStore(":memory:") as opened:
        yield opened


# --------------------------------------------------------------------- #
# classification                                                        #
# --------------------------------------------------------------------- #
def test_classify_payload_covers_every_artifact_family():
    assert classify_payload(bench_report("BENCH_PR1", {"x": 1.0})) == "bench"
    assert classify_payload(scenario_payload()) == "scenario"
    assert classify_payload({"name": "table1", "title": "t", "columns": [], "rows": []}) \
        == "experiment"
    assert classify_payload({"experiment": "table1", "trials": 4}) == "experiment-meta"
    assert classify_payload({"unrelated": 1}) is None
    assert classify_payload([1, 2, 3]) is None


# --------------------------------------------------------------------- #
# bench ingest / query round trip + dedup                               #
# --------------------------------------------------------------------- #
def test_bench_ingest_query_round_trip(store):
    report = bench_report("BENCH_PR1", {"event_churn": 1000.0, "grant_dispatch": 2000.0})
    outcome = store.ingest_bench_report(report, source="BENCH_PR1.json")
    assert (outcome.ingested, outcome.rows, outcome.deduped) == (1, 2, 0)

    rows = store.bench_rows(label="BENCH_PR1")
    assert {row["name"] for row in rows} == {"event_churn", "grant_dispatch"}
    churn = next(row for row in rows if row["name"] == "event_churn")
    assert churn["ops_per_sec"] == 1000.0
    assert churn["git_revision"] == "deadbeef"
    assert churn["python"] == "3.11.7"
    assert churn["notes"] == "fixture row event_churn"
    assert store.bench_names() == ["event_churn", "grant_dispatch"]
    assert store.bench_labels() == ["BENCH_PR1"]


def test_reingest_identical_report_is_a_counted_dedup(store):
    report = bench_report("BENCH_PR1", {"event_churn": 1000.0})
    store.ingest_bench_report(report)
    outcome = store.ingest_bench_report(report)
    assert (outcome.ingested, outcome.deduped) == (0, 1)
    assert len(store.runs(kind="bench")) == 1
    assert len(store.bench_rows()) == 1


def test_regenerated_label_keeps_history_queries_see_latest(store):
    store.ingest_bench_report(bench_report("BENCH_PR1", {"event_churn": 1000.0}))
    store.ingest_bench_report(bench_report("BENCH_PR1", {"event_churn": 1500.0}))
    assert len(store.runs(kind="bench", label="BENCH_PR1")) == 2
    rows = store.bench_rows(label="BENCH_PR1")
    assert len(rows) == 1 and rows[0]["ops_per_sec"] == 1500.0


def test_bench_extra_fields_preserved_in_extra_json(store):
    report = bench_report("BENCH_PR1", {"graph_build": 200.0})
    report["benchmarks"]["graph_build"]["nodes"] = 38.0
    store.ingest_bench_report(report)
    row = store.bench_rows(name="graph_build")[0]
    assert json.loads(row["extra"]) == {"nodes": 38.0}


def test_bench_trajectory_orders_labels_numerically(store):
    for pr in (10, 2, 1):
        store.ingest_bench_report(bench_report(f"BENCH_PR{pr}", {"event_churn": 100.0 * pr}))
    trajectory = store.bench_trajectory()
    assert [row["label"] for row in trajectory["event_churn"]] == \
        ["BENCH_PR1", "BENCH_PR2", "BENCH_PR10"]


# --------------------------------------------------------------------- #
# experiment / scenario / trace ingest                                  #
# --------------------------------------------------------------------- #
def test_experiment_artifact_with_sidecar_round_trips(tmp_path, store):
    payload = {"name": "table1", "title": "Table 1", "columns": ["a", "b"],
               "rows": [[1, 2], [3, 4]], "series": {"s": [[0.0, 1.0]]}, "notes": ["n"]}
    sidecar = {"experiment": "table1", "seeds": [1, 2, 3], "jobs": 2, "trials": 6,
               "trials_from_cache": 4, "wall_clock_s": 1.5, "git_revision": "cafe",
               "python": "3.11.7", "timestamp": "t"}
    (tmp_path / "table1.json").write_text(json.dumps(payload))
    (tmp_path / "table1.meta.json").write_text(json.dumps(sidecar))
    outcome = store.ingest_file(str(tmp_path / "table1.json"), label="PR6")
    assert outcome.ingested == 1

    (entry,) = store.experiment_results(name="table1")
    assert entry["label"] == "PR6"
    assert entry["rows"] == [[1, 2], [3, 4]]
    assert entry["series"] == {"s": [[0.0, 1.0]]}
    assert entry["seeds"] == [1, 2, 3]
    assert entry["jobs"] == 2 and entry["trials_from_cache"] == 4
    assert entry["git_revision"] == "cafe"


def test_scenario_ingest_flattens_numeric_metrics(store):
    outcome = store.ingest_scenario_payload(scenario_payload(), label="PR6")
    assert outcome.ingested == 1

    (entry,) = store.scenario_results(name="web_mix")
    assert entry["seed"] == 3 and entry["payload"]["name"] == "web_mix"

    metrics = store.metrics(scenario="web_mix")
    by_key = {(m["scope"], m["entity"], m["metric"]): m["value"] for m in metrics}
    assert by_key[("app", "audio", "goodput_bps")] == 64000.0
    assert by_key[("link", "h1->h2", "delivered_packets")] == 400.0
    assert by_key[("host", "h1", "cpu_total_us")] == 1234.5
    assert by_key[("workload", "churn", "flows_started")] == 17.0
    # Booleans are not numeric metrics.
    assert ("app", "audio", "adapted") not in by_key
    # Everything is keyed by the spec digest.
    assert all(m["spec_digest"] == "ab" * 32 for m in metrics)


def test_scenario_dedup_by_content(store):
    payload = scenario_payload()
    store.ingest_scenario_payload(payload, label="PR6")
    outcome = store.ingest_scenario_payload(payload, label="PR6")
    assert outcome.deduped == 1
    assert len(store.scenario_results()) == 1


def test_trace_ingest_tolerates_torn_lines(tmp_path, store):
    trace = tmp_path / "run.jsonl"
    lines = [
        json.dumps({"t": 0.1, "event": "packet.enqueue", "link": "a->b"}),
        json.dumps({"t": 0.2, "event": "sample", "series": "rate", "value": 5.0}),
        '{"t": 0.3, "event": "packet.deli',  # torn mid-write
    ]
    trace.write_text("\n".join(lines) + "\n")
    outcome = store.ingest_trace(str(trace), label="PR6")
    assert outcome.ingested == 1 and outcome.rows == 2
    assert any("unparseable" in error for error in outcome.errors)

    summary = store.trace_summary()
    assert {(entry["event"], entry["n"]) for entry in summary} == \
        {("packet.enqueue", 1), ("sample", 1)}
    run = store.runs(kind="trace")[0]
    assert json.loads(run["meta"])["bad_lines"] == 1
    # Re-ingesting the same file is a dedup, not a duplicate trace.
    assert store.ingest_trace(str(trace), label="PR6").deduped == 1


def test_scenario_results_filter_by_source(store):
    store.ingest_scenario_payload(scenario_payload(seed=1), label="PR6", source="service:job:1")
    store.ingest_scenario_payload(scenario_payload(seed=2), label="PR6", source="service:job:2")
    (entry,) = store.scenario_results(source="service:job:2")
    assert entry["seed"] == 2 and entry["source"] == "service:job:2"
    assert store.scenario_results(source="service:job:3") == []
    assert len(store.scenario_results()) == 2


def test_transaction_is_one_commit_or_none(tmp_path):
    path = str(tmp_path / "tx.sqlite")
    trace = tmp_path / "run.jsonl"
    trace.write_text(json.dumps({"t": 0.1, "event": "sample", "series": "r", "value": 1.0}) + "\n")
    with ResultStore(path) as store, sqlite3.connect(path) as observer:
        def committed_runs():
            return observer.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

        with store.transaction():
            store.ingest_scenario_payload(scenario_payload(), label="PR6")
            store.ingest_trace(str(trace), label="PR6")
            assert committed_runs() == 0  # nothing lands until the block ends
        assert committed_runs() == 2

        with pytest.raises(RuntimeError, match="mid-ingest"):
            with store.transaction():
                store.ingest_scenario_payload(scenario_payload(seed=4), label="PR6")
                raise RuntimeError("mid-ingest")
        assert committed_runs() == 2  # rolled back, and the store still works
        assert store.ingest_scenario_payload(scenario_payload(seed=5), label="PR6").ingested == 1
        assert committed_runs() == 3


def test_a_store_may_be_shared_across_threads_by_a_caller_that_serialises(tmp_path):
    import threading

    with ResultStore(str(tmp_path / "shared.sqlite")) as store:
        worker = threading.Thread(
            target=lambda: store.ingest_scenario_payload(scenario_payload(), label="PR6"))
        worker.start()
        worker.join()
        assert len(store.scenario_results()) == 1


# --------------------------------------------------------------------- #
# corruption tolerance + directory walk                                 #
# --------------------------------------------------------------------- #
def test_corrupt_and_unknown_files_are_counted_skips(tmp_path, store):
    (tmp_path / "torn.json").write_text('{"meta": {"label": "BENCH_X"')
    (tmp_path / "mystery.json").write_text('{"what": "ever"}')
    (tmp_path / "good.json").write_text(json.dumps(bench_report("BENCH_PR1", {"x": 1.0})))
    outcome = store.ingest_path(str(tmp_path))
    assert outcome.ingested == 1
    assert outcome.skipped == 2
    assert len(outcome.errors) == 2
    assert any("corrupt" in error for error in outcome.errors)
    assert any("unrecognized" in error for error in outcome.errors)


def test_directory_walk_skips_sidecars_and_ingests_everything_else(tmp_path, store):
    (tmp_path / "BENCH_PR1.json").write_text(json.dumps(bench_report("BENCH_PR1", {"x": 1.0})))
    (tmp_path / "web.json").write_text(json.dumps(scenario_payload()))
    (tmp_path / "t1.json").write_text(json.dumps(
        {"name": "t1", "title": "", "columns": [], "rows": [], "series": {}, "notes": []}))
    (tmp_path / "t1.meta.json").write_text(json.dumps({"experiment": "t1", "trials": 1}))
    (tmp_path / "trace.jsonl").write_text(json.dumps({"t": 0.0, "event": "e"}) + "\n")
    (tmp_path / "notes.txt").write_text("not an artifact")
    outcome = store.ingest_path(str(tmp_path), label="PR6")
    assert outcome.ingested == 4
    assert outcome.skipped == 0
    kinds = sorted(run["kind"] for run in store.runs())
    assert kinds == ["bench", "experiment", "scenario", "trace"]


def test_sidecar_passed_alone_is_an_explained_skip(tmp_path, store):
    path = tmp_path / "t1.meta.json"
    path.write_text(json.dumps({"experiment": "t1", "trials": 1}))
    outcome = store.ingest_file(str(path))
    assert outcome.skipped == 1
    assert "sidecar" in outcome.errors[0]


def test_ingest_report_merge_accumulates():
    a = IngestReport(ingested=1, rows=5)
    b = IngestReport(deduped=2, skipped=1, errors=["boom"])
    a.merge(b)
    assert (a.ingested, a.deduped, a.skipped, a.rows) == (1, 2, 1, 5)
    assert "boom" in a.summary()


# --------------------------------------------------------------------- #
# compare / check math (the CI gate contract)                           #
# --------------------------------------------------------------------- #
def test_compare_labels_ratio_math(store):
    store.ingest_bench_report(bench_report("BENCH_PR1", {"a": 100.0, "b": 50.0}))
    store.ingest_bench_report(bench_report("BENCH_PR2", {"a": 150.0, "c": 10.0}))
    comparisons = {entry.name: entry for entry in compare_labels(store, "BENCH_PR1", "BENCH_PR2")}
    assert comparisons["a"].ratio == pytest.approx(1.5)
    assert comparisons["b"].ratio is None  # missing on the B side
    assert comparisons["c"].a_ops_per_sec is None


def test_check_trips_on_30pct_slowdown_at_25pct_threshold(store):
    store.ingest_bench_report(bench_report("BENCH_PR1", {"event_churn": 1000.0}))
    store.ingest_bench_report(bench_report("BENCH_PR2", {"event_churn": 700.0}))
    result = check_regressions(store, max_regression=0.25)
    assert result.candidate_label == "BENCH_PR2"
    assert not result.ok
    (outcome,) = result.regressed
    assert outcome.name == "event_churn"
    assert outcome.baseline_label == "BENCH_PR1"
    assert outcome.ratio == pytest.approx(0.7)
    assert "FAIL" in result.summary()


def test_check_passes_within_threshold_and_on_improvement(store):
    store.ingest_bench_report(bench_report("BENCH_PR1", {"a": 1000.0, "b": 10.0}))
    store.ingest_bench_report(bench_report("BENCH_PR2", {"a": 800.0, "b": 400.0}))
    result = check_regressions(store, max_regression=0.25)
    assert result.ok  # a: -20% tolerated; b: massive improvement
    assert {outcome.status for outcome in result.outcomes} == {"ok"}


def test_check_uses_best_prior_not_most_recent(store):
    store.ingest_bench_report(bench_report("BENCH_PR1", {"a": 1000.0}))
    store.ingest_bench_report(bench_report("BENCH_PR2", {"a": 600.0}))
    store.ingest_bench_report(bench_report("BENCH_PR3", {"a": 700.0}))
    result = check_regressions(store, max_regression=0.25)
    # 700 vs best prior (1000, PR1) is a 30% regression even though it beats PR2.
    assert not result.ok
    assert result.regressed[0].baseline_label == "BENCH_PR1"


def test_check_skips_incomparable_quick_and_platform_rows(store):
    store.ingest_bench_report(bench_report("BENCH_PR1", {"a": 1000.0, "b": 1000.0}))
    candidate = bench_report("BENCH_PR2", {"a": 100.0}, quick=True)
    other_machine = bench_report("BENCH_PR2", {"b": 100.0},
                                 machine={"python": "3.12.1", "implementation": "CPython",
                                          "platform": "Linux-other"})
    store.ingest_bench_report(candidate)
    result = check_regressions(store, candidate_label="BENCH_PR2", max_regression=0.25)
    assert result.ok  # quick candidate vs full history: skipped, not failed
    assert result.outcomes[0].status == "skipped"
    assert "quick=True" in result.outcomes[0].reason

    with ResultStore(":memory:") as fresh:
        fresh.ingest_bench_report(bench_report("BENCH_PR1", {"b": 1000.0}))
        fresh.ingest_bench_report(other_machine)
        result = check_regressions(fresh, max_regression=0.25)
        assert result.ok
        assert result.outcomes[0].status == "skipped"
        # But a deliberate cross-machine comparison can opt out of the
        # platform component (interpreter series still must match).
        loose = check_regressions(fresh, max_regression=0.25, loose=True)
        assert loose.outcomes[0].status == "skipped"  # 3.11 vs 3.12 still blocks

    with ResultStore(":memory:") as fresh:
        same_python = bench_report("BENCH_PR2", {"b": 100.0},
                                   machine={"python": "3.11.9", "implementation": "CPython",
                                            "platform": "Linux-other"})
        fresh.ingest_bench_report(bench_report("BENCH_PR1", {"b": 1000.0}))
        fresh.ingest_bench_report(same_python)
        loose = check_regressions(fresh, max_regression=0.25, loose=True)
        assert not loose.ok  # same interpreter series, platform ignored


def test_check_candidate_without_history_is_all_skips(store):
    store.ingest_bench_report(bench_report("BENCH_PR1", {"a": 1000.0}))
    result = check_regressions(store, max_regression=0.25)
    assert result.ok
    assert [outcome.status for outcome in result.outcomes] == ["skipped"]


def test_check_rejects_bad_inputs(store):
    with pytest.raises(ValueError):
        check_regressions(store)  # empty store
    store.ingest_bench_report(bench_report("BENCH_PR1", {"a": 1.0}))
    with pytest.raises(ValueError):
        check_regressions(store, candidate_label="BENCH_PR9")
    with pytest.raises(ValueError):
        check_regressions(store, max_regression=1.5)


# --------------------------------------------------------------------- #
# label derivation                                                      #
# --------------------------------------------------------------------- #
def test_label_sort_key_orders_pr_numbers_numerically():
    labels = ["BENCH_PR10", "BENCH_PR2", "BENCH_CI_A", "BENCH_PR1"]
    assert sort_labels(labels) == ["BENCH_PR1", "BENCH_PR2", "BENCH_PR10", "BENCH_CI_A"]
    assert label_sort_key("PR3") < label_sort_key("PR12")


def test_derive_label_env_var_wins(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_LABEL", "BENCH_CUSTOM")
    assert derive_bench_label(str(tmp_path)) == "BENCH_CUSTOM"
    monkeypatch.delenv("REPRO_BENCH_LABEL")
    monkeypatch.setenv("REPRO_PR_LABEL", "PR99")
    assert derive_bench_label(str(tmp_path)) == "BENCH_PR99"
    assert current_pr_label(str(tmp_path)) == "PR99"


def test_derive_label_from_checked_in_history(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_BENCH_LABEL", raising=False)
    monkeypatch.delenv("REPRO_PR_LABEL", raising=False)
    for pr in (1, 2, 5):
        (tmp_path / f"BENCH_PR{pr}.json").write_text("{}")
    (tmp_path / "BENCH_notapr.json").write_text("{}")
    assert current_pr_label(str(tmp_path)) == "PR6"
    assert derive_bench_label(str(tmp_path)) == "BENCH_PR6"


def test_derive_label_without_history_falls_back_to_git(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_BENCH_LABEL", raising=False)
    monkeypatch.delenv("REPRO_PR_LABEL", raising=False)
    label = current_pr_label(str(tmp_path))
    # Inside this checkout git is available; outside it would be "local".
    assert label.startswith("git-") or label == "local"


# --------------------------------------------------------------------- #
# store lifecycle                                                       #
# --------------------------------------------------------------------- #
def test_store_persists_to_disk_and_reopens(tmp_path):
    path = str(tmp_path / "nested" / "results.sqlite")
    with ResultStore(path) as store:
        store.ingest_bench_report(bench_report("BENCH_PR1", {"a": 123.0}))
    with ResultStore(path) as store:
        assert store.bench_rows()[0]["ops_per_sec"] == 123.0
    # The schema version is recorded for forward compatibility.
    db = sqlite3.connect(path)
    (version,) = db.execute(
        "SELECT value FROM store_meta WHERE key = 'schema_version'").fetchone()
    assert version == "1"


def test_counts_reports_every_table(store):
    counts = store.counts()
    assert set(counts) == {"runs", "bench_rows", "experiment_results",
                           "scenario_results", "metrics", "trace_events"}
    assert all(value == 0 for value in counts.values())
