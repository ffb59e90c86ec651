"""Result store: ingest/query round trips, dedup, corruption tolerance, labels."""

from __future__ import annotations

import json
import os
import sqlite3

import pytest

from repro.results.store import (
    SCHEMA_VERSION,
    IngestReport,
    ResultStore,
    SchemaVersionError,
    classify_payload,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
    assert [row["name"] for row in store.bench_rows()] == ["event_churn", "grant_dispatch"]
    assert [run["label"] for run in store.runs(kind="bench")] == ["BENCH_PR1"]


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


@pytest.mark.parametrize("k", range(1, 9))
def test_checked_in_bench_file_ingests_under_its_own_label(k, store):
    path = os.path.join(REPO_ROOT, f"BENCH_PR{k}.json")
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    assert classify_payload(report) == "bench"

    outcome = store.ingest_file(path)
    assert (outcome.ingested, outcome.skipped, outcome.errors) == (1, 0, [])
    assert outcome.rows == len(report["benchmarks"])
    rows = store.bench_rows(label=f"BENCH_PR{k}")
    assert [row["name"] for row in rows] == sorted(report["benchmarks"])
    for row in rows:
        assert row["ops_per_sec"] == report["benchmarks"][row["name"]]["ops_per_sec"]
        assert row["source"] == f"BENCH_PR{k}.json"
    assert store.ingest_file(path).deduped == 1


def test_bench_label_comes_from_the_report_not_the_result_label(monkeypatch, store):
    monkeypatch.setenv("REPRO_RESULT_LABEL", "nightly")
    store.ingest_bench_report(bench_report("BENCH_PR3", {"x": 1.0}))
    assert [run["label"] for run in store.runs()] == ["BENCH_PR3"]


def test_bench_report_without_a_label_is_unlabelled(store):
    report = bench_report("ignored", {"x": 1.0})
    del report["meta"]["label"]
    store.ingest_bench_report(report)
    assert [row["label"] for row in store.bench_rows()] == ["unlabelled"]


def test_explicit_label_overrides_the_bench_report_label(store):
    store.ingest_bench_report(bench_report("BENCH_PR1", {"x": 1.0}), label="bench")
    assert [row["label"] for row in store.bench_rows()] == ["bench"]
    assert store.bench_rows(label="BENCH_PR1") == []


@pytest.mark.parametrize("report", [
    {"benchmarks": {}},
    {"meta": {"label": "BENCH_X"}},
    {"meta": [], "benchmarks": {}},
], ids=["no-meta", "no-benchmarks", "meta-not-an-object"])
def test_bench_report_without_meta_and_benchmarks_is_a_counted_skip(report, store):
    outcome = store.ingest_bench_report(report, source="odd.json")
    assert (outcome.ingested, outcome.skipped) == (0, 1)
    assert outcome.errors == ["odd.json: missing 'meta'/'benchmarks'"]
    assert store.counts()["runs"] == 0


def test_a_non_object_benchmark_row_is_skipped_and_the_rest_land(store):
    report = bench_report("BENCH_PR1", {"good": 10.0})
    report["benchmarks"]["bad"] = 3.5
    outcome = store.ingest_bench_report(report)
    assert (outcome.ingested, outcome.rows, outcome.skipped) == (1, 1, 1)
    assert "'bad' is not an object" in outcome.errors[0]
    assert [row["name"] for row in store.bench_rows()] == ["good"]


def test_bench_rows_by_name_span_every_label(store):
    for label, rate in (("BENCH_PR2", 20.0), ("BENCH_PR1", 10.0)):
        store.ingest_bench_report(bench_report(label, {"churn": rate, "other": 1.0}))
    rows = store.bench_rows(name="churn")
    assert [(row["label"], row["ops_per_sec"]) for row in rows] == \
        [("BENCH_PR1", 10.0), ("BENCH_PR2", 20.0)]


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


def test_experiment_without_sidecar_has_no_provenance(tmp_path, store):
    (tmp_path / "t1.json").write_text(json.dumps(
        {"name": "t1", "title": "T", "columns": ["a"], "rows": [[1]]}))
    outcome = store.ingest_file(str(tmp_path / "t1.json"), label="PR6")
    assert (outcome.ingested, outcome.rows, outcome.errors) == (1, 1, [])
    (entry,) = store.experiment_results()
    assert entry["seeds"] is None and entry["jobs"] is None
    assert entry["series"] == {} and entry["notes"] == []


def test_corrupt_sidecar_is_noted_and_the_payload_still_lands(tmp_path, store):
    (tmp_path / "t1.json").write_text(json.dumps(
        {"name": "t1", "title": "T", "columns": [], "rows": []}))
    (tmp_path / "t1.meta.json").write_text('{"experiment": "t1", "tri')
    outcome = store.ingest_file(str(tmp_path / "t1.json"), label="PR6")
    assert (outcome.ingested, outcome.skipped) == (1, 0)
    assert len(outcome.errors) == 1 and "sidecar ignored" in outcome.errors[0]
    (entry,) = store.experiment_results(name="t1")
    assert entry["trials"] is None


def test_missing_trace_file_is_a_counted_skip(tmp_path, store):
    outcome = store.ingest_trace(str(tmp_path / "gone.jsonl"))
    assert (outcome.ingested, outcome.skipped) == (0, 1)
    assert outcome.errors[0].startswith(str(tmp_path / "gone.jsonl"))
    assert store.counts()["runs"] == 0


def test_metrics_filter_by_scope_and_metric(store):
    store.ingest_scenario_payload(scenario_payload(), label="PR6")
    (row,) = store.metrics(scope="link", metric="dropped_overflow")
    assert (row["entity"], row["value"], row["label"]) == ("h1->h2", 3.0, "PR6")
    assert {m["scope"] for m in store.metrics(scenario="web_mix")} == \
        {"app", "link", "host", "workload"}
    assert store.metrics(scenario="other") == []


def test_runs_filter_by_kind_and_label(store):
    store.ingest_scenario_payload(scenario_payload(seed=1), label="a")
    store.ingest_scenario_payload(scenario_payload(seed=2), label="b")
    store.ingest_bench_report(bench_report("a", {"x": 1.0}))
    assert [run["name"] for run in store.runs(kind="scenario")] == \
        ["web_mix.seed1", "web_mix.seed2"]
    assert [run["kind"] for run in store.runs(label="a")] == ["scenario", "bench"]
    assert [run["name"] for run in store.runs(kind="scenario", label="b")] == ["web_mix.seed2"]
    assert store.runs(kind="trace") == []


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


def test_summary_puts_each_error_on_its_own_line():
    report = IngestReport(ingested=2, rows=7, deduped=1, skipped=2, errors=["a: x", "b: y"])
    assert report.summary().splitlines() == [
        "ingested 2 run(s) (7 row(s)), 1 duplicate(s), 2 skipped:",
        "  - a: x",
        "  - b: y",
    ]
    assert IngestReport().summary() == "ingested 0 run(s) (0 row(s)), 0 duplicate(s), 0 skipped"


def test_ingest_path_on_a_file_ingests_that_file(tmp_path, store):
    path = tmp_path / "web.json"
    path.write_text(json.dumps(scenario_payload()))
    assert store.ingest_path(str(path), label="PR6").ingested == 1
    assert [run["source"] for run in store.runs()] == ["web.json"]


# --------------------------------------------------------------------- #
# default label                                                         #
# --------------------------------------------------------------------- #
def test_unlabelled_ingest_is_local_even_beside_bench_history(monkeypatch, tmp_path, store):
    monkeypatch.delenv("REPRO_RESULT_LABEL", raising=False)
    (tmp_path / "BENCH_PR8.json").write_text("{}")
    monkeypatch.chdir(tmp_path)
    store.ingest_scenario_payload(scenario_payload())
    (entry,) = store.scenario_results()
    assert entry["label"] == "local"


def test_result_label_env_var_wins_over_the_default(monkeypatch, tmp_path, store):
    monkeypatch.setenv("REPRO_RESULT_LABEL", "nightly")
    store.ingest_scenario_payload(scenario_payload(seed=1))
    store.ingest_scenario_payload(scenario_payload(seed=2), label="PR6")
    trace = tmp_path / "run.jsonl"
    trace.write_text(json.dumps({"t": 0.0, "event": "e"}) + "\n")
    store.ingest_trace(str(trace))
    assert [(run["name"], run["label"]) for run in store.runs()] == [
        ("web_mix.seed1", "nightly"), ("web_mix.seed2", "PR6"), ("run.jsonl", "nightly")]


def ingest_unlabelled_family(kind, store, tmp_path, label=None):
    """Ingest one experiment, scenario or trace and return the label it got."""
    if kind == "experiment":
        store.ingest_experiment_payload(
            {"name": "t1", "title": "", "columns": [], "rows": []}, label=label)
    elif kind == "scenario":
        store.ingest_scenario_payload(scenario_payload(), label=label)
    else:
        trace = tmp_path / "run.jsonl"
        trace.write_text(json.dumps({"t": 0.0, "event": "e"}) + "\n")
        store.ingest_trace(str(trace), label=label)
    (run,) = store.runs(kind=kind)
    return run["label"]


FAMILIES = ("experiment", "scenario", "trace")


@pytest.mark.parametrize("kind", FAMILIES)
def test_every_unlabelled_family_is_local(kind, monkeypatch, tmp_path, store):
    monkeypatch.delenv("REPRO_RESULT_LABEL", raising=False)
    (tmp_path / "BENCH_PR8.json").write_text("{}")
    monkeypatch.chdir(tmp_path)
    assert ingest_unlabelled_family(kind, store, tmp_path) == "local"


@pytest.mark.parametrize("kind", FAMILIES)
def test_result_label_env_var_labels_every_unlabelled_family(kind, monkeypatch, tmp_path, store):
    monkeypatch.setenv("REPRO_RESULT_LABEL", "nightly")
    assert ingest_unlabelled_family(kind, store, tmp_path) == "nightly"


@pytest.mark.parametrize("kind", FAMILIES)
def test_explicit_label_wins_over_the_env_var(kind, monkeypatch, tmp_path, store):
    monkeypatch.setenv("REPRO_RESULT_LABEL", "nightly")
    assert ingest_unlabelled_family(kind, store, tmp_path, label="PR6") == "PR6"


@pytest.mark.parametrize("kind", FAMILIES)
def test_empty_result_label_env_var_means_local(kind, monkeypatch, tmp_path, store):
    monkeypatch.setenv("REPRO_RESULT_LABEL", "")
    assert ingest_unlabelled_family(kind, store, tmp_path) == "local"


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


def test_close_is_idempotent(tmp_path):
    store = ResultStore(str(tmp_path / "r.sqlite"))
    store.close()
    store.close()
    with ResultStore(str(tmp_path / "r.sqlite")) as reopened:
        reopened.close()


#: The v1 ``store_meta``/``runs``/``bench_rows`` tables exactly as earlier
#: releases created them; a store they wrote must keep opening.
V1_TABLES = """
CREATE TABLE store_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE runs (
    id INTEGER PRIMARY KEY,
    kind TEXT NOT NULL CHECK (kind IN ('bench', 'experiment', 'scenario', 'trace')),
    label TEXT NOT NULL, name TEXT NOT NULL, git_revision TEXT, python TEXT,
    implementation TEXT, platform TEXT, quick INTEGER, timestamp TEXT, source TEXT,
    digest TEXT NOT NULL, meta TEXT NOT NULL DEFAULT '{}', ingested_at TEXT NOT NULL,
    UNIQUE (kind, label, name, digest)
);
CREATE TABLE bench_rows (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    label TEXT NOT NULL, name TEXT NOT NULL, ops INTEGER, wall_s REAL, ops_per_sec REAL,
    baseline_wall_s REAL, baseline_ops_per_sec REAL, speedup REAL,
    notes TEXT NOT NULL DEFAULT '', extra TEXT NOT NULL DEFAULT '{}',
    PRIMARY KEY (run_id, name)
);
INSERT INTO store_meta VALUES ('schema_version', '1');
INSERT INTO runs (id, kind, label, name, digest, ingested_at, source)
    VALUES (1, 'bench', 'PR9', 'PR9', 'd1', 't', 'BENCH_PR9.json');
INSERT INTO bench_rows (run_id, label, name, ops, wall_s, ops_per_sec, speedup)
    VALUES (1, 'PR9', 'event_churn', 100, 0.5, 200.0, 2.0);
"""


def write_v1_store(path):
    db = sqlite3.connect(path)
    db.executescript(V1_TABLES)
    db.commit()
    db.close()


def test_a_store_written_with_the_v1_schema_opens_and_ingests(tmp_path):
    path = str(tmp_path / "old.sqlite")
    write_v1_store(path)
    with ResultStore(path) as store:
        (row,) = store.bench_rows(name="event_churn")
        assert (row["label"], row["ops_per_sec"], row["speedup"]) == ("PR9", 200.0, 2.0)
        assert store.ingest_scenario_payload(scenario_payload(), label="PR6").ingested == 1
        assert [run["label"] for run in store.runs()] == ["PR9", "PR6"]


def write_foreign_store(path, version="2"):
    """A store another release stamped with ``schema_version = version``."""
    db = sqlite3.connect(path)
    db.executescript(V1_TABLES.replace("'schema_version', '1'", f"'schema_version', '{version}'"))
    db.commit()
    db.close()


@pytest.mark.parametrize("version", ["2", "0", "v1"])
def test_a_store_with_another_schema_version_is_refused_by_name(tmp_path, version):
    path = str(tmp_path / "foreign.sqlite")
    write_foreign_store(path, version)
    with pytest.raises(SchemaVersionError) as refused:
        ResultStore(path)
    message = str(refused.value)
    assert path in message
    assert f"version {version}," in message and f"expected {SCHEMA_VERSION}" in message
    # The stamp and the rows are as the other release left them.
    db = sqlite3.connect(path)
    assert db.execute("SELECT value FROM store_meta").fetchall() == [(version,)]
    assert db.execute("SELECT COUNT(*) FROM runs").fetchone() == (1,)
    db.close()


def test_a_fresh_store_is_stamped_and_reopens(tmp_path):
    path = str(tmp_path / "fresh.sqlite")
    ResultStore(path).close()
    with ResultStore(path) as store:
        (row,) = store._db.execute("SELECT key, value FROM store_meta").fetchall()
        assert tuple(row) == ("schema_version", str(SCHEMA_VERSION))
