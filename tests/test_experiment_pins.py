"""Byte pins for every registry experiment's smoke artifact, and the CLI relations around them.

``tests/golden/PINS.json`` maps each ``<name>.json`` written by::

    python -m repro.experiments all --smoke --seeds 3 --no-cache --json-dir DIR

to its sha256 and length.  A change that moves any experiment's numbers,
rows, notes or serialisation moves a pin here; a refactor that claims to be
behaviour-neutral must leave every pin where it is.

The other tests are the in-process twins of the CLI smoke runs: the trial
cache is transparent and a warm re-run is served from it, ``--jobs 2`` and
``--jobs 1`` write the same bytes, ``--store`` registers what was written,
and the scale sweep reports a fairness index for every host count.
"""

import hashlib
import json
import os

import pytest

from repro.experiments.registry import SPECS
from repro.experiments.runner import main as experiments_main
from repro.results.store import ResultStore

PINS_PATH = os.path.join(os.path.dirname(__file__), "golden", "PINS.json")

with open(PINS_PATH, "r", encoding="utf-8") as _handle:
    PINS = json.load(_handle)

SMOKE_ARGS = ["--smoke", "--seeds", "3", "--quiet"]


def _pin_of(path):
    with open(path, "rb") as handle:
        data = handle.read()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _run_cli(*argv):
    assert experiments_main([*argv, *SMOKE_ARGS]) == 0


@pytest.fixture(scope="module")
def smoke_dirs(tmp_path_factory):
    """One cold ``all`` run at ``--jobs 2`` through a fresh trial cache."""
    root = tmp_path_factory.mktemp("smoke")
    out, cache = str(root / "out-jobs2"), str(root / "trial-cache")
    _run_cli("all", "--jobs", "2", "--json-dir", out, "--cache-dir", cache)
    return {"root": root, "out": out, "cache": cache}


def test_the_pins_cover_every_registered_experiment():
    assert sorted(PINS) == sorted(f"{name}.json" for name in SPECS)


@pytest.mark.parametrize("artifact", sorted(PINS))
def test_smoke_artifact_matches_its_pin(smoke_dirs, artifact):
    assert _pin_of(os.path.join(smoke_dirs["out"], artifact)) == PINS[artifact]


@pytest.mark.parametrize("name", ["figure3", "scale"])
def test_a_serial_uncached_run_writes_the_pinned_bytes(smoke_dirs, name):
    out = str(smoke_dirs["root"] / f"{name}-jobs1")
    _run_cli(name, "--jobs", "1", "--json-dir", out, "--no-cache")
    assert _pin_of(os.path.join(out, f"{name}.json")) == PINS[f"{name}.json"]


def test_a_warm_rerun_is_served_from_the_cache(smoke_dirs):
    out = str(smoke_dirs["root"] / "out-warm")
    _run_cli("figure3", "--jobs", "2", "--json-dir", out, "--cache-dir", smoke_dirs["cache"])
    with open(os.path.join(out, "figure3.meta.json"), "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    assert meta["trials"] > 0
    assert meta["trials_from_cache"] == meta["trials"], meta
    assert _pin_of(os.path.join(out, "figure3.json")) == PINS["figure3.json"]


def test_store_registers_the_written_artifact(smoke_dirs):
    out = str(smoke_dirs["root"] / "out-store")
    db = str(smoke_dirs["root"] / "results.sqlite")
    _run_cli("figure3", "--jobs", "2", "--json-dir", out, "--cache-dir", smoke_dirs["cache"],
             "--store", db)
    with open(os.path.join(out, "figure3.json"), "r", encoding="utf-8") as handle:
        written = json.load(handle)
    with ResultStore(db) as store:
        (row,) = store.experiment_results("figure3")
    assert row["seeds"] == [1, 2, 3]
    for key in ("title", "columns", "rows", "series", "notes"):
        assert row[key] == written[key], key


def test_scale_reports_fairness_for_every_host_count(smoke_dirs):
    with open(os.path.join(smoke_dirs["out"], "scale.json"), "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    rows = payload["rows"]
    assert len(rows) >= 2, rows
    assert len({row[0] for row in rows}) == len(rows), "one row per host count"
    for row in rows:
        assert 0.0 < row[1] <= 1.0, row
