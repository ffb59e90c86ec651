"""Byte pins for every registry experiment's smoke artifact, and the CLI relations around them.

``tests/golden/PINS.json`` maps each ``<name>.json`` written by::

    python -m repro.experiments all --smoke --seeds 3 --json-dir DIR

to its sha256 and length.  A change that moves any experiment's numbers,
rows, notes or serialisation moves a pin here; a refactor that claims to be
behaviour-neutral must leave every pin where it is.

Its ``trials`` section pins each experiment's trial list, the sha256 of the
canonical JSON of ``[[experiment, params], ...]``, both at the defaults and
under ``--smoke``.  The default sweeps are too long to run here, so this is
what holds their parameters and their order.

The other tests are the in-process twins of the CLI smoke runs: one ``all``
run executes each distinct trial list once (``figure5`` reads ``figure4``'s),
``--jobs 2`` and ``--jobs 1`` write the same bytes, ``--store`` registers
what was written, and the scale sweep reports a fairness index for every
host count.
"""

import hashlib
import json
import os

import pytest

from repro.experiments import runner
from repro.experiments.registry import SWEEPS
from repro.experiments.sweep import canonical_json
from repro.results.store import ResultStore

PINS_PATH = os.path.join(os.path.dirname(__file__), "golden", "PINS.json")

with open(PINS_PATH, "r", encoding="utf-8") as _handle:
    PINS = json.load(_handle)
TRIAL_PINS = PINS.pop("trials")

SMOKE_ARGS = ["--smoke", "--seeds", "3", "--quiet"]


def _pin_of(path):
    with open(path, "rb") as handle:
        data = handle.read()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _run_cli(*argv):
    assert runner.main([*argv, *SMOKE_ARGS]) == 0


def _identity(trials):
    return canonical_json([[trial.experiment, trial.params] for trial in trials])


def _trial_list_pin(name, smoke):
    trials = SWEEPS[name].trials(smoke=smoke)
    return {"trials": len(trials), "sha256": hashlib.sha256(_identity(trials).encode("utf-8")).hexdigest()}


@pytest.mark.parametrize("mode", ["default", "smoke"])
@pytest.mark.parametrize("name", sorted(TRIAL_PINS))
def test_trial_list_matches_its_pin(name, mode):
    assert _trial_list_pin(name, mode == "smoke") == TRIAL_PINS[name][mode]


@pytest.fixture(scope="module")
def smoke_dirs(tmp_path_factory):
    """One ``all`` run at ``--jobs 2`` into a result store, recording each trial list it runs."""
    root = tmp_path_factory.mktemp("smoke")
    out, db = str(root / "out-jobs2"), str(root / "results.sqlite")
    ran = []
    real = runner.run_trials

    def recording(specs, **kwargs):
        ran.append(_identity(specs))
        return real(specs, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "run_trials", recording)
        _run_cli("all", "--jobs", "2", "--json-dir", out, "--store", db)
    return {"root": root, "out": out, "db": db, "ran": ran}


def test_the_pins_cover_every_registered_experiment():
    assert sorted(PINS) == sorted(f"{name}.json" for name in SWEEPS)
    assert sorted(TRIAL_PINS) == sorted(SWEEPS)


@pytest.mark.parametrize("artifact", sorted(PINS))
def test_smoke_artifact_matches_its_pin(smoke_dirs, artifact):
    assert _pin_of(os.path.join(smoke_dirs["out"], artifact)) == PINS[artifact]


@pytest.mark.parametrize("name", ["figure3", "scale"])
def test_a_serial_uncached_run_writes_the_pinned_bytes(smoke_dirs, name):
    out = str(smoke_dirs["root"] / f"{name}-jobs1")
    _run_cli(name, "--jobs", "1", "--json-dir", out)
    assert _pin_of(os.path.join(out, f"{name}.json")) == PINS[f"{name}.json"]


def test_one_all_run_executes_each_trial_list_once(smoke_dirs):
    ran = smoke_dirs["ran"]
    figure4 = _identity(SWEEPS["figure4"].trials(smoke=True))
    assert ran.count(figure4) == 1
    assert _identity(SWEEPS["figure5"].trials(smoke=True)) == figure4
    assert len(ran) == len(set(ran)) == len(SWEEPS) - 1


def test_store_registers_the_written_artifact(smoke_dirs):
    with open(os.path.join(smoke_dirs["out"], "figure3.json"), "r", encoding="utf-8") as handle:
        written = json.load(handle)
    with ResultStore(smoke_dirs["db"]) as store:
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
