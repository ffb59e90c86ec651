"""Property-based coverage (hypothesis) for the trial layer and its helpers.

Three families of invariants:

* the sharded executor: random seed sets and job counts never change what
  ``reduce()`` sees — outcomes always arrive in spec order, with the same
  JSON-normalized values a serial run would produce (and a failing trial or
  a dead worker is an error, not a hang, and a dead coordinator leaves no
  worker behind);
* the statistics: the NumPy-free mean/stddev/CI agree with the stdlib
  ``statistics`` module on random samples;
* ``format_table``: arbitrary cell widths round-trip through the renderer
  without misalignment.
"""

import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import stats
from repro.experiments import figure3
from repro.experiments.base import format_table
from repro.experiments.registry import SWEEPS
from repro.experiments.sweep import Sweep, TrialOutcome, TrialSpec, run_trials

# --------------------------------------------------------------------- #
# A deterministic, instant fake experiment for executor properties.      #
# --------------------------------------------------------------------- #
_ECHO_NAME = "_prop_echo"


def _echo_trial(params: dict) -> dict:
    seed = params["seed"]
    # An arbitrary but deterministic function of the seed, mixing int and
    # float payloads so JSON normalization is exercised on both.
    return {"seed": seed, "hash": (seed * 2654435761) % 1_000_003, "value": seed / 7.0}


@pytest.fixture(scope="module", autouse=True)
def _register_echo_experiment():
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(SWEEPS, _ECHO_NAME, Sweep(_ECHO_NAME, [("seed", ())], {}, _echo_trial, None))
        yield


class TestExecutorProperties:
    @given(
        seeds=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12, unique=True),
        jobs=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_jobs_never_change_outcomes_or_order(self, seeds, jobs):
        specs = [TrialSpec(_ECHO_NAME, {"seed": seed}) for seed in seeds]
        expected = [json.loads(json.dumps(_echo_trial(spec.params))) for spec in specs]
        outcomes = run_trials(specs, jobs=jobs)
        assert [outcome.value for outcome in outcomes] == expected
        assert [outcome.spec.params["seed"] for outcome in outcomes] == list(seeds)

    @given(
        throughputs=st.lists(
            st.floats(min_value=1.0, max_value=1e6, allow_nan=False), min_size=2, max_size=8
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_figure3_reduce_is_pure(self, throughputs):
        # reduce() must be a pure function of the outcome list: synthetic
        # trial values, two calls, byte-identical JSON.
        specs = figure3.SWEEP.trials(
            loss=(0.01,), transfer_bytes=1000, seed=tuple(range(len(throughputs)))
        )
        outcomes = [
            TrialOutcome(spec=spec, value=throughputs[index % len(throughputs)])
            for index, spec in enumerate(specs)
        ]
        assert figure3.reduce(outcomes).to_json() == figure3.reduce(outcomes).to_json()


class TestExecutorFailures:
    def test_a_failing_trial_raises_its_own_exception_type(self):
        specs = [TrialSpec(_ECHO_NAME, {"seed": seed}) for seed in (1, 2, 3)]
        specs[1].params["seed"] = None  # None * int
        with pytest.raises(TypeError):
            run_trials(specs, jobs=2)

    def test_an_error_that_does_not_pickle_still_reaches_the_parent(self, monkeypatch):
        def trial(params):
            raise ValueError(threading.Lock())

        monkeypatch.setitem(SWEEPS, "_lock", Sweep("_lock", [], {}, trial, None))
        with pytest.raises(RuntimeError, match="ValueError: <unlocked _thread.lock"):
            run_trials([TrialSpec("_lock", {"index": index}) for index in range(2)], jobs=2)

    def test_a_dead_trial_worker_fails_the_run_instead_of_hanging(self):
        # In a process of its own, so that a hang is a timeout here.
        script = (
            "import multiprocessing, os, signal, sys, time\n"
            "from repro.experiments.registry import SWEEPS\n"
            "from repro.experiments.sweep import Sweep, TrialSpec, run_trials\n"
            "def trial(params):\n"
            "    if params['kill']:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return params['index']\n"
            "SWEEPS['selfkill'] = Sweep('selfkill', [], {}, trial, None)\n"
            "specs = [TrialSpec('selfkill', {'index': i, 'kill': i == 1}) for i in range(4)]\n"
            "asked = time.monotonic()\n"
            "try:\n"
            "    run_trials(specs, jobs=2)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, round(time.monotonic() - asked, 3),\n"
            "          len(multiprocessing.active_children()), exc)\n"
            "else:\n"
            "    sys.exit('no error')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        kind, waited, children, message = done.stdout.split(" ", 3)
        assert kind == "WorkerDied"
        assert float(waited) < 5.0
        assert children == "0"
        assert message.startswith("trial selfkill(index=")

    def test_a_killed_coordinator_takes_its_trial_workers_along(self):
        # The coordinator runs in a process of its own.  Each trial prints
        # its worker's pid and then blocks, so both workers are in the
        # middle of a trial when the coordinator is SIGKILLed.
        script = (
            "import os, time\n"
            "from repro.experiments.registry import SWEEPS\n"
            "from repro.experiments.sweep import Sweep, TrialSpec, run_trials\n"
            "def trial(params):\n"
            "    print(os.getpid(), flush=True)\n"
            "    time.sleep(60)\n"
            "SWEEPS['stuck'] = Sweep('stuck', [], {}, trial, None)\n"
            "run_trials([TrialSpec('stuck', {'index': i}) for i in range(3)], jobs=2)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        coordinator = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                                       env=env, text=True)
        try:
            pids = [int(coordinator.stdout.readline()) for _ in range(2)]
            coordinator.send_signal(signal.SIGKILL)
            assert coordinator.wait(timeout=10) == -signal.SIGKILL
            deadline = time.monotonic() + 2.0
            while not all(_exited(pid) for pid in pids):
                assert time.monotonic() < deadline, "trial workers outlived their coordinator"
                time.sleep(0.01)
        finally:
            coordinator.kill()
            coordinator.wait()
            coordinator.stdout.close()


def _exited(pid):
    """Gone, or a zombie: an orphan's zombie is for init to collect, in its own time."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(") ", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class TestStatsMatchReference:
    @given(
        samples=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=40
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_mean_and_stddev_match_stdlib(self, samples):
        summary = stats.summarize(samples)
        assert math.isclose(summary.mean, statistics.fmean(samples), rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(
            summary.stddev, statistics.stdev(samples), rel_tol=1e-7, abs_tol=1e-6
        )

    @given(
        samples=st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=2, max_size=40
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_ci_matches_t_times_standard_error(self, samples):
        summary = stats.summarize(samples)
        expected = (
            stats.t_critical_95(len(samples) - 1)
            * statistics.stdev(samples)
            / math.sqrt(len(samples))
        )
        assert math.isclose(summary.ci95, expected, rel_tol=1e-7, abs_tol=1e-6)

    def test_degenerate_sample_counts(self):
        assert stats.summarize([]).mean == 0.0
        assert stats.summarize([5.0]).stddev == 0.0
        assert stats.summarize([5.0]).ci95 == 0.0
        assert stats.t_critical_95(0) == 0.0
        # t decreases towards the normal critical value as df grows.
        assert stats.t_critical_95(1) > stats.t_critical_95(10) > stats.t_critical_95(1000)
        assert stats.t_critical_95(1000) == pytest.approx(1.960)


_cell = st.one_of(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.",
        min_size=0,
        max_size=18,
    ),
    st.integers(min_value=-10**12, max_value=10**12),
)


class TestFormatTableRoundTrip:
    @staticmethod
    def _fmt(value):
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    @given(
        columns=st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
            min_size=1,
            max_size=5,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_cells_round_trip_without_misalignment(self, columns, data):
        rows = data.draw(
            st.lists(
                st.lists(_cell, min_size=len(columns), max_size=len(columns)),
                min_size=0,
                max_size=6,
            )
        )
        text = format_table(columns, rows)
        lines = text.split("\n")
        assert len(lines) == 2 + len(rows)

        # Every line is padded to exactly the same width: nothing overflows
        # its column and nothing shifts the columns to its right.
        assert len({len(line) for line in lines}) == 1

        # The separator's dash runs define the column spans; slicing any data
        # line by those spans must recover the formatted cell values exactly.
        separator = lines[1]
        spans = []
        start = 0
        for width in (len(group) for group in separator.split("  ")):
            spans.append((start, start + width))
            start += width + 2
        assert len(spans) == len(columns)
        for line, row in zip(lines[2:], rows):
            for (begin, end), value in zip(spans, row):
                assert line[begin:end].strip() == self._fmt(value)
