"""Golden-trace determinism: identical seeds must yield byte-identical JSON.

These tests guard two promises at once: the simulation itself is a pure
function of its seeds (so engine rewrites like PR 1's can be verified against
golden trajectories instead of eyeballs), and the parallel runner's merge is
order-deterministic (so ``--jobs 4`` output is byte-identical to ``--jobs 1``
no matter how the OS schedules the workers).
"""

from repro.experiments import figure3, table1
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import run_trials

FIGURE3_SMALL = dict(loss=(0.0, 0.02), transfer_bytes=120_000, seed=(1, 2))
TABLE1_SMALL = dict(packet_size=400, npackets=120)


def _figure3_json(jobs):
    outcomes = run_trials(figure3.SWEEP.trials(**FIGURE3_SMALL), jobs=jobs)
    return figure3.reduce(outcomes).to_json()


def _table1_json(jobs):
    outcomes = run_trials(table1.SWEEP.trials(**TABLE1_SMALL), jobs=jobs)
    return table1.reduce(outcomes).to_json()


class TestGoldenTraces:
    def test_figure3_jobs4_matches_jobs1_byte_for_byte(self):
        serial = _figure3_json(jobs=1)
        pooled = _figure3_json(jobs=4)
        assert serial == pooled
        # And the serialization isn't vacuously empty.
        assert '"tcp_cm_kBps"' in serial and '"rows"' in serial

    def test_table1_jobs4_matches_jobs1_byte_for_byte(self):
        assert _table1_json(jobs=1) == _table1_json(jobs=4)

    def test_figure3_rerun_is_byte_identical(self):
        assert _figure3_json(jobs=1) == _figure3_json(jobs=1)


class TestScenarioRerunDeterminism:
    def test_back_to_back_scenario_runs_produce_identical_traces(self, tmp_path):
        # Two scenario.run() calls in the same process must agree byte-for-
        # byte on both the result payload and the full JSONL telemetry
        # trace: nothing on the packet path (ids included) may depend on
        # process history.
        from repro.scenario import get_preset, run as run_scenario

        spec = get_preset("parking_lot_mix")
        payloads, traces = [], []
        for attempt in range(2):
            trace = tmp_path / f"trace{attempt}.jsonl"
            payloads.append(run_scenario(spec, seed=spec.seed, trace_path=str(trace)).to_json())
            traces.append(trace.read_bytes())
        assert payloads[0] == payloads[1]
        assert traces[0] == traces[1]
        assert traces[0], "trace file must not be empty"


class TestRunnerDeterminism:
    def test_run_experiment_provenance_and_determinism(self):
        first = run_experiment("figure3", jobs=2, smoke=True, seed=(1, 2))
        second = run_experiment("figure3", jobs=1, smoke=True, seed=(1, 2))
        assert first.to_json() == second.to_json()
        assert second.provenance["trials"] == 12
        assert second.provenance["jobs"] == 1
        assert second.provenance["seeds"] == [1, 2]
        assert first.provenance["experiment"] == "figure3"
