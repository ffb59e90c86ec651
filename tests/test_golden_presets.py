"""Golden determinism for the graph/workload presets.

Like ``tests/golden/figure3_smoke_seeds3.json`` for the experiment runner,
these files pin the *byte-exact* output of the three graph+workload presets
at their default seeds.  Any change to the spec tree, the graph compiler,
the routing tie-breaks, the workload RNG derivation or the arrival/size
distributions shows up here as a diff — which is exactly the point: those
are all load-bearing determinism contracts now.

The same-seed and jobs=N invariants mirror the experiment layer: repeat
runs are byte-identical, traces are byte-identical, and the ``scale``
experiment reduces to the same bytes no matter how its trials are sharded.
"""

import json
import os

import pytest

from repro.scenario import get_preset, preset_names, run
from repro.scenario.cli import main as scenario_main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: (preset, seed) pairs with a checked-in golden result.
GOLDEN_PRESETS = (
    ("parking_lot_mix", 21),
    ("star_web_churn", 5),
    ("mesh_macroflow_sharing", 9),
    ("gilbert_wireless_bulk", 17),
    ("red_gateway_sharing", 19),
    ("flash_crowd_star", 23),
    ("cm_vs_udp_blast", 27),
    ("mobile_handoff_reroute", 31),
)

#: The realism presets additionally pin their bytes under the sharded engine.
SHARDED_GOLDEN_PRESETS = (
    ("gilbert_wireless_bulk", 17),
    ("red_gateway_sharing", 19),
    ("flash_crowd_star", 23),
    ("cm_vs_udp_blast", 27),
    ("mobile_handoff_reroute", 31),
)


def golden_path(name: str, seed: int) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.seed{seed}.json")


class TestGoldenPresets:
    @pytest.mark.parametrize("name,seed", GOLDEN_PRESETS)
    def test_preset_matches_checked_in_golden_bytes(self, name, seed):
        spec = get_preset(name)
        assert spec.seed == seed, "golden filename encodes the preset's default seed"
        produced = run(spec, seed=seed).to_json()
        with open(golden_path(name, seed), "r", encoding="utf-8") as fh:
            golden = fh.read()
        assert produced == golden

    @pytest.mark.parametrize("name,seed", GOLDEN_PRESETS)
    def test_same_seed_rerun_is_byte_identical(self, name, seed):
        spec = get_preset(name)
        assert run(spec, seed=seed).to_json() == run(spec, seed=seed).to_json()

    def test_goldens_are_not_vacuous(self):
        # The pinned results must actually contain churn: a regression that
        # silently stopped the workloads would otherwise still "match".
        with open(golden_path("parking_lot_mix", 21), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        flows = sum(entry["metrics"]["flows_started"] for entry in payload["workloads"])
        assert flows > 10
        assert any(entry["link"] == "r1->r2" for entry in payload["links"])

    @pytest.mark.parametrize("name,seed", SHARDED_GOLDEN_PRESETS)
    def test_sharded_run_matches_checked_in_golden_bytes(self, name, seed):
        # PR 9's byte-determinism contract extends to the realism features:
        # GE loss, RED, time-varying arrivals, udp_blast and mid-run reroutes
        # must all produce the exact golden bytes under the parallel engine.
        from repro.netsim.parallel import run_sharded

        spec = get_preset(name)
        produced = run_sharded(spec, seed=seed, shards=2).to_json()
        with open(golden_path(name, seed), "r", encoding="utf-8") as fh:
            golden = fh.read()
        assert produced == golden

    def test_realism_goldens_are_not_vacuous(self):
        # Each realism preset must exhibit the mechanism it exists to pin.
        with open(golden_path("gilbert_wireless_bulk", 17), encoding="utf-8") as fh:
            ge = json.load(fh)
        assert any(e["dropped_random"] > 0 for e in ge["links"])
        with open(golden_path("red_gateway_sharing", 19), encoding="utf-8") as fh:
            red = json.load(fh)
        assert any(e["ecn_marked"] > 0 for e in red["links"])
        with open(golden_path("cm_vs_udp_blast", 27), encoding="utf-8") as fh:
            blast = json.load(fh)
        wl = blast["workloads"][0]["metrics"]
        assert wl["packets_sent"] > 1000 and wl["packets_delivered"] > 1000
        with open(golden_path("mobile_handoff_reroute", 31), encoding="utf-8") as fh:
            handoff = json.load(fh)
        assert handoff["spec_digest"]  # reroutes participate in the digest

    @pytest.mark.parametrize("name,seed", GOLDEN_PRESETS[:1])
    def test_trace_files_are_byte_identical_across_runs(self, tmp_path, name, seed):
        spec = get_preset(name)
        trace_a = tmp_path / "a.jsonl"
        trace_b = tmp_path / "b.jsonl"
        run(spec, seed=seed, trace_path=str(trace_a))
        run(spec, seed=seed, trace_path=str(trace_b))
        assert trace_a.read_bytes() == trace_b.read_bytes()
        assert trace_a.stat().st_size > 0


class TestCliRoundTrips:
    """What the CLI writes is what it reads: ``dump`` and ``run`` in-process."""

    @pytest.mark.parametrize("name", preset_names())
    def test_dump_of_a_dumped_file_is_a_byte_fixpoint(self, tmp_path, name):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert scenario_main(["dump", name, "--output", str(first)]) == 0
        assert scenario_main(["dump", str(first), "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_a_dumped_graph_preset_runs_to_its_golden_bytes(self, tmp_path):
        spec_path, out = tmp_path / "plm.json", tmp_path / "out"
        assert scenario_main(["dump", "parking_lot_mix", "--output", str(spec_path)]) == 0
        assert scenario_main(["run", str(spec_path), "--seed", "21",
                              "--json-dir", str(out), "--quiet"]) == 0
        with open(golden_path("parking_lot_mix", 21), "rb") as fh:
            assert (out / "parking_lot_mix.seed21.json").read_bytes() == fh.read()


class TestScaleExperimentSharding:
    def test_scale_smoke_jobs2_matches_jobs1_byte_for_byte(self):
        from repro.experiments import scale
        from repro.experiments.parallel import run_trials

        specs = scale.trials(host_counts=(2, 3), duration=4.0, seeds=(1, 2))
        serial = scale.reduce(run_trials(specs, jobs=1)).to_json()
        pooled = scale.reduce(run_trials(specs, jobs=2)).to_json()
        assert serial == pooled
        assert '"jain_fairness"' in serial
