"""The `hostile` and `burstloss` registry experiments.

Both ride the realism features added to the link/workload layers: `hostile`
drives the unresponsive ``udp_blast`` workload against managed CM flows,
`burstloss` sweeps the Gilbert-Elliott fade length at a fixed long-run loss
rate.  The tests pin the registry contract (smoke overrides, a seed axis,
jobs-invariant reduction) and the acceptance metrics the ISSUE names:
intra-CM Jain fairness >= 0.9 under the blast, and a well-formed
goodput-vs-burstiness curve with a Bernoulli baseline row.
"""

import math

import pytest

from repro.experiments import burstloss, hostile
from repro.experiments.registry import SWEEPS, get_sweep
from repro.experiments.sweep import run_trials


class TestRegistryContract:
    @pytest.mark.parametrize("name", ["hostile", "burstloss"])
    def test_registered_with_smoke_and_seeds(self, name):
        sweep = get_sweep(name)
        assert sweep.varies("seed")
        assert sweep.smoke  # CI --smoke runs need reduced kwargs
        # The smoke overrides must name params of the sweep.
        specs = sweep.trials(smoke=True)
        assert specs and all(t.experiment == name for t in specs)

    def test_cli_knows_the_new_names(self):
        assert "hostile" in SWEEPS
        assert "burstloss" in SWEEPS


class TestHostile:
    def test_cm_flows_stay_fair_under_blast(self):
        # The ISSUE's acceptance metric: Jain over the CM flows >= 0.9 while
        # an unresponsive blast occupies half the bottleneck.
        value = hostile.run_trial(
            {"blast_fraction": 0.5, "duration": 8.0, "seed": 1})
        assert value["cm_jain_fairness"] >= 0.9
        # The blast is unresponsive: it delivers ~its configured rate.
        assert value["blast_goodput_Bps"] == pytest.approx(
            0.5 * hostile.BOTTLENECK_BPS / 8.0, rel=0.10)

    def test_zero_fraction_trial_has_no_blast(self):
        spec = hostile.hostile_spec(0.0, 4.0)
        assert spec.workloads == []
        value = hostile.run_trial(
            {"blast_fraction": 0.0, "duration": 4.0, "seed": 1})
        assert value["blast_goodput_Bps"] == 0.0
        assert value["cm_goodput_Bps"] > 0.0

    def test_reduce_is_jobs_invariant_and_notes_acceptance(self):
        specs = hostile.SWEEP.trials(blast_fraction=(0.0, 0.5), duration=6.0,
                                     seed=(1,))
        serial = hostile.reduce(run_trials(specs, jobs=1)).to_json()
        pooled = hostile.reduce(run_trials(specs, jobs=2)).to_json()
        assert serial == pooled
        assert "Jain fairness >= 0.9" in serial
        assert "PASS" in serial


class TestBurstloss:
    def test_ge_params_hit_the_target_rate_and_burst(self):
        for loss, burst in [(0.03, 1), (0.03, 8), (0.2, 4)]:
            params = burstloss.ge_params(loss, burst)
            p_gb, p_bg = params["p_good_bad"], params["p_bad_good"]
            assert p_bg == pytest.approx(1.0 / burst)
            # Stationary loss rate of the on/off chain recovers the target.
            assert p_gb / (p_gb + p_bg) == pytest.approx(loss)
            assert 0.0 < p_gb <= 1.0

    def test_ge_params_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            burstloss.ge_params(0.0, 4)
        with pytest.raises(ValueError):
            burstloss.ge_params(0.03, 0.5)

    def test_burst_zero_is_the_bernoulli_baseline(self):
        spec = burstloss.burstloss_spec(0, 0.03, 5.0)
        lossy = next(l for l in spec.graph.links if l.a == "r0")
        assert lossy.loss is None and lossy.loss_rate == 0.03
        spec_ge = burstloss.burstloss_spec(4, 0.03, 5.0)
        lossy_ge = next(l for l in spec_ge.graph.links if l.a == "r0")
        assert lossy_ge.loss["kind"] == "gilbert_elliott"
        assert lossy_ge.loss_rate == 0.0

    def test_observed_loss_tracks_the_configured_rate(self):
        # 10 s at ~3% loss: the empirical rate should land in the right
        # ballpark for both correlation structures.
        for burst in (0, 4):
            value = burstloss.run_trial(
                {"burst_length": burst, "loss_rate": 0.03, "duration": 10.0,
                 "seed": 1})
            assert 0.005 <= value["observed_loss"] <= 0.10
            assert value["goodput_Bps"] > 0.0

    def test_reduce_labels_the_baseline_row(self):
        specs = burstloss.SWEEP.trials(burst_length=(0, 2), duration=6.0, seed=(1,))
        result = burstloss.reduce(run_trials(specs, jobs=1))
        labels = [row[0] for row in result.rows]
        assert "bernoulli" in labels and 2 in labels
        assert all(not (isinstance(x, float) and math.isnan(x))
                   for row in result.rows for x in row[1:])
