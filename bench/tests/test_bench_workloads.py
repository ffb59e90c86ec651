"""A 1/20-horizon smoke of every workload generator."""

import pytest

from repro.scenario import build

from bench.workloads import WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_generator_validates_and_builds_at_a_twentieth(name):
    spec = WORKLOADS[name].spec(0.05)
    assert spec.validate() is spec
    scenario = build(spec, seed=3)
    assert scenario.seed == 3
    assert scenario.apps


def test_probed_workload_is_the_bulk_share_spec():
    assert WORKLOADS["bulk_share_probed"].spec is WORKLOADS["bulk_share"].spec
    assert WORKLOADS["bulk_share"].spec(1.0).to_dict() == WORKLOADS["bulk_share_probed"].spec(1.0).to_dict()


def test_generators_do_not_bake_the_run_seed_in():
    for name, workload in WORKLOADS.items():
        assert workload.spec(1.0).to_dict() == workload.spec(1.0).to_dict(), name
