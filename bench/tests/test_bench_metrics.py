"""The metric catalogue, the manifest and the layer map stay in step."""

import json
import os
import re

import pytest

from bench.env import ROOT
from bench.metrics import (END_TO_END, ISOLATED, LAYER_RULES, LAYERS, PER_LAYER,
                           highest_supported_percentile, layer_of, percentile)
from bench.layers import DRIVERS
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("n, expected", [
    (5, None),       # five repeats support the median only
    (99, None),      # 9.9 samples beyond the p90 are not ten
    (100, 90),
    (199, 90),
    (200, 95),       # exactly ten beyond the p95
    (999, 95),
    (1000, 99),
])
def test_highest_percentile_needs_ten_samples_beyond_it(n, expected):
    assert highest_supported_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([3.0], 90) == 3.0


def test_names_and_units_fit_the_contract():
    names = [metric.name for metric in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in END_TO_END + PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    assert 2 <= len(WORKLOADS) <= 8


def test_manifest_matches_the_catalogue():
    manifest = _manifest()
    assert sorted(manifest) == ["command", "end_to_end", "paths", "per_layer",
                                "run_seconds", "workloads"]
    assert manifest["paths"] == ["bench"]
    assert manifest["workloads"] == [{"name": name, "why": workload.why}
                                     for name, workload in WORKLOADS.items()]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    setup = next(entry for entry in manifest["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in manifest["end_to_end"])
    for entry in manifest["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    for entry in manifest["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_every_isolated_metric_has_a_driver():
    service = {"service.http_roundtrip_us", "service.http_keepalive_roundtrip_us",
               "service.mailbox_roundtrip_us"}
    assert set(DRIVERS) | service == set(ISOLATED)


def test_every_repro_module_maps_to_exactly_one_layer():
    prefixes = [prefix for prefix, _layer in LAYER_RULES]
    assert len(prefixes) == len(set(prefixes)), "two rules share a prefix"
    assert {layer for _prefix, layer in LAYER_RULES} <= set(LAYERS)
    package = os.path.join(ROOT, "src", "repro")
    seen = 0
    for directory, _dirs, files in os.walk(package):
        for filename in files:
            if filename.endswith(".py"):
                relative = os.path.relpath(os.path.join(directory, filename), package)
                assert layer_of(relative.replace(os.sep, "/")) in LAYERS
                seen += 1
    assert seen > 100
    assert layer_of("core/libcm.py") == "core.libcm"
    assert layer_of("core/manager.py") == "core"
    assert layer_of("netsim/channel.py") == "netsim.link"
    assert layer_of("scenario/telemetry.py") == "telemetry"
    assert layer_of("netsim/parallel/shard.py") == "netsim.parallel"
    with pytest.raises(KeyError):
        layer_of("brand_new_package/module.py")
