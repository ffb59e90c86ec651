"""Every topology spelling is a graph: pair and dumbbell specs equal their graph twins.

The builder compiles explicit ``hosts`` / ``links`` and a ``dumbbell`` block
into the same ``build_graph`` call a ``graph:`` block takes.  These tests
hold that compile to a relation, not a pin: a pair or dumbbell preset and
a hand-written ``graph:`` twin of it give equal result bytes, except the
spec digest (the specs are spelled differently).  The lossy variants make
the twins' loss draws line up too, so a seed that moved would show.
"""

import copy
import json

import pytest

from repro.scenario import (GraphLinkSpec, GraphNodeSpec, GraphSpec, build, get_preset,
                            run, run_built)


def _result(scenario):
    payload = json.loads(run_built(scenario).to_json())
    del payload["spec_digest"]
    return payload


def _graph_twin(spec):
    """``spec`` with its hosts as host nodes and link *i* at ``seed_offset = 2*i``.

    A graph link cannot declare a ``rate_schedule``; the caller schedules
    the steps on ``GraphNet.set_rate``, as the runner does for a pair link.
    """
    twin = copy.deepcopy(spec)
    nodes = [GraphNodeSpec(**{field: getattr(host, field) for field in type(host).FIELDS})
             for host in spec.hosts]
    links = [GraphLinkSpec(**{field: getattr(link, field) for field in GraphLinkSpec.FIELDS
                              if field != "seed_offset"}, seed_offset=2 * index)
             for index, link in enumerate(spec.links)]
    twin.hosts, twin.links = [], []
    twin.graph = GraphSpec(nodes=nodes, links=links)
    return twin


def _run_twin(spec, seed):
    twin = _graph_twin(spec)
    scenario = build(twin, seed=seed)
    net = scenario.graph_net
    for link in spec.links:
        for when, rate_bps in link.rate_schedule:
            scenario.sim.schedule(when, net.set_rate, link.a, link.b, rate_bps)
    return _result(scenario)


PAIR_PRESETS = ("web_vat_mix", "bulk_macroflow_sharing",
                "libcm_poll_streaming", "libcm_select_streaming")


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
@pytest.mark.parametrize("seed", [1, 4])
@pytest.mark.parametrize("name", PAIR_PRESETS)
def test_a_pair_preset_equals_its_graph_twin(name, seed, lossy):
    spec = get_preset(name)
    assert all(when > 0.0 for link in spec.links for when, _ in link.rate_schedule)
    if lossy:
        for link in spec.links:
            link.loss_rate, link.reverse_loss_rate = 0.02, 0.01
    pair = _result(build(spec, seed=seed))
    assert _run_twin(spec, seed) == pair
    if lossy:
        assert sum(entry["dropped_random"] for entry in pair["links"]) > 0


def test_the_dumbbell_preset_equals_its_graph_twin():
    spec = get_preset("dumbbell_bulk")
    bell = spec.dumbbell
    hosts = [(f"{role}{i}", f"10.0.{subnet}.{i + 1}")
             for role, subnet in (("sender", 1), ("receiver", 2)) for i in range(bell.n_pairs)]
    nodes = [GraphNodeSpec(name=name, addr=addr, cm=name in ("sender0", "sender1"))
             for name, addr in hosts]
    nodes += [GraphNodeSpec(name="left", kind="router"), GraphNodeSpec(name="right", kind="router")]
    links = [GraphLinkSpec(a="left", b="right", rate_bps=bell.bottleneck_bps,
                           delay=bell.bottleneck_delay, queue_limit=bell.queue_limit,
                           reverse_loss_rate=0.0)]
    for i in range(bell.n_pairs):
        for a, b in ((f"sender{i}", "left"), ("right", f"receiver{i}")):
            links.append(GraphLinkSpec(a=a, b=b, rate_bps=bell.access_bps,
                                       delay=bell.access_delay, queue_limit=1000))
    twin = copy.deepcopy(spec)
    twin.dumbbell = None
    twin.graph = GraphSpec(nodes=nodes, links=links)
    assert bell.cm_senders == (0, 1)
    expected = json.loads(run(spec, seed=3).to_json())
    produced = json.loads(run(twin, seed=3).to_json())
    del expected["spec_digest"], produced["spec_digest"]
    assert produced == expected
