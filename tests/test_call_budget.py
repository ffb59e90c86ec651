"""A guard on the per-packet CM API path that cannot flake.

Python function calls into ``src/repro`` per delivered packet, counted by
``cProfile`` on two presets at a small horizon — and on one of them again with
every probe and sampler streaming to a trace file, so that what watching a run
costs (the probe closures, the sink, the samplers) has a guard of the same
kind.  It is a count, not a wall-clock ratio: it repeats exactly, so it holds
on a loaded machine, and it moves only when code on the packet path gains or
loses a frame — which is what ``docs/cm_api_path.md`` spent its effort on.  Calls into the
interpreter's own builtins are left out, as are comprehension frames (inlined
from Python 3.12 on, PEP 709), so the number does not depend on the
interpreter version.

When a change *should* add calls (a new feature on the packet path), measure
with ``python tests/test_call_budget.py`` and raise the budget in the same
change, saying why.
"""

import cProfile
import os
import pstats
import random
import tracemalloc
from collections import Counter

import pytest

import repro
import repro.analysis  # noqa: F401  (a collector imports it lazily: not inside the count)
from repro.netsim.parallel import partition_graph
from repro.netsim.parallel.shard import Placement
from repro.scenario import build, get_preset, run_built
from repro.scenario.spec import GraphLinkSpec, GraphNodeSpec, GraphSpec, ScenarioSpec, StopSpec

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: row -> (preset, simulated seconds, probes on?, budget in calls per delivered
#: packet).  Each budget is the measured value + 5 %: 51.48, 41.50 and 50.96
#: now that the engine is one heap (no ``_enqueue_slow`` frame per out-of-order
#: push) and a link that finishes with an empty queue does not call
#: ``_start_next`` to learn so.  Before that 53.20, 43.09 and 52.57 (the
#: segment path trimmed, ``docs/cm_api_path.md`` round two); the commit before
#: that 77.24, 72.94 and 91.39 — not counting the seven ``json`` frames per
#: trace line outside ``src/repro`` — and the one before round one 147.03 and
#: 107.42.
BUDGETS = {
    "libcm_select_streaming": ("libcm_select_streaming", 3.0, False, 54.1),
    "bulk_macroflow_sharing": ("bulk_macroflow_sharing", 6.0, False, 43.6),
    "bulk_macroflow_sharing+trace": ("bulk_macroflow_sharing", 6.0, True, 53.6),
}


def _calls_by_module(profiler: cProfile.Profile) -> Counter:
    """Python calls into ``src/repro`` a profiler saw, keyed by module."""
    by_module: Counter = Counter()
    for (filename, _line, name), (primitive, *_rest) in pstats.Stats(profiler).stats.items():
        if filename.startswith(_SRC) and not name.endswith("comp>"):
            module = filename[len(_SRC):].replace(os.sep, ".")[:-len(".py")]
            by_module[module] += primitive
    return by_module


def calls_per_packet(preset: str, until: float, trace_path=None):
    """``(calls per delivered packet, calls by module)`` of one profiled run."""
    spec = get_preset(preset)
    spec.stop.until = until
    scenario = build(spec, seed=spec.seed, trace_path=trace_path)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_built(scenario)
    profiler.disable()
    by_module = _calls_by_module(profiler)
    packets = sum(link["delivered_packets"] for link in result.payload()["links"])
    assert packets > 500, "the horizon is too small to mean anything"
    return sum(by_module.values()) / packets, by_module


def _split(by_module: Counter) -> str:
    total = sum(by_module.values())
    return "\n".join(f"  {module:<32}{calls:>9}{100.0 * calls / total:>6.1f} %"
                     for module, calls in by_module.most_common(20))


def _measure(row: str, directory: str):
    preset, until, probed, _budget = BUDGETS[row]
    trace_path = os.path.join(directory, "trace.jsonl") if probed else None
    return calls_per_packet(preset, until, trace_path)


@pytest.mark.parametrize("row", sorted(BUDGETS))
def test_calls_per_packet_repeat_exactly_and_stay_under_budget(row, tmp_path):
    budget = BUDGETS[row][-1]
    first, by_module = _measure(row, str(tmp_path))
    second, again = _measure(row, str(tmp_path))
    assert by_module == again, "the call count must not depend on the run:\n" + _split(
        Counter({m: abs(by_module[m] - again[m]) for m in set(by_module) | set(again)}))
    assert first == second
    assert first <= budget, (
        f"{row}: {first:.2f} calls into src/repro per delivered packet, budget {budget}\n"
        + _split(by_module))


# ------------------------------------------------------------ graph build
def _barbell(hosts_per_cluster: int):
    """Two routers joined by a trunk, ``hosts_per_cluster`` leaf hosts on each."""
    nodes = [GraphNodeSpec(name="r0", kind="router"), GraphNodeSpec(name="r1", kind="router")]
    links = [GraphLinkSpec(a="r0", b="r1", rate_bps=100e6, delay=0.01)]
    for cluster in range(2):
        for i in range(hosts_per_cluster):
            nodes.append(GraphNodeSpec(name=f"c{cluster}h{i}", costs=False))
            links.append(GraphLinkSpec(a=f"c{cluster}h{i}", b=f"r{cluster}",
                                       rate_bps=50e6, delay=0.002))
    spec = ScenarioSpec(name="barbell", graph=GraphSpec(nodes=nodes, links=links),
                        stop=StopSpec(until=1.0))
    spec.validate()
    return spec


def build_calls(spec, placement=None) -> int:
    """Python calls into ``src/repro`` made by one ``build`` of ``spec``."""
    profiler = cProfile.Profile()
    profiler.enable()
    build(spec, seed=1, placement=placement)
    profiler.disable()
    return sum(_calls_by_module(profiler).values())


def _barbell_build_calls(row: str) -> int:
    spec = _barbell(64)
    if row == "whole":
        return build_calls(spec)
    return build_calls(spec, Placement(frozenset(partition_graph(spec, 2).members(0))))


#: Calls per ``build`` of a 2 x 64-host barbell, whole and as one of two
#: slices: measured (3,792 and 3,274) + 5 %, now that a leaf's row is a view
#: built without a call and reads its neighbour's cached search without one.
#: Before that 3,920 and 3,338; a big graph pays for what it uses — the
#: commit before routing went leaf-aware and routes installed in bulk made
#: 20,430 and 11,591 (the slice's table computed elsewhere and shipped to
#: it), one ``add_route`` frame per (node, destination) among them, which is
#: what grows with the square of the graph.
BUILD_BUDGETS = {"whole": 3982, "slice": 3438}


@pytest.mark.parametrize("row", sorted(BUILD_BUDGETS))
def test_build_calls_of_a_barbell_repeat_exactly_and_stay_under_budget(row):
    first, second = _barbell_build_calls(row), _barbell_build_calls(row)
    assert first == second
    assert first <= BUILD_BUDGETS[row], f"{row}: {first} calls, budget {BUILD_BUDGETS[row]}"


def routing_entries(hosts_per_cluster: int):
    """``(entries, bound)`` of a whole 2 x ``hosts_per_cluster`` barbell build.

    Entries are the installed per-destination routes plus the next-hop
    entries held in memory, each row counted once however many nodes read
    it (a leaf's row is a view over its neighbour's searched row).  The bound
    lets each router hold one name row and one address table per node.
    """
    net = build(_barbell(hosts_per_cluster), seed=1).graph_net
    rows = {}
    for row in net.next_hops.values():
        held = getattr(row, "searched", row)
        rows[id(held)] = held
    entries = (sum(len(node._routes) for node in net.nodes.values())
               + sum(len(row) for row in rows.values()))
    routers = sum(1 for node in net.nodes.values() if node.forwarding)
    return entries, 2 * routers * len(net.nodes) + len(net.nodes)


@pytest.mark.parametrize("hosts_per_cluster", [64, 256])
def test_routing_state_of_a_barbell_is_linear_in_its_hosts(hosts_per_cluster):
    entries, bound = routing_entries(hosts_per_cluster)
    assert entries <= bound, f"2 x {hosts_per_cluster}: {entries} entries, bound {bound}"


#: Bytes a directed link may allocate in ``netsim/link.py`` and ``random.py``
#: while a barbell builds: about 1,040 measured, now that a link seeds its
#: generator at its first draw and a sequenced link releases its delivery
#: deque; about 4,700 when every link built both (2,728 B of ``random.Random``,
#: 760 B of unused deque).  None of the barbell's links is lossy.
LINK_BYTES_BUDGET = 1536


def link_bytes_per_directed_link(hosts_per_cluster: int) -> float:
    """``link.py`` + ``random.py`` bytes traced per directed link of one build."""
    spec = _barbell(hosts_per_cluster)
    tracemalloc.start()
    try:
        scenario = build(spec, seed=1)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    traced = snapshot.filter_traces([
        tracemalloc.Filter(True, os.path.join("*", "netsim", "link.py")),
        tracemalloc.Filter(True, random.__file__),
    ])
    return (sum(stat.size for stat in traced.statistics("filename"))
            / len(scenario.graph_net.links))


def test_an_idle_link_of_a_barbell_stays_under_its_byte_budget():
    measured = link_bytes_per_directed_link(64)
    assert measured <= LINK_BYTES_BUDGET, (
        f"{measured:.0f} B per directed link, budget {LINK_BYTES_BUDGET}")


if __name__ == "__main__":
    import tempfile

    for name in sorted(BUILD_BUDGETS):
        print(f"barbell build, {name}: {_barbell_build_calls(name)} calls "
              f"(budget {BUILD_BUDGETS[name]})")
    for hosts in (64, 256):
        entries, bound = routing_entries(hosts)
        print(f"barbell routing state, 2 x {hosts}: {entries} entries (bound {bound})")
    print(f"barbell link memory, 2 x 64: {link_bytes_per_directed_link(64):.0f} B "
          f"per directed link (budget {LINK_BYTES_BUDGET})")
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(BUDGETS):
            measured, modules = _measure(name, scratch)
            print(f"{name}: {measured:.2f} calls per delivered packet "
                  f"(budget {BUDGETS[name][-1]})")
            print(_split(modules))
