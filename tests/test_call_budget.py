"""A guard on the per-packet CM API path that cannot flake.

Python function calls into ``src/repro`` per delivered packet, counted by
``cProfile`` on two presets at a small horizon.  It is a count, not a
wall-clock ratio: it repeats exactly, so it holds on a loaded machine, and it
moves only when code on the packet path gains or loses a frame — which is
what ``docs/cm_api_path.md`` spent its effort on.  Calls into the
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
from collections import Counter

import pytest

import repro
from repro.scenario import build, get_preset, run_built

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: preset -> (simulated seconds, budget in calls per delivered packet).  Each
#: budget is the measured value + 5 %: 77.24 and 72.94 when this file was
#: written (the commit before it measured 147.03 and 107.42).
BUDGETS = {
    "libcm_select_streaming": (3.0, 81.1),
    "bulk_macroflow_sharing": (6.0, 76.6),
}


def calls_per_packet(preset: str, until: float):
    """``(calls per delivered packet, calls by module)`` of one profiled run."""
    spec = get_preset(preset)
    spec.stop.until = until
    scenario = build(spec, seed=spec.seed)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_built(scenario)
    profiler.disable()
    by_module: Counter = Counter()
    for (filename, _line, name), (primitive, *_rest) in pstats.Stats(profiler).stats.items():
        if filename.startswith(_SRC) and not name.endswith("comp>"):
            module = filename[len(_SRC):].replace(os.sep, ".")[:-len(".py")]
            by_module[module] += primitive
    packets = sum(link["delivered_packets"] for link in result.payload()["links"])
    assert packets > 500, "the horizon is too small to mean anything"
    return sum(by_module.values()) / packets, by_module


def _split(by_module: Counter) -> str:
    total = sum(by_module.values())
    return "\n".join(f"  {module:<32}{calls:>9}{100.0 * calls / total:>6.1f} %"
                     for module, calls in by_module.most_common(20))


@pytest.mark.parametrize("preset", sorted(BUDGETS))
def test_calls_per_packet_repeat_exactly_and_stay_under_budget(preset):
    until, budget = BUDGETS[preset]
    first, by_module = calls_per_packet(preset, until)
    second, again = calls_per_packet(preset, until)
    assert by_module == again, "the call count must not depend on the run:\n" + _split(
        Counter({m: abs(by_module[m] - again[m]) for m in set(by_module) | set(again)}))
    assert first == second
    assert first <= budget, (
        f"{preset}: {first:.2f} calls into src/repro per delivered packet, budget {budget}\n"
        + _split(by_module))


if __name__ == "__main__":
    for name, (horizon, allowed) in sorted(BUDGETS.items()):
        measured, modules = calls_per_packet(name, horizon)
        print(f"{name}: {measured:.2f} calls per delivered packet (budget {allowed})")
        print(_split(modules))
