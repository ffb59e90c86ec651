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
from collections import Counter

import pytest

import repro
import repro.analysis  # noqa: F401  (a collector imports it lazily: not inside the count)
from repro.scenario import build, get_preset, run_built

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: row -> (preset, simulated seconds, probes on?, budget in calls per delivered
#: packet).  Each budget is the measured value + 5 %: 53.20, 43.09 and 52.57
#: when the segment path was trimmed (``docs/cm_api_path.md``, round two).  The
#: commit before that measured 77.24, 72.94 and 91.39 — not counting the seven
#: ``json`` frames per trace line outside ``src/repro`` — and the one before
#: round one 147.03 and 107.42.
BUDGETS = {
    "libcm_select_streaming": ("libcm_select_streaming", 3.0, False, 55.9),
    "bulk_macroflow_sharing": ("bulk_macroflow_sharing", 6.0, False, 45.2),
    "bulk_macroflow_sharing+trace": ("bulk_macroflow_sharing", 6.0, True, 55.2),
}


def calls_per_packet(preset: str, until: float, trace_path=None):
    """``(calls per delivered packet, calls by module)`` of one profiled run."""
    spec = get_preset(preset)
    spec.stop.until = until
    scenario = build(spec, seed=spec.seed, trace_path=trace_path)
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(BUDGETS):
            measured, modules = _measure(name, scratch)
            print(f"{name}: {measured:.2f} calls per delivered packet "
                  f"(budget {BUDGETS[name][-1]})")
            print(_split(modules))
