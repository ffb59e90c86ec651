"""In-loop attribution: run a callable under ``cProfile`` and group by layer.

``tottime`` (self time) and primitive call counts are summed per layer from
each profiled function's file path.  cProfile charges every Python call a
fixed cost and native code none, so the *shares* lean toward call-heavy
layers; the isolated drivers and exact counts do not have that bias.

The sharded workload's event loops live in forked worker processes.
``profile_with_children`` patches ``multiprocessing.process.BaseProcess.run``
(the documented override point) for the duration of the call so that every
child profiles itself and dumps its stats beside the parent's; the profiles
use the CPU clock there, because a worker blocked on its pipe is waiting,
not working.
"""

from __future__ import annotations

import cProfile
import glob
import multiprocessing.process
import os
import pstats
import time
from typing import Any, Callable, Dict, Tuple

import repro

from .metrics import LAYERS, layer_of

__all__ = ["profile_call", "profile_with_children", "layer_table"]

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def profile_call(fn: Callable[[], Any]) -> Tuple[Any, pstats.Stats]:
    """Run ``fn()`` under cProfile (wall clock); returns its value and the stats."""
    profiler = cProfile.Profile()
    value = profiler.runcall(fn)
    return value, pstats.Stats(profiler)


def profile_with_children(fn: Callable[[], Any], dump_dir: str) -> Tuple[Any, pstats.Stats]:
    """Like :func:`profile_call`, merging the profiles of forked child processes."""
    original_run = multiprocessing.process.BaseProcess.run

    def profiled_run(self) -> None:
        profiler = cProfile.Profile(time.process_time)
        try:
            profiler.runcall(original_run, self)
        finally:
            profiler.dump_stats(os.path.join(dump_dir, f"child.{os.getpid()}.prof"))

    multiprocessing.process.BaseProcess.run = profiled_run
    try:
        profiler = cProfile.Profile(time.process_time)
        value = profiler.runcall(fn)
    finally:
        multiprocessing.process.BaseProcess.run = original_run
    stats = pstats.Stats(profiler)
    for path in sorted(glob.glob(os.path.join(dump_dir, "child.*.prof"))):
        stats.add(path)
        os.remove(path)
    return value, stats


def _layer_of_file(filename: str) -> str:
    if not filename.startswith(_REPRO_ROOT):
        return "python-other"
    return layer_of(filename[len(_REPRO_ROOT):].replace(os.sep, "/"))


def layer_table(stats: pstats.Stats, packets: float) -> Dict[str, float]:
    """``<layer>.self_share`` and ``<layer>.calls_per_packet`` for every layer."""
    self_time = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for (filename, _line, _name), (primitive, _total, tottime, _cum, _callers) in stats.stats.items():
        layer = _layer_of_file(filename)
        self_time[layer] += tottime
        calls[layer] += primitive
    total = sum(self_time.values())
    table: Dict[str, float] = {}
    for layer in LAYERS:
        table[f"{layer}.self_share"] = self_time[layer] / total if total > 0 else 0.0
        table[f"{layer}.calls_per_packet"] = calls[layer] / packets if packets > 0 else 0.0
    return table
