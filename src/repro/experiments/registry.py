"""Every experiment the CLI runs, as its module's :class:`~.sweep.Sweep`, in ``all`` order.

Trial workers resolve ``TrialSpec.experiment`` here to the sweep whose
``trial`` runs it; the contract is documented in ``docs/parallel_runner.md``.
"""

from __future__ import annotations

from typing import Dict

from . import (
    ablations,
    aggressiveness,
    burstloss,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    hostile,
    scale,
    table1,
    timeseries,
)
from .sweep import Sweep

__all__ = ["SWEEPS", "get_sweep"]

SWEEPS: Dict[str, Sweep] = {
    module.SWEEP.name: module.SWEEP
    for module in (
        figure3, figure4, figure5, figure6, table1, figure7, figure8, figure9, figure10,
        ablations, timeseries, scale, hostile, burstloss, aggressiveness,
    )
}


def get_sweep(name: str) -> Sweep:
    """Look up a sweep by name; raises KeyError with the known names."""
    if name not in SWEEPS:
        raise KeyError(f"unknown experiment {name!r}; choose from {sorted(SWEEPS)}")
    return SWEEPS[name]
