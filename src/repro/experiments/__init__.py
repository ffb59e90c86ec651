"""Experiment harnesses reproducing every table and figure in the paper.

Each module declares one :class:`~.sweep.Sweep` — the axes and fixed params
of its trials, the ``trial`` function that runs one, and the ``reduce`` that
merges the outcomes — so ``python -m repro.experiments`` (see
:mod:`repro.experiments.runner`) can shard the independent trials across
worker processes.  One module per paper table or figure (``figure3`` …
``figure10``, ``table1``) plus the extensions; the sweep contract is
documented in ``docs/parallel_runner.md``.
"""

from .base import ExperimentResult, format_table
from .sweep import Sweep, TrialOutcome, TrialSpec, run_trials

__all__ = [
    "ExperimentResult",
    "format_table",
    "Sweep",
    "TrialSpec",
    "TrialOutcome",
    "run_trials",
]
