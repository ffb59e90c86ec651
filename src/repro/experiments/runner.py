"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro.experiments figure3
    python -m repro.experiments figure3 --seeds 5 --jobs 4 --json-dir out/
    python -m repro.experiments figure7 figure8 --jobs 2
    python -m repro.experiments all

Each experiment prints the table/series it reproduces plus notes comparing
against the paper's reported behaviour.  Trials shard across ``--jobs``
worker processes; within one invocation each distinct trial list runs once
and every experiment that reads it reduces the same outcomes (``figure5``
reads ``figure4``'s).  ``--json-dir`` writes the deterministic JSON artifact
plus a ``.meta.json`` provenance sidecar per experiment.  See
``docs/parallel_runner.md`` for the sweep contract.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from typing import Dict, List, Optional

from . import artifacts
from .base import ExperimentResult
from .registry import SWEEPS, get_sweep
from .sweep import Sweep, TrialOutcome, canonical_json, run_trials

__all__ = ["run_experiment", "main"]


def run_experiment(name: str, jobs: int = 1, smoke: bool = False, **overrides) -> ExperimentResult:
    """Run one experiment by name: its sweep's trials on ``jobs`` workers, reduced.

    ``smoke`` selects the sweep's reduced workload; each override replaces
    an axis's values or a fixed param by name (``seed=(1, 2, 3)``).  The
    result carries provenance (seeds, jobs, git rev, wall clock) that
    :func:`repro.experiments.artifacts.write_artifacts` records in the
    ``.meta.json`` sidecar.
    """
    return _run(get_sweep(name), jobs, smoke, overrides, {}, quiet=True)


def _run(
    sweep: Sweep,
    jobs: int,
    smoke: bool,
    overrides: dict,
    ran: Dict[str, List[TrialOutcome]],
    quiet: bool,
) -> ExperimentResult:
    """Reduce ``sweep``'s trials; ``ran`` holds the outcomes of every trial list run so far."""
    started = time.perf_counter()
    specs = sweep.trials(smoke=smoke, **overrides)
    key = canonical_json([[spec.experiment, spec.params] for spec in specs])
    if key not in ran:
        progress = None if quiet else (lambda msg: print(f"  [{sweep.name}] {msg}", file=sys.stderr))
        ran[key] = run_trials(specs, jobs=jobs, progress=progress)
    result = sweep.reduce(ran[key])
    seeds = sorted({spec.params["seed"] for spec in specs if "seed" in spec.params})
    result.provenance = artifacts.build_provenance(
        experiment=sweep.name,
        seeds=seeds or None,
        jobs=jobs,
        wall_clock_s=time.perf_counter() - started,
        n_trials=len(specs),
    )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(description="Reproduce the Congestion Manager paper's evaluation")
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment names ({', '.join(SWEEPS)}) or 'all'",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress messages")
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="run the experiments that sweep a seed over seeds 1..N (others ignore this)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard trials across N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--json-dir",
        default=None,
        metavar="DIR",
        help="write <name>.json artifacts plus <name>.meta.json provenance sidecars to DIR",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DB",
        help="register written artifacts in this sqlite result store "
             "(implies nothing without --json-dir; REPRO_RESULT_STORE is the env fallback)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced workloads for CI smoke runs (same code paths, smaller sweeps)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.seeds is not None and args.seeds < 1:
        parser.error("--seeds must be >= 1")

    names = list(SWEEPS) if "all" in args.experiments else args.experiments
    ran: Dict[str, List[TrialOutcome]] = {}
    exit_code = 0
    for name in names:
        if name not in SWEEPS:
            print(f"unknown experiment: {name}", file=sys.stderr)
            exit_code = 2
            continue
        sweep = SWEEPS[name]
        overrides = {}
        if args.seeds is not None and sweep.varies("seed"):
            overrides["seed"] = tuple(range(1, args.seeds + 1))
        started = time.time()
        try:
            result = _run(sweep, args.jobs, args.smoke, overrides, ran, args.quiet)
        except Exception:
            # One broken experiment must not take down the rest of an
            # ``all`` run: report it, flag the exit code, keep going.
            print(f"experiment {name} failed:", file=sys.stderr)
            traceback.print_exc()
            exit_code = exit_code or 1
            continue
        print(result.to_text())
        if args.json_dir:
            payload_path, meta_path = artifacts.write_artifacts(
                result, args.json_dir, store=args.store
            )
            print(f"(wrote {payload_path} and {meta_path})", file=sys.stderr)
        elif args.store:
            artifacts.register_artifact(result, source=f"{name}.json", store=args.store)
            print(f"(registered {name} in {args.store})", file=sys.stderr)
        print(f"({name} completed in {time.time() - started:.1f}s wall clock)\n")
    return exit_code
