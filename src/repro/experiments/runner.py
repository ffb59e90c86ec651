"""Command-line runner for the reproduction experiments.

Usage (installed as the ``cm-experiments`` console script)::

    cm-experiments figure3
    cm-experiments figure3 --seeds 5 --jobs 4 --json-dir out/
    cm-experiments figure7 figure8 --jobs 2
    cm-experiments all
    python -m repro.experiments table1

Each experiment prints the table/series it reproduces plus notes comparing
against the paper's reported behaviour.  Trials shard across ``--jobs``
worker processes and are memoized in a content-addressed on-disk cache
(``--cache-dir``, disable with ``--no-cache``); ``--json-dir`` writes the
deterministic JSON artifact plus a ``.meta.json`` provenance sidecar per
experiment.  See ``docs/parallel_runner.md`` for the trial/reduce contract.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from typing import List, Optional, Sequence

from . import artifacts
from .base import ExperimentResult
from .parallel import TrialCache, run_trials
from .registry import SPECS, get_spec

__all__ = ["DEFAULT_CACHE_DIR", "run_experiment", "main"]

#: Default location of the content-addressed trial cache (relative to CWD).
DEFAULT_CACHE_DIR = ".cm-trial-cache"


def run_experiment(
    name: str,
    seeds: Optional[Sequence[int]] = None,
    jobs: int = 1,
    cache: Optional[TrialCache] = None,
    smoke: bool = False,
    verbose: bool = True,
) -> ExperimentResult:
    """Run a single experiment by name through the sharded trial layer.

    ``seeds`` is honoured by seed-aware experiments (figure3, figure7,
    aggressiveness) and ignored by the rest; ``jobs`` shards trials across
    worker processes; ``cache`` memoizes trial results on disk.  The returned
    result carries provenance (seeds, jobs, git rev, wall clock, cache
    counters) that :func:`repro.experiments.artifacts.write_artifacts`
    records in the ``.meta.json`` sidecar.
    """
    spec = get_spec(name)
    progress = (lambda msg: print(f"  [{name}] {msg}", file=sys.stderr)) if verbose else None
    kwargs = dict(spec.smoke) if smoke else {}
    if seeds is not None and spec.supports_seeds:
        kwargs["seeds"] = tuple(seeds)
    trial_specs = spec.trials(**kwargs)
    started = time.perf_counter()
    outcomes = run_trials(trial_specs, jobs=jobs, cache=cache, progress=progress)
    result = spec.reduce(outcomes)
    result.provenance = artifacts.build_provenance(
        experiment=name,
        seeds=seeds,
        jobs=jobs,
        wall_clock_s=time.perf_counter() - started,
        n_trials=len(trial_specs),
        n_cached=sum(1 for outcome in outcomes if outcome.cached),
    )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``cm-experiments`` script."""
    parser = argparse.ArgumentParser(description="Reproduce the Congestion Manager paper's evaluation")
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names (figure3..figure10, table1, ablations, timeseries) or 'all'",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress messages")
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="average seed-aware experiments over seeds 1..N (others ignore this)",
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
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"content-addressed trial cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the on-disk trial cache")
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

    seeds = tuple(range(1, args.seeds + 1)) if args.seeds is not None else None
    cache = None if args.no_cache else TrialCache(args.cache_dir)

    names = list(SPECS) if "all" in args.experiments else args.experiments
    exit_code = 0
    for name in names:
        if name not in SPECS:
            print(f"unknown experiment: {name}", file=sys.stderr)
            exit_code = 2
            continue
        started = time.time()
        try:
            result = run_experiment(
                name,
                seeds=seeds,
                jobs=args.jobs,
                cache=cache,
                smoke=args.smoke,
                verbose=not args.quiet,
            )
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
    if cache is not None and not args.quiet:
        print(
            f"trial cache: {cache.hits} hits, {cache.misses} misses ({args.cache_dir})",
            file=sys.stderr,
        )
    return exit_code


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
