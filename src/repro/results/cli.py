"""Command-line front end: ``python -m repro.results``.

Subcommands::

    ingest PATH...              ingest artifacts (files or directories) into --db
    query                       inspect what the store holds (counts, runs, rows)

Exit codes: 0 success, 1 ingest errors with ``--strict``, 2 usage problems or a
store with another schema version.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .store import IngestReport, ResultStore, SchemaVersionError

__all__ = ["main"]

DEFAULT_DB = "results.sqlite"


def _cmd_ingest(args: argparse.Namespace) -> int:
    outcome = IngestReport()
    with ResultStore(args.db) as store:
        for path in args.paths:
            if not os.path.exists(path):
                outcome.skipped += 1
                outcome.errors.append(f"{path}: no such file or directory")
                continue
            outcome.merge(store.ingest_path(path, label=args.label))
    print(outcome.summary())
    if args.strict and (outcome.skipped or outcome.errors):
        return 1
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with ResultStore(args.db or ":memory:") as store:
        if args.name is not None:
            rows = store.bench_rows(label=args.label, name=args.name)
            if args.json:
                print(json.dumps(rows, indent=2, sort_keys=True))
            else:
                for row in rows:
                    speedup = f"  x{row['speedup']:.2f} vs seed" if row["speedup"] else ""
                    print(f"{row['label']:<12} {row['name']:<22} "
                          f"{row['ops_per_sec']:>14,.0f} ops/s{speedup}")
            return 0
        runs = store.runs(kind=args.kind, label=args.label)
        if args.json:
            print(json.dumps({"counts": store.counts(), "runs": runs}, indent=2, sort_keys=True))
            return 0
        counts = store.counts()
        print("store: " + ", ".join(f"{counts[k]} {k}" for k in sorted(counts)))
        for run in runs:
            print(f"  #{run['id']:<4} {run['kind']:<10} {run['label']:<14} {run['name']:<28} "
                  f"src={run['source'] or '-'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.results",
        description="Fleet-scale result store: ingest and query measurement artifacts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="ingest artifact files/directories into the store")
    ingest.add_argument("paths", nargs="+", metavar="PATH",
                        help="BENCH_*.json, experiment/scenario JSON, .jsonl traces, or dirs")
    ingest.add_argument("--db", default=DEFAULT_DB, metavar="PATH",
                        help=f"sqlite store path (default: {DEFAULT_DB})")
    ingest.add_argument("--label", default=None,
                        help="override the PR label recorded for the ingested artifacts")
    ingest.add_argument("--strict", action="store_true",
                        help="exit 1 if any file was skipped or corrupt")
    ingest.set_defaults(func=_cmd_ingest)

    query = sub.add_parser("query", help="inspect runs and benchmark rows")
    query.add_argument("--db", default=None, metavar="PATH",
                       help="sqlite store to read (default: ephemeral in-memory store)")
    query.add_argument("--kind", choices=("bench", "experiment", "scenario", "trace"),
                       default=None, help="filter runs by artifact family")
    query.add_argument("--label", default=None, help="filter by PR/bench label")
    query.add_argument("--name", default=None,
                       help="show one benchmark's trajectory instead of the run list")
    query.add_argument("--json", action="store_true", help="machine-readable output")
    query.set_defaults(func=_cmd_query)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except SchemaVersionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
