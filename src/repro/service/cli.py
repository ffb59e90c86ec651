"""Command-line front end: ``python -m repro.service``.

Subcommands::

    serve                       run the control plane (blocks until shutdown)
    submit <preset-or-spec>     submit a job to a running server
    status [<id>]               one job's status, or the whole fleet
    result <id>                 print a finished job's result JSON
    watch <id>                  poll a job's progress until it finishes
    telemetry <id>              stream a traced job's JSONL telemetry
    cancel <id>                 cooperatively cancel a job
    health                      slots, queue depth and job counts of a running server
    shutdown                    stop a running server

Every client subcommand targets ``--url`` (default
``http://127.0.0.1:8421``, override with ``REPRO_SERVICE_URL``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from .client import ServiceClient, ServiceError

__all__ = ["main"]

DEFAULT_URL = os.environ.get("REPRO_SERVICE_URL", "http://127.0.0.1:8421")


def _client(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient(args.url)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .jobs import JobManager
    from .server import ServiceServer, write_endpoint_file

    manager = JobManager(
        slots=args.slots,
        store_path=args.store,
        trace_dir=args.trace_dir,
        keep_finished=args.keep_finished,
    )
    server = ServiceServer(manager, host=args.host, port=args.port, quiet=not args.verbose)
    print(f"repro.service listening on {server.address} "
          f"({args.slots} slot(s), store={args.store or 'none'})", file=sys.stderr)
    if args.endpoint_file:
        write_endpoint_file(args.endpoint_file, server.address)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
        server.stop()
    return 0


def _load_spec_arg(ref: str) -> dict:
    """A spec JSON file path → decoded dict (presets pass through by name)."""
    with open(ref, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _client(args)
    kwargs = {"trace": args.trace}
    if args.shards is not None:
        kwargs["shards"] = args.shards
    if args.seeds is not None:
        kwargs["seeds"] = list(range(1, args.seeds + 1))
    elif args.seed is not None:
        kwargs["seed"] = args.seed
    if args.scenario.endswith(".json") or os.path.sep in args.scenario:
        try:
            kwargs["spec"] = _load_spec_arg(args.scenario)
        except (OSError, ValueError) as exc:
            print(f"cannot load spec {args.scenario!r}: {exc}", file=sys.stderr)
            return 2
    else:
        kwargs["preset"] = args.scenario
    body = client.submit(**kwargs)
    for entry in body["jobs"]:
        print(f"job {entry['id']}: {entry['name']} seed={entry['seed']} "
              f"state={entry['state']} digest={entry['spec_digest'][:12]}")
    if args.wait:
        code = 0
        for entry in body["jobs"]:
            status = client.wait(entry["id"], timeout=args.timeout)
            print(f"job {status['id']}: {status['state']}"
                  + (f" ({status.get('error')})" if status.get("error") else ""))
            if status["state"] != "done":
                code = 1
        return code
    return 0


def _format_status(status: dict) -> str:
    progress = status.get("progress") or {}
    line = (f"job {status['id']}: {status.get('name')} seed={status.get('seed')} "
            f"state={status['state']}")
    if progress:
        line += (f" t={progress.get('sim_time', 0.0):.2f}/{progress.get('stop_time', 0.0):.2f}s"
                 f" ({100.0 * progress.get('fraction', 0.0):.0f}%)")
    if status.get("error"):
        line += f" error={status['error']}"
    if status.get("evicted"):
        line += " [from store]"
    return line


def _cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.id is not None:
        print(_format_status(client.job(args.id)))
    else:
        jobs = client.jobs()
        if not jobs:
            print("no jobs")
        for status in jobs:
            print(_format_status(status))
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    client = _client(args)
    text = client.result_text(args.id)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"(wrote {args.output})", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    client = _client(args)
    deadline = time.time() + args.timeout
    while True:
        status = client.job(args.id)
        print(_format_status(status))
        if status["state"] in ("done", "failed", "cancelled"):
            return 0 if status["state"] == "done" else 1
        if time.time() > deadline:
            print(f"timed out after {args.timeout}s", file=sys.stderr)
            return 1
        time.sleep(args.interval)


def _cmd_telemetry(args: argparse.Namespace) -> int:
    client = _client(args)
    for line in client.telemetry_lines(args.id, max_lines=args.max_lines):
        print(line)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    client = _client(args)
    print(_format_status(client.cancel(args.id)))
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    """Print the fleet's health; exit 1 unless it accepts work on live slots."""
    health = _client(args).health()
    jobs = " ".join(f"{state}={count}" for state, count in health["jobs"].items())
    print(f"{'accepting' if health['accepting'] else 'shutting down'}: "
          f"up {health['uptime_s']:.1f}s queue={health['queue_depth']} {jobs} "
          f"ingest_failures={health['ingest_failures']}")
    for slot in health["slots"]:
        doing = f"job {slot['job']}" if slot["busy"] else "idle"
        print(f"slot {slot['slot']}: pid {slot['pid']} "
              f"{'alive' if slot['alive'] else 'dead'} {doing} "
              f"jobs_run={slot['jobs_run']} respawns={slot['respawns']}")
    healthy = health["accepting"] and all(slot["alive"] for slot in health["slots"])
    return 0 if healthy else 1


def _cmd_shutdown(args: argparse.Namespace) -> int:
    client = _client(args)
    body = client.shutdown()
    print(body.get("message", "ok"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Simulation-as-a-service control plane over the scenario layer",
    )
    parser.add_argument("--url", default=DEFAULT_URL, metavar="URL",
                        help=f"server base URL (default {DEFAULT_URL})")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the control plane server")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8421, help="listen port (0 = ephemeral)")
    serve.add_argument("--slots", type=int, default=2, metavar="N",
                       help="worker processes = concurrently running jobs, one core "
                            "each (default 2)")
    serve.add_argument("--store", default=None, metavar="DB",
                       help="sqlite result store: finished jobs auto-ingest and stay "
                            "queryable after in-memory eviction")
    serve.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="directory for per-job telemetry trace files")
    serve.add_argument("--keep-finished", type=int, default=256, metavar="N",
                       help="finished jobs kept in memory before eviction")
    serve.add_argument("--endpoint-file", default=None, metavar="FILE",
                       help="write the listening address to FILE (CI readiness)")
    serve.add_argument("--verbose", action="store_true", help="log each HTTP request")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser("submit", help="submit a preset or spec JSON file")
    submit.add_argument("scenario", help="preset name or path to a spec .json file")
    submit.add_argument("--seed", type=int, default=None, metavar="N")
    submit.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="submit seeds 1..N as separate jobs")
    submit.add_argument("--trace", action="store_true",
                        help="record a telemetry trace (enables the telemetry stream)")
    submit.add_argument("--shards", type=int, default=None, metavar="N",
                        help="run graph scenarios on N shard worker processes "
                             "(byte-identical result; disables mid-run ops)")
    submit.add_argument("--wait", action="store_true", help="block until the job(s) finish")
    submit.add_argument("--timeout", type=float, default=300.0, metavar="S")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="job status (or the whole fleet)")
    status.add_argument("id", type=int, nargs="?", default=None)
    status.set_defaults(func=_cmd_status)

    result = sub.add_parser("result", help="print a finished job's result JSON")
    result.add_argument("id", type=int)
    result.add_argument("--output", default=None, metavar="FILE")
    result.set_defaults(func=_cmd_result)

    watch = sub.add_parser("watch", help="poll a job's progress until it finishes")
    watch.add_argument("id", type=int)
    watch.add_argument("--interval", type=float, default=1.0, metavar="S")
    watch.add_argument("--timeout", type=float, default=600.0, metavar="S")
    watch.set_defaults(func=_cmd_watch)

    telemetry = sub.add_parser("telemetry", help="stream a traced job's JSONL telemetry")
    telemetry.add_argument("id", type=int)
    telemetry.add_argument("--max-lines", type=int, default=None, metavar="N")
    telemetry.set_defaults(func=_cmd_telemetry)

    cancel = sub.add_parser("cancel", help="cooperatively cancel a job")
    cancel.add_argument("id", type=int)
    cancel.set_defaults(func=_cmd_cancel)

    health = sub.add_parser("health", help="slots, queue depth and job counts")
    health.set_defaults(func=_cmd_health)

    shutdown = sub.add_parser("shutdown", help="stop a running server")
    shutdown.set_defaults(func=_cmd_shutdown)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.service``."""
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach service at {args.url}: {exc}", file=sys.stderr)
        return 1
