"""Command line of the benchmark.

::

    python -m bench                       # all six workloads, end-to-end pass
    python -m bench --trace               # ... plus the traced per-layer pass
    python -m bench --workload NAME --seed N --seconds S --trace 0|1
    python -m bench agree A.json B.json   # do two result sets agree?

Run from the checkout root.  With ``--workload`` the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with ``--trace
1``.  Without it every workload runs in a fresh child process and the merged
result set is written to ``--output`` (default ``bench/out/results.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None, metavar="NAME",
                        help="measure one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="workload seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=None, metavar="S",
                        help="how long the timed repeats go on (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced per-layer pass (cProfile, isolated drivers, counts)")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the result set here (what `agree` compares)")
    parser.add_argument("--in-set", action="store_true", help=argparse.SUPPRESS)
    return parser


def _print_result(name: str, result: Dict[str, Any]) -> None:
    share = result["failed"] / result["attempted"]
    print(f"== {name}: {result['repeats']} repeats, attempted {result['attempted']}, "
          f"failed {result['failed']} (failed_share {share:.4f} ratio), "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for problem in result["problems"]:
        print(f"   problem: {problem}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<40} {entry['value']:>16.6f} {entry['unit']}")
    for metric, value in result["as_measured"].items():
        print(f"   as measured: {metric:<27} {value:>16.6f}")


def _merge(into: Dict[str, Any], name: str, result: Dict[str, Any]) -> None:
    """Fold one pass of one workload into a result set."""
    known = into["workloads"].get(name)
    if known is None:
        into["workloads"][name] = result
        return
    known["metrics"].update(result["metrics"])
    known["problems"].extend(result["problems"])
    known["correct"] = known["correct"] and result["correct"]
    known["attempted"] += result["attempted"]
    known["failed"] += result["failed"]


def _write_set(path: str, result_set: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result_set, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _run_one(args: argparse.Namespace) -> int:
    from .driver import run_workload
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.in_set)
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    _print_result(args.workload, result)
    if args.output:
        result_set: Dict[str, Any] = {"workloads": {}}
        _merge(result_set, args.workload, result)
        _write_set(args.output, result_set)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    from .env import OUT_DIR, environment
    from .workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    # Later workloads start under the load of earlier ones: the set is judged here, once.
    noisy = environment()["noisy"]
    result_set: Dict[str, Any] = {"workloads": {}}
    status = 0
    for name in WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            part = os.path.join(OUT_DIR, f"part.{name}.{trace}.json")
            command = [sys.executable, "-m", "bench", "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--output", part, "--in-set"]
            done = subprocess.run(command, cwd=_ROOT, stdout=subprocess.PIPE, text=True)
            # The child's table, without its machine-readable last line.
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            if done.returncode != 0:
                print(f"{name} (trace {trace}) exited with code {done.returncode}", file=sys.stderr)
                status = 1
                continue
            with open(part, "r", encoding="utf-8") as handle:
                result = json.load(handle)["workloads"][name]
            result["environment"]["noisy"] = noisy
            _merge(result_set, name, result)
            os.remove(part)
    output = args.output or os.path.join(OUT_DIR, "results.json")
    _write_set(output, result_set)
    incorrect = [name for name, result in result_set["workloads"].items() if not result["correct"]]
    print(f"result set written to {os.path.relpath(output, _ROOT)}; "
          f"{len(result_set['workloads'])} workloads, incorrect: {incorrect or 'none'}")
    return 1 if incorrect else status


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments: List[str] = list(sys.argv[1:] if argv is None else argv)
    # The program under test lives in src/; nothing is installed.
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program under test from {_ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if arguments[:1] == ["agree"]:
        if len(arguments) != 3:
            print("usage: python -m bench agree A.json B.json", file=sys.stderr)
            return 2
        from .agree import main as agree_main
        return agree_main(arguments[1], arguments[2])
    args = _parser().parse_args(arguments)
    if args.seed is None or args.seconds is None:
        from .workloads import DEFAULT_SEED
        with open(os.path.join(_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
            run_seconds = json.load(handle)["run_seconds"]
        args.seed = DEFAULT_SEED if args.seed is None else args.seed
        args.seconds = float(run_seconds) if args.seconds is None else args.seconds
    return _run_one(args) if args.workload else _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
