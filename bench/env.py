"""The environment block attached to every output of the benchmark."""

from __future__ import annotations

import os
import platform
import sys
from typing import Any, Dict

from .workloads import SERVICE_CLIENTS

__all__ = ["ROOT", "OUT_DIR", "POLL_INTERVAL_S", "environment", "finish_environment"]

#: The checkout root (the directory holding ``bench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Everything the benchmark writes lands here (gitignored).
OUT_DIR = os.path.join(ROOT, "bench", "out")

#: Seconds a ``service_jobs`` client sleeps between status polls.
POLL_INTERVAL_S = 0.005


def _git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` directly (no subprocess).

    The driver's checkout is not a git repository; that reads ``unknown``.
    """
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git_dir, head[5:]), "r", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def environment(warn: bool = True) -> Dict[str, Any]:
    """Where and how this set of numbers was measured (load average at start).

    ``warn=False`` is for one workload of a back-to-back set: the load it
    starts under is the benchmark's own, so the set decides ``noisy`` once,
    before its first workload.
    """
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    noisy = warn and load > nproc - 1
    if noisy:
        print(f"WARNING: 1-min load average {load:.2f} exceeds nproc-1 = {nproc - 1}; "
              "this set is marked noisy", file=sys.stderr)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "loadavg_1min_start": load,
        "loadavg_1min_end": None,
        "noisy": noisy,
        "service_client_threads": SERVICE_CLIENTS,
        "service_poll_interval_s": POLL_INTERVAL_S,
        "service_transport": "loopback, one connection per request",
    }


def finish_environment(block: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp the end-of-run load average into ``block``."""
    block["loadavg_1min_end"] = os.getloadavg()[0]
    return block
