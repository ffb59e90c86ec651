"""``python -m bench agree A.json B.json``: do two result sets of one code agree?

Compares every (workload, end-to-end metric) pair against the bound
``BENCHMARK.json`` fixes for the metric, prints the relative disagreement of
each, requires every exact-count metric present in both sets to be equal, and
exits non-zero on any breach.  This is the tool the repeatability criterion
is checked with; a set is what ``python -m bench --output FILE`` writes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from .env import ROOT
from .metrics import EXACT_COUNTS

__all__ = ["compare", "load_bounds", "main"]


def load_bounds() -> Dict[str, Dict[str, Any]]:
    """``{metric: {"bound", "better"}}`` from the manifest at the checkout root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    return {entry["name"]: entry for entry in manifest["end_to_end"]}


def compare(first: Dict[str, Any], second: Dict[str, Any],
            bounds: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One row per compared (workload, metric); ``row["breach"]`` marks failures.

    The disagreement of a bounded metric is how much *worse* the second set
    reads than the first, as a share of the first (the same quantity the
    regression bound limits), taken in both directions so that the order of
    the arguments does not matter.
    """
    exact = {name for name, _better in EXACT_COUNTS}
    rows: List[Dict[str, Any]] = []
    for workload in sorted(set(first["workloads"]) & set(second["workloads"])):
        a_metrics = first["workloads"][workload]["metrics"]
        b_metrics = second["workloads"][workload]["metrics"]
        for name in sorted(set(a_metrics) & set(b_metrics)):
            a, b = a_metrics[name]["value"], b_metrics[name]["value"]
            if name in bounds:
                base = min(abs(a), abs(b))
                disagreement = abs(a - b) / base if base else float(a != b)
                rows.append({"workload": workload, "metric": name, "a": a, "b": b,
                             "disagreement": disagreement, "bound": bounds[name]["bound"],
                             "breach": disagreement > bounds[name]["bound"]})
            elif name in exact:
                rows.append({"workload": workload, "metric": name, "a": a, "b": b,
                             "disagreement": float(a != b), "bound": 0.0, "breach": a != b})
    return rows


def main(path_a: str, path_b: str) -> int:
    with open(path_a, "r", encoding="utf-8") as handle:
        first = json.load(handle)
    with open(path_b, "r", encoding="utf-8") as handle:
        second = json.load(handle)
    rows = compare(first, second, load_bounds())
    if not rows:
        print("no (workload, metric) pair is present in both sets")
        return 1
    for row in rows:
        flag = "BREACH" if row["breach"] else "ok"
        print(f"{row['workload']:<18} {row['metric']:<36} {row['a']:>14.6g} {row['b']:>14.6g} "
              f"{row['disagreement']:>8.4f} (bound {row['bound']:.2f}) {flag}")
    breaches = [row for row in rows if row["breach"]]
    noisy = [path for path, result in ((path_a, first), (path_b, second))
             if any(entry.get("environment", {}).get("noisy")
                    for entry in result["workloads"].values())]
    if noisy:
        print(f"note: measured under load (noisy): {', '.join(noisy)}")
    print(f"{len(rows)} pairs compared, {len(breaches)} breach(es)")
    return 1 if breaches else 0
