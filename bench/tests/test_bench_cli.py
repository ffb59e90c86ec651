"""The command line keeps the driver's contract."""

import json
import os
import shutil
import subprocess
import sys

from bench.env import ROOT
from bench.metrics import END_TO_END


def _run(cwd, *arguments):
    return subprocess.run([sys.executable, "-m", "bench", *arguments], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_last_line_is_the_result_object():
    done = _run(ROOT, "--workload", "stream_adapt", "--seed", "5", "--seconds", "0.5", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [metric.name for metric in END_TO_END]
    for metric in END_TO_END:
        entry = result["metrics"][metric.name]
        assert sorted(entry) == ["unit", "value"] and entry["unit"] == metric.unit
        assert entry["value"] > 0


def test_unknown_workload_is_a_usage_error():
    done = _run(ROOT, "--workload", "nope")
    assert done.returncode == 2 and "unknown workload" in done.stderr


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "bulk_share", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
