"""The ``service_jobs`` load: a server child process and closed-loop clients.

Closed loop because callers of the service wait for replies: each client
thread submits its next job only after fetching the previous result.  Two
clients = ``nproc`` of the reference box.  All traffic is loopback.

The clients are the repository's own ``ServiceClient`` (one shared by the
threads; it keeps no state), which opens a connection per request.  A
keep-alive connection would put a ~40 ms stall into every response (the server
writes headers and body in two segments; Nagle holds the second until the
client's delayed ACK), which quantises job latency to multiples of 40 ms and
makes its median flip between two values with host speed.  The stall is a
finding worth a number, so ``service.http_keepalive_roundtrip_us`` measures it
on its own among the isolated drivers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Sequence

import repro
from repro.service.client import ServiceClient, ServiceError

from .env import POLL_INTERVAL_S

__all__ = ["Server", "run_jobs", "job_failed", "TERMINAL_STATES"]

TERMINAL_STATES = ("done", "failed", "cancelled")

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Server:
    """``python -m repro.service serve`` as a child process on an ephemeral port."""

    def __init__(self, workdir: str, tag: str):
        endpoint_file = os.path.join(workdir, f"endpoint.{tag}.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0",
             "--slots", "2", "--store", os.path.join(workdir, f"store.{tag}.sqlite"),
             "--endpoint-file", endpoint_file],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            self.address = self._read_endpoint(endpoint_file)
            self.client = ServiceClient(self.address)
            self.client.wait_ready(poll=0.005)
        except BaseException:
            self._reap()
            raise
        host, port = self.address[len("http://"):].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def _read_endpoint(self, path: str, timeout: float = 30.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"service exited with code {self.process.returncode} before listening")
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    return json.load(handle)["address"]
            except (OSError, ValueError):
                time.sleep(0.002)  # not written (or half written) yet
        raise TimeoutError("service did not write its endpoint file")

    def cpu_s(self) -> float:
        """User + system CPU seconds the server process has used so far."""
        with open(f"/proc/{self.process.pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(") ", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self) -> None:
        """Ask the server to shut down and wait until the process has ended."""
        try:
            self.client.shutdown()
        except OSError:
            pass  # already gone; _reap settles it
        self._reap()

    def _reap(self) -> None:
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def _one_job(client: ServiceClient, spec_payload: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Submit one job, poll it to a terminal state, fetch its result bytes."""
    record: Dict[str, Any] = {"seed": seed, "state": "refused", "result": None, "polls": 0}
    sent = time.perf_counter()
    try:
        job_id = client.submit(spec=spec_payload, seed=seed)["job"]["id"]
    except ServiceError:
        job_id = None
    record["submit_s"] = time.perf_counter() - sent
    if job_id is not None:
        while True:
            job = client.job(job_id)
            record["polls"] += 1
            if job["state"] in TERMINAL_STATES:
                break
            time.sleep(POLL_INTERVAL_S)
        record["state"] = job["state"]
        record["queue_wait_s"] = job["started_at"] - job["submitted_at"]
        record["job_run_s"] = job["finished_at"] - job["started_at"]
        if job["state"] == "done":
            polled = time.perf_counter()
            try:
                record["result"] = client.result_bytes(job_id)
            except ServiceError:
                pass  # counted as failed: done, but no result
            record["fetch_s"] = time.perf_counter() - polled
    record["latency_s"] = time.perf_counter() - sent
    return record


def _client_loop(client: ServiceClient, spec_payload: Dict[str, Any],
                 seeds: Sequence[int]) -> List[Dict[str, Any]]:
    return [_one_job(client, spec_payload, seed) for seed in seeds]


def run_jobs(server: Server, spec_payload: Dict[str, Any],
             seeds_per_client: Sequence[Sequence[int]]) -> List[Dict[str, Any]]:
    """One closed-loop batch: a thread per client; records in (client, job) order."""
    with ThreadPoolExecutor(max_workers=len(seeds_per_client)) as pool:
        futures = [pool.submit(_client_loop, server.client, spec_payload, seeds)
                   for seeds in seeds_per_client]
        return [record for future in futures for record in future.result()]


def job_failed(record: Mapping[str, Any], expected: Mapping[int, bytes]) -> bool:
    """A job counts as failed when it was refused, did not finish ``done``,
    returned no result, or returned bytes that differ from the batch run of
    the same (spec, seed) where one is known."""
    if record["state"] != "done" or record["result"] is None:
        return True
    reference = expected.get(record["seed"])
    return reference is not None and record["result"] != reference
