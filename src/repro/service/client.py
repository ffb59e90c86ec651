"""urllib-based client for the service API (no third-party deps).

Used by the ``python -m repro.service`` CLI subcommands and the CI smoke
script; also handy interactively::

    from repro.service.client import ServiceClient
    client = ServiceClient("http://127.0.0.1:8421")
    job = client.submit(preset="web_vat_mix", seed=1)
    client.wait(job["id"])
    print(client.result_text(job["id"]))
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, List, Optional
from urllib.error import HTTPError
from urllib.request import Request, urlopen

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """An API-level error (4xx/5xx with a structured JSON body)."""

    def __init__(self, status: int, payload: Dict[str, Any]):
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Thin JSON-over-HTTP wrapper mirroring the ``/v1`` endpoints."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------- transport
    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Any:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = Request(self.base_url + path, data=data, headers=headers, method=method)
        try:
            with urlopen(req, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                payload = {"error": raw.decode("utf-8", "replace")}
            raise ServiceError(exc.code, payload) from None

    def request_bytes(self, method: str, path: str) -> bytes:
        req = Request(self.base_url + path, method=method)
        try:
            with urlopen(req, timeout=self.timeout) as response:
                return response.read()
        except HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                payload = {"error": raw.decode("utf-8", "replace")}
            raise ServiceError(exc.code, payload) from None

    # ------------------------------------------------------------- endpoints
    def info(self) -> Dict[str, Any]:
        return self.request("GET", "/")

    def health(self) -> Dict[str, Any]:
        """Slots (alive / busy / pid / jobs run / respawns), queue, job counts."""
        return self.request("GET", "/v1/health")

    def submit(self, preset: Optional[str] = None, spec: Optional[Dict[str, Any]] = None,
               seed: Optional[int] = None, seeds: Optional[List[int]] = None,
               trace: bool = False, shards: Optional[int] = None) -> Dict[str, Any]:
        """Submit one job (or one per seed); returns the submission body."""
        body: Dict[str, Any] = {}
        if preset is not None:
            body["preset"] = preset
        if spec is not None:
            body["spec"] = spec
        if seeds is not None:
            body["seeds"] = seeds
        elif seed is not None:
            body["seed"] = seed
        if trace:
            body["trace"] = True
        if shards is not None:
            body["shards"] = shards
        return self.request("POST", "/v1/jobs", body)

    def jobs(self) -> List[Dict[str, Any]]:
        return self.request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: int) -> Dict[str, Any]:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: int) -> Dict[str, Any]:
        return self.request("DELETE", f"/v1/jobs/{job_id}")

    def result_bytes(self, job_id: int) -> bytes:
        return self.request_bytes("GET", f"/v1/jobs/{job_id}/result")

    def result_text(self, job_id: int) -> str:
        return self.result_bytes(job_id).decode("utf-8")

    def result(self, job_id: int) -> Dict[str, Any]:
        return json.loads(self.result_text(job_id))

    def telemetry_lines(self, job_id: int, max_lines: Optional[int] = None) -> Iterator[str]:
        """Stream the job's trace as decoded JSONL lines (live tail)."""
        req = Request(f"{self.base_url}/v1/jobs/{job_id}/telemetry", method="GET")
        count = 0
        with urlopen(req, timeout=self.timeout) as response:
            buffer = b""
            while True:
                chunk = response.read(65536)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if not line.strip():
                        continue
                    yield line.decode("utf-8")
                    count += 1
                    if max_lines is not None and count >= max_lines:
                        return
            if buffer.strip():
                yield buffer.decode("utf-8")

    def hosts(self, job_id: int) -> Dict[str, Any]:
        return self.request("GET", f"/v1/jobs/{job_id}/hosts")

    def macroflows(self, job_id: int, host: str) -> Dict[str, Any]:
        return self.request("GET", f"/v1/jobs/{job_id}/hosts/{host}/macroflows")

    def flows(self, job_id: int, macroflow_id: int) -> Dict[str, Any]:
        return self.request("GET", f"/v1/jobs/{job_id}/macroflows/{macroflow_id}/flows")

    def attach_app(self, job_id: int, host: str, app: str, peer: str = "",
                   label: str = "", params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        body: Dict[str, Any] = {"app": app}
        if peer:
            body["peer"] = peer
        if label:
            body["label"] = label
        if params:
            body["params"] = params
        return self.request("POST", f"/v1/jobs/{job_id}/hosts/{host}/apps", body)

    def patch_link(self, job_id: int, link: str, rate_bps: Optional[float] = None,
                   delay: Optional[float] = None, at: Optional[float] = None) -> Dict[str, Any]:
        body: Dict[str, Any] = {}
        if rate_bps is not None:
            body["rate_bps"] = rate_bps
        if delay is not None:
            body["delay"] = delay
        if at is not None:
            body["at"] = at
        return self.request("PATCH", f"/v1/jobs/{job_id}/links/{link}", body)

    def shutdown(self) -> Dict[str, Any]:
        # The server answers 202 before tearing down, but a dying process
        # may still drop the connection under us — treat that as success.
        try:
            return self.request("POST", "/v1/shutdown")
        except (http.client.IncompleteRead, http.client.RemoteDisconnected,
                ConnectionResetError):
            return {"ok": True, "message": "connection closed during shutdown"}

    # ------------------------------------------------------------- utilities
    def wait(self, job_id: int, timeout: float = 120.0, poll: float = 0.1) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns its status."""
        deadline = time.time() + timeout
        while True:
            status = self.job(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if time.time() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s")
            time.sleep(poll)

    def wait_ready(self, timeout: float = 15.0, poll: float = 0.1) -> Dict[str, Any]:
        """Poll ``GET /`` until the server answers (startup readiness)."""
        deadline = time.time() + timeout
        last_error: Optional[Exception] = None
        while time.time() < deadline:
            try:
                return self.info()
            except (OSError, ServiceError) as exc:
                last_error = exc
                time.sleep(poll)
        raise TimeoutError(f"service at {self.base_url} not ready: {last_error}")
