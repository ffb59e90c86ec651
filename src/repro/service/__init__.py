"""Simulation-as-a-service: a control plane over the scenario layer.

The paper's Congestion Manager is a *service* — one long-lived kernel
module answering query/notify calls from many concurrent applications.
This package gives the reproduction the same shape at the systems level: a
long-lived HTTP control plane (stdlib :class:`http.server.ThreadingHTTPServer`,
no new runtime dependencies) fronting a :class:`~repro.service.jobs.JobManager`
that runs :class:`~repro.scenario.spec.ScenarioSpec` submissions as a fleet
of concurrent jobs, with live inspection and mutation of the running
simulations (per-host macroflow and flow listing, mid-run application
attach, link rescheduling) in the CRUD-over-flows style of SDN flow
managers.

Layering:

* :mod:`~repro.service.jobs` — job lifecycle (queued → running →
  done/failed/cancelled), the slot worker processes and their supervisors,
  the cross-process **op** contract, result-store integration;
* :mod:`~repro.service.api` — a socket-free JSON router exposing the
  ``/v1`` endpoints (drives directly in tests, no HTTP required) and the
  table of ops a running job can be asked;
* :mod:`~repro.service.server` — the stdlib HTTP front end;
* :mod:`~repro.service.client` — a urllib client used by the CLI;
* :mod:`~repro.service.cli` — ``python -m repro.service``
  (serve/submit/status/result/watch/cancel/health/shutdown).

See ``docs/service.md`` for the API reference and the op contract.
"""

from .api import ApiError, Response, Router, ServiceApi
from .jobs import Job, JobCancelled, JobManager, JobNotLive, JobState

__all__ = [
    "ApiError",
    "Job",
    "JobCancelled",
    "JobManager",
    "JobNotLive",
    "JobState",
    "Response",
    "Router",
    "ServiceApi",
]
