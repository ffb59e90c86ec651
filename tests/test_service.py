"""The simulation service: control tick, job fleet, JSON API, HTTP smoke.

Most tests drive :class:`repro.service.api.ServiceApi` directly (no
sockets), mirroring how the flow-manager tests drive their router; one
end-to-end class exercises the real ThreadingHTTPServer on an ephemeral
port.
"""

import contextlib
import http.client
import io
import json
import multiprocessing
import os
import pickle
import signal
import socket
import sqlite3
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import SimulationError, Simulator
from repro.scenario import (
    AppSpec,
    HostSpec,
    LinkSpec,
    ScenarioSpec,
    SpecError,
    StopSpec,
    get_preset,
    run,
    run_streaming,
)
from repro.service import ApiError, JobManager, JobNotLive, JobState, ServiceApi
from repro.service.api import OPS
from repro.service.jobs import REQUEST_TIMEOUT_S, STORE_SOURCE_PREFIX


def tiny_transfer_spec(**stop_overrides) -> ScenarioSpec:
    """Fast single-transfer scenario (ends early via when_apps_done)."""
    stop = dict(until=30.0, when_apps_done=True)
    stop.update(stop_overrides)
    return ScenarioSpec(
        name="svc_tiny",
        hosts=[HostSpec(name="tx", cm=True), HostSpec(name="rx")],
        links=[LinkSpec(a="tx", b="rx", rate_bps=8e6, delay=0.01, queue_limit=50)],
        apps=[
            AppSpec(app="tcp_listener", host="rx", label="sink", params={"port": 5001}),
            AppSpec(app="tcp_sender", host="tx", peer="rx", label="flow",
                    params={"variant": "cm", "port": 5001, "transfer_bytes": 200_000}),
        ],
        stop=StopSpec(**stop),
        metrics=("apps", "links", "hosts"),
        seed=3,
    )


def long_bulk_spec(until: float = 600.0) -> ScenarioSpec:
    """Sustained CM bulk traffic with a far horizon (for live inspection).

    The preset's four transfers start a second apart and are over by sim
    t=12; a slot simulates that in a fraction of a wall second, which left
    the tests a window of milliseconds in which all four flows had grants
    and the job was still running.  Here all four start at once and never
    run out, so "running with t >= 2" means four busy flows until cancelled.
    """
    spec = get_preset("bulk_macroflow_sharing")
    spec.stop.until = until
    spec.stop.when_apps_done = False
    for app in spec.apps:
        if app.app == "tcp_sender":
            app.params.update(start_at=0.0, transfer_bytes=10 ** 12)
    return spec


def submit(api: ServiceApi, body: dict):
    return api.dispatch("POST", "/v1/jobs", json.dumps(body).encode())


def wait_running(job, min_sim_time: float = 1.0, timeout: float = 20.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if job.state == JobState.RUNNING and job.sim_time >= min_sim_time:
            return
        if job.finished:
            pytest.fail(f"job finished early: {job.state} {job.error}")
        time.sleep(0.01)
    pytest.fail(f"job never reached running/t>={min_sim_time}: {job.state}")


@pytest.fixture
def manager():
    mgr = JobManager(slots=4)
    yield mgr
    mgr.shutdown()


def op_whoami(scenario):
    """Test op: which process, thread and sim time serve the ops."""
    return {"pid": os.getpid(), "thread": threading.current_thread().name,
            "now": scenario.sim.now}


def op_echo(scenario, **args):
    return args


def op_unpicklable(scenario):
    return lambda: None


def op_crash(scenario, code):
    os._exit(code)


def op_wedge(scenario, seconds):
    time.sleep(seconds)  # an event that will not end: no tick is served meanwhile
    return seconds


@pytest.fixture
def probe_manager(monkeypatch):
    """Two slots that also know the test ops (a slot inherits the op table
    it was forked with, so the ops go in before the manager is built)."""
    for op in (op_whoami, op_echo, op_unpicklable, op_crash, op_wedge):
        monkeypatch.setitem(OPS, op.__name__[3:], op)
    mgr = JobManager(slots=2)
    yield mgr
    mgr.shutdown()


def wait_for(predicate, timeout: float = 20.0, what: str = "condition") -> None:
    deadline = time.time() + timeout
    while not predicate():
        if time.time() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.01)


def slot_of(mgr, job) -> dict:
    (entry,) = [slot for slot in mgr.health()["slots"] if slot["job"] == job.id]
    return entry


@pytest.fixture
def api(manager):
    return ServiceApi(manager)


# ====================================================================== #
# Engine: the injected periodic control event                            #
# ====================================================================== #
class TestControlTick:
    def test_fires_periodically_and_stops(self):
        sim = Simulator()
        ticks = []
        sim.start_control(0.5, lambda: ticks.append(sim.now))
        sim.at(10.0, lambda: None)
        sim.run(until=2.0)
        assert ticks == [0.5, 1.0, 1.5, 2.0]
        sim.stop_control()
        sim.run(until=3.0)
        assert ticks == [0.5, 1.0, 1.5, 2.0]

    def test_stop_from_inside_callback(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                sim.stop_control()

        sim.start_control(1.0, tick)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_rearm_after_stop(self):
        sim = Simulator()
        sim.start_control(1.0, lambda: None)
        sim.stop_control()
        sim.start_control(2.0, lambda: None)  # must not raise

    def test_double_arm_and_bad_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.start_control(0.0, lambda: None)
        sim.start_control(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.start_control(1.0, lambda: None)

    def test_idle_except_control(self):
        sim = Simulator()
        assert sim.idle_except_control()
        sim.start_control(1.0, lambda: None)
        assert sim.idle_except_control()  # only the control chain is pending
        handle = sim.at(5.0, lambda: None)
        assert not sim.idle_except_control()
        handle.cancel()
        assert sim.idle_except_control()

    def test_horizon_lands_exactly_with_control_armed(self):
        sim = Simulator()
        sim.start_control(0.3, lambda: None)
        sim.run(until=1.0)
        assert sim.now == 1.0


# ====================================================================== #
# Runner: run_streaming is the batch path plus hooks                     #
# ====================================================================== #
class TestRunStreaming:
    def test_hooked_run_is_byte_identical_when_apps_done(self):
        spec = tiny_transfer_spec()
        hooked = run_streaming(spec, seed=5, control_hook=lambda scenario: None,
                               progress_cb=lambda now, horizon: None)
        assert hooked.to_json() == run(spec, seed=5).to_json()

    def test_hooked_run_is_byte_identical_fixed_horizon(self):
        spec = tiny_transfer_spec(until=3.0, when_apps_done=False)
        hooked = run_streaming(spec, seed=5, control_hook=lambda scenario: None)
        assert hooked.to_json() == run(spec, seed=5).to_json()

    def test_progress_reports_are_monotone_and_complete(self):
        spec = tiny_transfer_spec(until=3.0, when_apps_done=False)
        reports = []
        run_streaming(spec, seed=1, progress_cb=lambda now, horizon: reports.append((now, horizon)))
        times = [now for now, _ in reports]
        assert times == sorted(times)
        assert times[0] == 0.0
        assert times[-1] == 3.0
        assert all(horizon == 3.0 for _, horizon in reports)

    def test_control_hook_sees_live_scenario(self):
        spec = tiny_transfer_spec(until=2.0, when_apps_done=False)
        seen = []
        run_streaming(spec, seed=1,
                      control_hook=lambda scenario: seen.append(scenario.sim.now))
        assert seen and seen == sorted(seen)

    def test_hook_exception_aborts_run(self):
        spec = tiny_transfer_spec(until=5.0, when_apps_done=False)

        class Abort(Exception):
            pass

        def hook(scenario):
            if scenario.sim.now >= 1.0:
                raise Abort()

        with pytest.raises(Abort):
            run_streaming(spec, seed=1, control_hook=hook)


# ====================================================================== #
# JobManager: lifecycle, concurrency, mailbox, store                     #
# ====================================================================== #
class TestJobManager:
    def test_result_byte_identical_to_batch(self, manager):
        spec = tiny_transfer_spec()
        job = manager.submit(spec, seed=7)
        manager.wait(job.id)
        assert job.state == JobState.DONE
        assert job.result.to_json() == run(spec, seed=7).to_json()

    def test_four_concurrent_jobs_all_byte_identical(self, manager):
        spec = tiny_transfer_spec()
        jobs = [manager.submit(spec, seed=seed) for seed in (1, 2, 3, 4)]
        for job in jobs:
            manager.wait(job.id)
            assert job.state == JobState.DONE
        for job in jobs:
            assert job.result.to_json() == run(spec, seed=job.seed).to_json()

    def test_monotonic_job_ids(self, manager):
        spec = tiny_transfer_spec()
        first = manager.submit(spec, seed=1)
        second = manager.submit(spec, seed=2)
        assert second.id == first.id + 1
        manager.wait(first.id)
        manager.wait(second.id)

    def test_cancel_running_job(self, manager):
        job = manager.submit(long_bulk_spec(), seed=2)
        wait_running(job)
        manager.cancel(job.id)
        manager.wait(job.id, timeout=30)
        assert job.state == JobState.CANCELLED
        assert "cancelled" in job.error

    def test_cancel_queued_job(self):
        mgr = JobManager(slots=1)
        try:
            running = mgr.submit(long_bulk_spec(), seed=1)
            queued = mgr.submit(tiny_transfer_spec(), seed=1)
            wait_running(running, min_sim_time=0.1)
            assert queued.state == JobState.QUEUED
            mgr.cancel(queued.id)
            assert queued.state == JobState.CANCELLED
            mgr.cancel(running.id)
        finally:
            mgr.shutdown()

    def test_build_failure_is_failed_with_path(self, manager):
        spec = tiny_transfer_spec()
        # vat requires a CM on its host; rx has none — only caught at build.
        spec.apps.append(AppSpec(app="vat", host="rx", peer="tx", label="bad"))
        job = manager.submit(spec, seed=1)
        manager.wait(job.id)
        assert job.state == JobState.FAILED
        assert job.error_path is not None
        assert "bad" in job.error or "vat" in job.error

    def test_an_op_runs_inside_the_slots_event_loop(self, probe_manager):
        jobs = [probe_manager.submit(long_bulk_spec(), seed=seed) for seed in (1, 2)]
        for job in jobs:
            wait_running(job)
        seen = [job.request("whoami") for job in jobs]
        for job, answer in zip(jobs, seen):
            assert answer["pid"] != os.getpid()
            assert answer["pid"] == slot_of(probe_manager, job)["pid"]
            assert answer["thread"] == "MainThread"
            assert answer["now"] > 0
        # Two concurrent jobs are two processes, not two threads of one.
        assert seen[0]["pid"] != seen[1]["pid"]
        for job in jobs:
            probe_manager.cancel(job.id)
            probe_manager.wait(job.id, timeout=30)

    def test_no_simulation_runs_in_the_front_end(self, manager):
        job = manager.submit(tiny_transfer_spec(), seed=1)
        manager.wait(job.id)
        names = {thread.name for thread in threading.enumerate()}
        assert not [name for name in names if name.startswith("repro-service-worker")]
        assert {f"repro-service-supervisor-{i}" for i in range(4)} <= names

    def test_op_rejected_when_not_running(self, manager):
        job = manager.submit(tiny_transfer_spec(), seed=1)
        manager.wait(job.id)
        with pytest.raises(JobNotLive, match="is done"):
            job.request("hosts")

    def test_an_ops_exception_type_and_message_cross_the_pipe(self, probe_manager):
        job = probe_manager.submit(long_bulk_spec(), seed=1)
        wait_running(job)
        with pytest.raises(ValueError, match="could not convert string to float: 'fast'"):
            job.request("patch_link", link="sender->receiver", rate_bps="fast")
        with pytest.raises(ValueError, match="unknown op 'nope'"):
            job.request("nope")
        with pytest.raises(ApiError) as api_error:
            job.request("macroflows", host="nobody")
        assert api_error.value.status == 404
        assert "nobody" in api_error.value.payload["error"]
        with pytest.raises(SpecError) as spec_error:
            job.request("attach_app", app="nope", host="sender")
        assert spec_error.value.path == "app"
        assert str(spec_error.value).startswith("app: ")
        with pytest.raises(TypeError, match="unexpected keyword"):
            job.request("hosts", verbose=True)
        # Arguments are data: a closure is refused before anything is sent,
        # and the job still answers afterwards.
        with pytest.raises((pickle.PicklingError, AttributeError)):
            job.request("echo", fn=lambda scenario: None)
        assert job.request("echo", a=1) == {"a": 1}
        probe_manager.cancel(job.id)
        probe_manager.wait(job.id, timeout=30)

    def test_op_arguments_and_replies_survive_the_pipe_unchanged(self, probe_manager):
        job = probe_manager.submit(long_bulk_spec(until=1e6), seed=1)
        wait_running(job)
        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=8), inner, max_size=4),
            max_leaves=12)

        @settings(max_examples=40, deadline=None)
        @given(args=st.dictionaries(
            st.text("abcdefghij_", min_size=1, max_size=8).filter(
                lambda key: key not in ("name", "timeout")),
            json_values, max_size=5))
        def round_trip(args):
            assert job.request("echo", **args) == args

        round_trip()
        probe_manager.cancel(job.id)
        probe_manager.wait(job.id, timeout=30)

    def test_concurrent_ops_each_get_their_own_reply(self, probe_manager):
        # Replies carry no id: they match requests by order alone, so a
        # waiter queued out of step with its message would read a
        # neighbour's answer.  More threads than cores, a short switch
        # interval, two jobs, status reads in between.
        import sys

        jobs = [probe_manager.submit(long_bulk_spec(until=1e6), seed=seed) for seed in (1, 2)]
        for job in jobs:
            wait_running(job)
        wrong, errors = [], []

        def hammer(worker: int) -> None:
            try:
                for index in range(40):
                    job = jobs[(worker + index) % 2]
                    sent = {"worker": worker, "index": index, "pad": "x" * (index * 37 % 500)}
                    if job.request("echo", **sent) != sent:
                        wrong.append(sent)
                    if job.status()["state"] != JobState.RUNNING:
                        wrong.append(("state", sent))
            except Exception as exc:  # surfaced below, not lost with the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(worker,)) for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and wrong == []
        assert all(not slot.pending for slot in probe_manager._slots)
        for job in jobs:
            probe_manager.cancel(job.id)
            probe_manager.wait(job.id, timeout=30)

    @given(status=st.integers(400, 599), message=st.text(), path=st.text(max_size=20),
           extra=st.dictionaries(st.sampled_from(["path", "hint", "have"]), st.text(), max_size=3))
    def test_the_errors_ops_raise_pickle_intact(self, status, message, path, extra):
        api_error = pickle.loads(pickle.dumps(ApiError(status, message, **extra)))
        assert (api_error.status, api_error.payload) == (status, {"error": message, **extra})
        assert str(api_error) == message
        spec_error = pickle.loads(pickle.dumps(SpecError(path, message)))
        assert spec_error.path == path
        assert str(spec_error) == str(SpecError(path, message))
        not_live = pickle.loads(pickle.dumps(JobNotLive(message)))
        assert type(not_live) is JobNotLive and str(not_live) == message

    def test_a_done_job_reads_all_of_its_progress(self, manager):
        # tiny_transfer ends early (when_apps_done): where it ended is 100 %.
        job = manager.submit(tiny_transfer_spec(), seed=1)
        manager.wait(job.id)
        progress = job.status()["progress"]
        assert progress["fraction"] == 1.0
        assert progress["sim_time"] == progress["stop_time"] == job.result.duration_s
        assert job.finished_at >= job.started_at >= job.submitted_at

    def test_store_answers_after_eviction(self, tmp_path):
        store_path = str(tmp_path / "svc.sqlite")
        mgr = JobManager(slots=2, store_path=store_path, keep_finished=1)
        try:
            spec = tiny_transfer_spec()
            first = mgr.submit(spec, seed=1)
            mgr.wait(first.id)
            direct = first.result.to_json()
            # Two more finished jobs push the first out of memory.
            for seed in (2, 3):
                mgr.wait(mgr.submit(spec, seed=seed).id)
            assert mgr.get(first.id) is None
            status = mgr.store_status(first.id)
            assert status is not None and status["state"] == JobState.DONE
            assert status["evicted"] is True
            assert mgr.store_result_json(first.id) == direct
        finally:
            mgr.shutdown()

    def test_store_rows_are_tagged_with_job_id(self, tmp_path):
        from repro.results.store import ResultStore

        store_path = str(tmp_path / "svc.sqlite")
        mgr = JobManager(slots=1, store_path=store_path)
        try:
            job = mgr.submit(tiny_transfer_spec(), seed=4)
            mgr.wait(job.id)
            with ResultStore(store_path) as store:
                rows = store.scenario_results()
                assert [row["source"] for row in rows] == [f"{STORE_SOURCE_PREFIX}{job.id}"]
        finally:
            mgr.shutdown()


# ====================================================================== #
# Slots: a job's process may die; the fleet may not                      #
# ====================================================================== #
def is_reaped(pid: int) -> bool:
    """Neither running nor a zombie: the pid is gone from the process table."""
    return not os.path.exists(f"/proc/{pid}")


class TestSlotDeath:
    def test_a_killed_slot_fails_its_job_and_the_next_job_runs(self):
        mgr = JobManager(slots=1)
        try:
            doomed = mgr.submit(long_bulk_spec(until=1e6), seed=1)
            queued = mgr.submit(tiny_transfer_spec(), seed=2)
            wait_running(doomed)
            pid = slot_of(mgr, doomed)["pid"]
            os.kill(pid, signal.SIGKILL)
            mgr.wait(doomed.id, timeout=20)
            assert doomed.state == JobState.FAILED
            assert f"pid {pid}" in doomed.error
            assert "exit code -9" in doomed.error
            assert doomed.result is None
            mgr.wait(queued.id, timeout=30)
            assert queued.state == JobState.DONE
            assert queued.result.to_json() == run(tiny_transfer_spec(), seed=2).to_json()
            (slot,) = mgr.health()["slots"]
            assert slot["alive"] and slot["respawns"] == 1 and slot["jobs_run"] == 2
            assert slot["pid"] != pid
            assert is_reaped(pid)
        finally:
            mgr.shutdown()

    def test_the_other_slot_never_notices(self, probe_manager):
        victim, bystander = (probe_manager.submit(long_bulk_spec(until=1e6), seed=seed)
                             for seed in (1, 2))
        wait_running(victim)
        wait_running(bystander)
        before = bystander.request("whoami")
        os.kill(slot_of(probe_manager, victim)["pid"], signal.SIGKILL)
        probe_manager.wait(victim.id, timeout=20)
        assert victim.state == JobState.FAILED
        after = bystander.request("whoami")
        assert after["pid"] == before["pid"] and after["now"] > before["now"]
        assert bystander.state == JobState.RUNNING
        probe_manager.cancel(bystander.id)
        probe_manager.wait(bystander.id, timeout=30)
        assert bystander.state == JobState.CANCELLED

    def test_a_slot_that_died_idle_is_replaced_before_the_next_job(self):
        mgr = JobManager(slots=1)
        try:
            mgr.wait(mgr.submit(tiny_transfer_spec(), seed=1).id)
            (slot,) = mgr.health()["slots"]
            os.kill(slot["pid"], signal.SIGKILL)
            wait_for(lambda: not os.path.exists(f"/proc/{slot['pid']}/fd/0"),
                     what="the idle slot to die")
            job = mgr.submit(tiny_transfer_spec(), seed=2)
            mgr.wait(job.id)
            assert job.state == JobState.DONE and job.error is None
            (slot,) = mgr.health()["slots"]
            assert slot["alive"] and slot["respawns"] == 1
        finally:
            mgr.shutdown()

    def test_a_crashing_op_fails_the_job_with_the_exit_code(self, probe_manager):
        job = probe_manager.submit(long_bulk_spec(until=1e6), seed=1)
        wait_running(job)
        with pytest.raises(JobNotLive, match=f"job {job.id} is failed"):
            job.request("crash", code=3)
        probe_manager.wait(job.id, timeout=20)
        assert job.state == JobState.FAILED
        assert "exit code 3" in job.error
        follower = probe_manager.submit(tiny_transfer_spec(), seed=1)
        probe_manager.wait(follower.id)
        assert follower.state == JobState.DONE

    def test_a_reply_that_does_not_pickle_fails_the_job_not_the_fleet(self, probe_manager):
        job = probe_manager.submit(long_bulk_spec(until=1e6), seed=1)
        wait_running(job)
        with pytest.raises(JobNotLive):
            job.request("unpicklable")
        probe_manager.wait(job.id, timeout=20)
        assert job.state == JobState.FAILED
        assert "exit code 1" in job.error
        follower = probe_manager.submit(long_bulk_spec(until=1e6), seed=1)
        wait_running(follower)
        assert follower.request("echo", ok=True) == {"ok": True}
        probe_manager.cancel(follower.id)
        probe_manager.wait(follower.id, timeout=30)
        assert sum(slot["respawns"] for slot in probe_manager.health()["slots"]) == 1

    def test_cancelling_a_wedged_job_ends_in_terminate_and_respawn(self, probe_manager, monkeypatch):
        import repro.service.jobs as jobs_module

        monkeypatch.setattr(jobs_module, "REQUEST_TIMEOUT_S", 1.0)
        job = probe_manager.submit(long_bulk_spec(until=1e6), seed=1)
        wait_running(job)
        pid = slot_of(probe_manager, job)["pid"]
        with pytest.raises(TimeoutError):
            job.request("wedge", timeout=0.2, seconds=60)
        asked = time.monotonic()
        probe_manager.cancel(job.id)
        probe_manager.wait(job.id, timeout=20)
        waited = time.monotonic() - asked
        assert job.state == JobState.CANCELLED
        assert 1.0 <= waited < 5.0
        assert "no control tick" in job.error and "exit code -9" in job.error
        assert is_reaped(pid)
        follower = probe_manager.submit(tiny_transfer_spec(), seed=1)
        probe_manager.wait(follower.id)
        assert follower.state == JobState.DONE

    def test_the_escalation_deadline_is_the_request_timeout(self):
        from repro.service.jobs import Job

        job = Job(1, tiny_transfer_spec(), seed=1, digest="")
        before = time.monotonic()
        job.cancel()
        assert job._cancel_deadline - before == pytest.approx(REQUEST_TIMEOUT_S, abs=0.1)
        assert REQUEST_TIMEOUT_S == 5.0
        first = job._cancel_deadline
        job.cancel()  # asking twice does not push it out
        assert job._cancel_deadline == first

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_a_respawned_slot_does_not_hold_the_listening_socket(self):
        from repro.service.server import ServiceServer

        def sockets_of(pid):
            links = []
            for fd in os.listdir(f"/proc/{pid}/fd"):
                try:
                    links.append(os.readlink(f"/proc/{pid}/fd/{fd}"))
                except OSError:
                    pass
            return {link for link in links if link.startswith("socket:")}

        mgr = JobManager(slots=2)
        with ServiceServer(mgr) as server:
            listener = f"socket:[{os.fstat(server.httpd.fileno()).st_ino}]"
            assert listener in sockets_of(os.getpid())
            job = mgr.submit(long_bulk_spec(until=1e6), seed=1)
            wait_running(job)
            old_pid = slot_of(mgr, job)["pid"]
            os.kill(old_pid, signal.SIGKILL)
            mgr.wait(job.id, timeout=20)
            wait_for(lambda: all(slot["alive"] for slot in mgr.health()["slots"]),
                     what="the respawn")
            # Sealing is the first thing a slot does; give the fork a moment.
            for slot in mgr.health()["slots"]:
                wait_for(lambda: len(sockets_of(slot["pid"])) == 1,
                         what="the slot to hold its own pipe and no other socket")
                assert listener not in sockets_of(slot["pid"])
            # ... and the fleet still serves over that listener.
            from repro.service.client import ServiceClient

            assert ServiceClient(server.address).health()["accepting"] is True


class TestManagerStart:
    def test_a_partial_start_leaves_no_slot_behind(self, monkeypatch):
        from multiprocessing.process import BaseProcess

        real_start = BaseProcess.start
        started = []

        def start_twice(process):
            if len(started) == 2:
                raise OSError("cannot fork")
            started.append(process)
            real_start(process)

        monkeypatch.setattr(BaseProcess, "start", start_twice)
        with pytest.raises(OSError, match="cannot fork"):
            JobManager(slots=3)
        assert len(started) == 2
        assert multiprocessing.active_children() == []
        assert all(is_reaped(process.pid) for process in started)

    def test_slots_must_be_positive(self):
        with pytest.raises(ValueError, match="slots"):
            JobManager(slots=0)

    def test_the_slots_are_forked_before_any_supervisor_thread_exists(self, monkeypatch):
        import repro.service.jobs as jobs_module

        seen = []
        real_spawn = jobs_module._Slot.spawn

        def spying_spawn(slot):
            seen.append([thread.name for thread in threading.enumerate()
                         if thread.name.startswith("repro-service")])
            real_spawn(slot)

        monkeypatch.setattr(jobs_module._Slot, "spawn", spying_spawn)
        mgr = JobManager(slots=3)
        mgr.shutdown()
        assert seen == [[], [], []]


class TestShutdown:
    def test_shutdown_leaves_no_child_and_no_zombie(self):
        mgr = JobManager(slots=3)
        running = mgr.submit(long_bulk_spec(until=1e6), seed=1)
        wait_running(running)
        pids = [slot["pid"] for slot in mgr.health()["slots"]]
        assert len(multiprocessing.active_children()) >= 3
        mgr.shutdown()
        assert running.state == JobState.CANCELLED
        assert multiprocessing.active_children() == []
        assert all(is_reaped(pid) for pid in pids)
        assert not [thread for thread in threading.enumerate()
                    if thread.name.startswith("repro-service-supervisor")]
        health = mgr.health()
        assert health["accepting"] is False
        assert not any(slot["alive"] for slot in health["slots"])
        with pytest.raises(RuntimeError, match="shut down"):
            mgr.submit(tiny_transfer_spec(), seed=1)
        mgr.shutdown()  # idempotent

    def test_shutdown_without_cancel_lets_the_running_job_finish(self):
        mgr = JobManager(slots=1)
        running = mgr.submit(long_bulk_spec(until=20.0), seed=1)
        queued = mgr.submit(tiny_transfer_spec(), seed=1)
        wait_running(running, min_sim_time=0.1)
        mgr.shutdown(cancel_running=False)
        assert running.state == JobState.DONE
        assert queued.state == JobState.CANCELLED
        assert multiprocessing.active_children() == []

    def test_shutdown_takes_a_wedged_slot_down_at_the_timeout(self, probe_manager):
        job = probe_manager.submit(long_bulk_spec(until=1e6), seed=1)
        wait_running(job)
        pid = slot_of(probe_manager, job)["pid"]
        with pytest.raises(TimeoutError):
            job.request("wedge", timeout=0.2, seconds=60)
        started = time.monotonic()
        probe_manager.shutdown(timeout=0.5)
        assert time.monotonic() - started < REQUEST_TIMEOUT_S
        assert job.state == JobState.CANCELLED and "exit code -9" in job.error
        assert is_reaped(pid)
        assert multiprocessing.active_children() == []

    def test_a_manager_nobody_shut_down_does_not_hold_the_interpreter_open(self, tmp_path):
        import subprocess
        import sys

        script = tmp_path / "forgetful.py"
        script.write_text(
            "from repro.service import JobManager\n"
            "manager = JobManager(slots=2)\n"
            "print('built', flush=True)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, str(script)], env=env, timeout=30,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "built\n"


# ====================================================================== #
# Store ingest: one connection, one transaction, and its failure edge    #
# ====================================================================== #
class TestIngest:
    def assert_served_despite(self, mgr, job, reason: str) -> None:
        assert job.state == JobState.DONE
        assert job.result.to_json() == run(tiny_transfer_spec(), seed=job.seed).to_json()
        assert job.error.startswith("result store ingest failed")
        assert reason in job.error
        response = ServiceApi(mgr).dispatch("GET", f"/v1/jobs/{job.id}/result")
        assert response.status == 200 and response.body == job.result.to_json().encode()

    def test_one_connection_for_the_managers_life(self, tmp_path, monkeypatch):
        import repro.results.store as store_module

        opened = []
        real_connect = store_module.sqlite3.connect

        def counting_connect(*args, **kwargs):
            opened.append(args)
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(store_module.sqlite3, "connect", counting_connect)
        mgr = JobManager(slots=2, store_path=str(tmp_path / "svc.sqlite"), keep_finished=1)
        try:
            jobs = [mgr.submit(tiny_transfer_spec(), seed=seed) for seed in (1, 2, 3)]
            wait_for(lambda: all(job.finished for job in jobs), what="three jobs")
            evicted = [job for job in jobs if mgr.get(job.id) is None]
            assert len(evicted) == 2
            for job in evicted:  # read back over the same connection
                assert mgr.store_result_json(job.id) == job.result.to_json()
            assert len(opened) == 1
            assert mgr.health()["ingest_failures"] == 0
        finally:
            mgr.shutdown()
        assert mgr._store is None  # closed with the manager

    def test_a_traced_job_is_one_transaction_with_both_rows(self, tmp_path):
        from repro.results.store import ResultStore

        store_path = str(tmp_path / "svc.sqlite")
        mgr = JobManager(slots=1, store_path=store_path, trace_dir=str(tmp_path / "traces"))
        try:
            job = mgr.submit(tiny_transfer_spec(), seed=4, trace=True)
            mgr.wait(job.id)
            assert job.error is None
        finally:
            mgr.shutdown()
        tag = f"{STORE_SOURCE_PREFIX}{job.id}"
        with ResultStore(store_path) as store:
            assert [(row["kind"], row["source"]) for row in store.runs()] == \
                [("scenario", tag), ("trace", tag)]
            with open(job.trace_path, "rb") as handle:
                lines = sum(1 for _ in handle)
            assert store.counts()["trace_events"] == lines

    def test_a_garbage_store_file_costs_the_row_not_the_job(self, tmp_path):
        path = tmp_path / "svc.sqlite"
        path.write_bytes(b"this is not a database\n" * 64)
        mgr = JobManager(slots=1, store_path=str(path))
        try:
            first = mgr.submit(tiny_transfer_spec(), seed=1)
            mgr.wait(first.id)
            self.assert_served_despite(mgr, first, "not a database")
            assert mgr.health()["ingest_failures"] == 1
            # The operator moves the bad file away; the next job lands.
            path.unlink()
            second = mgr.submit(tiny_transfer_spec(), seed=2)
            mgr.wait(second.id)
            assert second.state == JobState.DONE and second.error is None
            assert mgr.store_result_json(second.id) == second.result.to_json()
            assert mgr.store_status(first.id) is None
            assert mgr.health()["ingest_failures"] == 1
        finally:
            mgr.shutdown()

    def test_a_store_with_another_schema_version_is_the_jobs_note(self, tmp_path):
        from test_result_store import write_foreign_store

        path = str(tmp_path / "svc.sqlite")
        write_foreign_store(path, "2")
        mgr = JobManager(slots=1, store_path=path)
        try:
            job = mgr.submit(tiny_transfer_spec(), seed=1)
            mgr.wait(job.id)
            self.assert_served_despite(mgr, job, "schema version 2, expected 1")
            assert path in job.error
            assert mgr.health()["ingest_failures"] == 1
        finally:
            mgr.shutdown()

    def test_a_store_path_that_cannot_be_opened(self, tmp_path):
        mgr = JobManager(slots=1, store_path=str(tmp_path))  # a directory
        try:
            job = mgr.submit(tiny_transfer_spec(), seed=1)
            mgr.wait(job.id)
            self.assert_served_despite(mgr, job, "unable to open database file")
        finally:
            mgr.shutdown()

    def test_a_locked_store_costs_the_row_not_the_job(self, tmp_path):
        store_path = str(tmp_path / "svc.sqlite")
        mgr = JobManager(slots=1, store_path=store_path)
        try:
            first = mgr.submit(tiny_transfer_spec(), seed=1)
            mgr.wait(first.id)
            assert first.error is None
            locker = sqlite3.connect(store_path, isolation_level=None)
            locker.execute("BEGIN EXCLUSIVE")
            try:
                second = mgr.submit(tiny_transfer_spec(), seed=2)
                mgr.wait(second.id, timeout=30)  # sqlite gives the lock five seconds
                self.assert_served_despite(mgr, second, "locked")
            finally:
                locker.execute("ROLLBACK")
                locker.close()
            third = mgr.submit(tiny_transfer_spec(), seed=3)
            mgr.wait(third.id)
            assert third.state == JobState.DONE and third.error is None
            assert mgr.store_result_json(first.id) == first.result.to_json()
            assert mgr.store_result_json(third.id) == third.result.to_json()
            assert mgr._store_row(second.id) is None  # rolled back whole
        finally:
            mgr.shutdown()

    def test_a_read_only_store_costs_the_row_not_the_job(self, tmp_path):
        from repro.results.store import ResultStore

        directory = tmp_path / "ro"
        directory.mkdir()
        path = directory / "svc.sqlite"
        ResultStore(str(path)).close()
        path.chmod(0o444)
        directory.chmod(0o555)
        try:
            if os.access(str(path), os.W_OK):
                pytest.skip("file modes do not bind this user (root)")
            mgr = JobManager(slots=1, store_path=str(path))
            try:
                job = mgr.submit(tiny_transfer_spec(), seed=1)
                mgr.wait(job.id)
                self.assert_served_despite(mgr, job, "readonly")
            finally:
                mgr.shutdown()
        finally:
            directory.chmod(0o755)


# ====================================================================== #
# ServiceApi: the JSON surface, driven without sockets                   #
# ====================================================================== #
class TestServiceApi:
    def test_index(self, api):
        response = api.dispatch("GET", "/")
        assert response.status == 200
        body = response.json()
        assert body["service"] == "repro.service"
        assert body["slots"] == 4

    def test_submit_preset_and_fetch_result(self, api, manager):
        response = submit(api, {"preset": "web_vat_mix", "seed": 7})
        assert response.status == 201
        job = response.json()["job"]
        assert job["state"] in (JobState.QUEUED, JobState.RUNNING)
        assert len(job["spec_digest"]) == 64
        manager.wait(job["id"])
        status = api.dispatch("GET", f"/v1/jobs/{job['id']}").json()
        assert status["state"] == JobState.DONE
        assert status["progress"]["fraction"] == 1.0
        body = api.dispatch("GET", f"/v1/jobs/{job['id']}/result").body
        assert body == run(get_preset("web_vat_mix"), seed=7).to_json().encode()

    def test_submit_spec_document(self, api, manager):
        spec = tiny_transfer_spec()
        response = submit(api, {"spec": spec.to_dict(), "seed": 9})
        assert response.status == 201
        job_id = response.json()["job"]["id"]
        manager.wait(job_id)
        assert api.dispatch("GET", f"/v1/jobs/{job_id}/result").body == \
            run(spec, seed=9).to_json().encode()

    def test_submit_bad_spec_is_400_with_path(self, api):
        spec = tiny_transfer_spec().to_dict()
        spec["apps"][1]["params"]["transfer_bytes"] = "many"
        response = submit(api, {"spec": spec})
        assert response.status == 400
        body = response.json()
        assert "error" in body and "path" in body

    def test_submit_malformed_spec_is_400_not_500(self, api):
        # Wrong-shaped input used to escape from_dict/validate as a raw
        # TypeError, which the router reports as a 500.
        for mutate, path in (
            (lambda spec: spec.update(apps=5), "apps"),
            (lambda spec: spec.update(hosts=[{"name": ["a"]}]), "hosts[0].name"),
        ):
            spec = tiny_transfer_spec().to_dict()
            mutate(spec)
            response = submit(api, {"spec": spec})
            assert response.status == 400, response.json()
            assert response.json()["path"] == path

    def test_submit_unknown_key_is_400(self, api):
        response = submit(api, {"spec": {"name": "x", "bogus": 1}})
        assert response.status == 400
        assert "bogus" in response.json()["error"]

    def test_submit_validation_errors(self, api):
        assert submit(api, {}).status == 400
        assert submit(api, {"preset": "web_vat_mix", "spec": {}}).status == 400
        assert submit(api, {"preset": "nope"}).status == 400
        assert submit(api, {"preset": "web_vat_mix", "seed": "x"}).status == 400
        assert submit(api, {"preset": "web_vat_mix", "seeds": []}).status == 400
        assert submit(api, {"preset": "web_vat_mix", "seed": 1, "seeds": [2]}).status == 400
        bad_json = api.dispatch("POST", "/v1/jobs", b"{nope")
        assert bad_json.status == 400

    def test_submit_seeds_fans_out(self, api, manager):
        response = submit(api, {"preset": "web_vat_mix", "seeds": [1, 2]})
        jobs = response.json()["jobs"]
        assert [job["seed"] for job in jobs] == [1, 2]
        listing = api.dispatch("GET", "/v1/jobs").json()["jobs"]
        assert {job["id"] for job in jobs} <= {job["id"] for job in listing}
        for job in jobs:
            manager.wait(job["id"])

    def test_a_submission_is_validated_and_digested_once(self, api, manager, monkeypatch):
        import repro.service.jobs as jobs_module

        calls = {"validate": 0, "digest": 0}
        validate, digest = ScenarioSpec.validate, jobs_module.spec_digest

        def counting_validate(spec):
            calls["validate"] += 1
            return validate(spec)

        def counting_digest(spec):
            calls["digest"] += 1
            return digest(spec)

        monkeypatch.setattr(ScenarioSpec, "validate", counting_validate)
        monkeypatch.setattr(jobs_module, "spec_digest", counting_digest)
        spec = tiny_transfer_spec()
        response = submit(api, {"spec": spec.to_dict(), "seeds": [1, 2, 3, 4, 5]})
        assert response.status == 201
        assert calls == {"validate": 1, "digest": 1}
        jobs = response.json()["jobs"]
        assert [job["seed"] for job in jobs] == [1, 2, 3, 4, 5]
        assert {job["spec_digest"] for job in jobs} == {digest(spec)}
        for job in jobs:
            manager.wait(job["id"])

    def test_unknown_job_and_routes(self, api):
        assert api.dispatch("GET", "/v1/jobs/999").status == 404
        assert api.dispatch("GET", "/v1/jobs/abc").status == 400
        assert api.dispatch("GET", "/v1/nothing").status == 404
        assert api.dispatch("PATCH", "/v1/jobs").status == 405

    def test_result_conflicts(self, api, manager):
        spec = tiny_transfer_spec()
        spec.apps.append(AppSpec(app="vat", host="rx", peer="tx", label="bad"))
        response = submit(api, {"spec": spec.to_dict()})
        job_id = response.json()["job"]["id"]
        manager.wait(job_id)
        failed = api.dispatch("GET", f"/v1/jobs/{job_id}/result")
        assert failed.status == 409
        status = api.dispatch("GET", f"/v1/jobs/{job_id}").json()
        assert status["state"] == JobState.FAILED
        assert status["error_path"]

    def test_telemetry_requires_trace(self, api, manager):
        response = submit(api, {"preset": "web_vat_mix", "seed": 1})
        job_id = response.json()["job"]["id"]
        assert api.dispatch("GET", f"/v1/jobs/{job_id}/telemetry").status == 409
        manager.wait(job_id)

    def test_cancel_endpoint(self, api, manager):
        response = submit(api, {"spec": long_bulk_spec().to_dict(), "seed": 1})
        job_id = response.json()["job"]["id"]
        job = manager.get(job_id)
        wait_running(job)
        assert api.dispatch("DELETE", f"/v1/jobs/{job_id}").status == 202
        manager.wait(job_id, timeout=30)
        assert job.state == JobState.CANCELLED
        # A second cancel conflicts.
        assert api.dispatch("DELETE", f"/v1/jobs/{job_id}").status == 409


class TestHealthEndpoint:
    """``GET /v1/health``, one test per state the fleet can be in."""

    SLOT_KEYS = {"slot", "pid", "alive", "busy", "job", "jobs_run", "respawns"}

    def health(self, api):
        response = api.dispatch("GET", "/v1/health")
        assert response.status == 200
        return response.json()

    def test_idle(self, api):
        body = self.health(api)
        assert set(body) == {"accepting", "uptime_s", "queue_depth", "jobs",
                             "ingest_failures", "slots"}
        assert body["accepting"] is True
        assert body["uptime_s"] >= 0
        assert body["queue_depth"] == 0
        assert body["ingest_failures"] == 0
        assert body["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0, "cancelled": 0}
        assert [slot["slot"] for slot in body["slots"]] == [0, 1, 2, 3]
        for slot in body["slots"]:
            assert set(slot) == self.SLOT_KEYS
            assert slot["alive"] is True and slot["busy"] is False and slot["job"] is None
            assert slot["jobs_run"] == 0 and slot["respawns"] == 0
            assert slot["pid"] != os.getpid()
        assert len({slot["pid"] for slot in body["slots"]}) == 4

    def test_wrong_method_and_trailing_path(self, api):
        assert api.dispatch("POST", "/v1/health").status == 405
        assert api.dispatch("DELETE", "/v1/health").status == 405
        assert api.dispatch("GET", "/v1/health/slots").status == 404

    def test_busy_every_slot_taken_and_a_queue_behind_them(self):
        mgr = JobManager(slots=2)
        api = ServiceApi(mgr)
        try:
            running = [mgr.submit(long_bulk_spec(until=1e6), seed=seed) for seed in (1, 2)]
            for job in running:
                wait_running(job)
            queued = [mgr.submit(tiny_transfer_spec(), seed=seed) for seed in (1, 2, 3)]
            body = self.health(api)  # answered though no slot has a tick to spare
            assert body["queue_depth"] == 3
            assert body["jobs"]["running"] == 2 and body["jobs"]["queued"] == 3
            assert sorted(slot["job"] for slot in body["slots"]) == [job.id for job in running]
            assert all(slot["busy"] and slot["alive"] for slot in body["slots"])
            for job in running:
                mgr.cancel(job.id)
            for job in running + queued:
                mgr.wait(job.id, timeout=30)
            body = self.health(api)
            assert body["queue_depth"] == 0
            assert body["jobs"] == {"queued": 0, "running": 0, "done": 3, "failed": 0,
                                    "cancelled": 2}
            assert sum(slot["jobs_run"] for slot in body["slots"]) == 5
            assert not any(slot["busy"] for slot in body["slots"])
        finally:
            mgr.shutdown()

    def test_answers_while_the_only_slot_is_wedged(self, monkeypatch):
        monkeypatch.setitem(OPS, "wedge", op_wedge)
        mgr = JobManager(slots=1)
        api = ServiceApi(mgr)
        try:
            job = mgr.submit(long_bulk_spec(until=1e6), seed=1)
            wait_running(job)
            with pytest.raises(TimeoutError):
                job.request("wedge", timeout=0.1, seconds=60)
            started = time.monotonic()
            body = self.health(api)
            assert time.monotonic() - started < 0.5
            (slot,) = body["slots"]
            assert slot["busy"] and slot["job"] == job.id
        finally:
            mgr.shutdown(timeout=0.2)

    def test_after_a_slot_death(self, api, manager):
        job = manager.submit(long_bulk_spec(until=1e6), seed=1)
        wait_running(job)
        before = slot_of(manager, job)
        os.kill(before["pid"], signal.SIGKILL)
        manager.wait(job.id, timeout=20)
        body = self.health(api)
        assert body["jobs"]["failed"] == 1
        after = body["slots"][before["slot"]]
        assert after["alive"] is True and after["busy"] is False
        assert after["respawns"] == 1 and after["jobs_run"] == 1
        assert after["pid"] != before["pid"]
        others = [slot for slot in body["slots"] if slot["slot"] != before["slot"]]
        assert all(slot["respawns"] == 0 and slot["alive"] for slot in others)

    def test_counts_ingest_failures(self, tmp_path):
        mgr = JobManager(slots=1, store_path=str(tmp_path))  # a directory: cannot open
        try:
            mgr.wait(mgr.submit(tiny_transfer_spec(), seed=1).id)
            assert self.health(ServiceApi(mgr))["ingest_failures"] == 1
        finally:
            mgr.shutdown()

    def test_after_shutdown_is_requested(self):
        mgr = JobManager(slots=2)
        api = ServiceApi(mgr)
        job = mgr.submit(long_bulk_spec(until=1e6), seed=1)
        wait_running(job)
        mgr.shutdown()
        body = self.health(api)
        assert body["accepting"] is False
        assert body["jobs"]["cancelled"] == 1 and body["jobs"]["running"] == 0
        assert not any(slot["alive"] or slot["busy"] for slot in body["slots"])
        assert submit(api, {"preset": "web_vat_mix"}).status == 500

    def test_index_reports_the_same_job_counts(self, api, manager):
        manager.wait(manager.submit(tiny_transfer_spec(), seed=1).id)
        assert api.dispatch("GET", "/").json()["jobs"] == self.health(api)["jobs"]


class TestLiveInspection:
    """hosts / macroflows / flows / attach / patch against a running job."""

    @pytest.fixture
    def live_job(self, api, manager):
        response = submit(api, {"spec": long_bulk_spec().to_dict(), "seed": 3})
        job = manager.get(response.json()["job"]["id"])
        wait_running(job, min_sim_time=2.0)
        yield job
        manager.cancel(job.id)
        manager.wait(job.id, timeout=30)

    def test_hosts_snapshot(self, api, live_job):
        body = api.dispatch("GET", f"/v1/jobs/{live_job.id}/hosts").json()
        assert body["sim_time"] > 0
        by_name = {entry["host"]: entry for entry in body["hosts"]}
        assert by_name["sender"]["cm"] is True
        assert by_name["sender"]["open_flows"] > 0
        assert by_name["sender"]["macroflows"] == 1
        assert by_name["receiver"]["cm"] is False

    def test_macroflows_report_real_state(self, api, live_job):
        body = api.dispatch("GET", f"/v1/jobs/{live_job.id}/hosts/sender/macroflows").json()
        (entry,) = body["macroflows"]
        assert entry["cwnd_bytes"] > 0
        assert entry["rate_bps"] > 0
        assert entry["srtt_s"] > 0
        assert entry["bytes_acked_total"] > 0
        assert len(entry["flows"]) == 4
        assert entry["scheduler"].endswith("Scheduler")
        assert entry["pending_grants"] >= 0
        missing = api.dispatch("GET", f"/v1/jobs/{live_job.id}/hosts/nobody/macroflows")
        assert missing.status == 404
        no_cm = api.dispatch("GET", f"/v1/jobs/{live_job.id}/hosts/receiver/macroflows")
        assert no_cm.status == 409

    def test_flows_report_per_flow_state(self, api, live_job):
        mf = api.dispatch(
            "GET", f"/v1/jobs/{live_job.id}/hosts/sender/macroflows").json()["macroflows"][0]
        body = api.dispatch(
            "GET", f"/v1/jobs/{live_job.id}/macroflows/{mf['macroflow_id']}/flows").json()
        assert body["host"] == "sender"
        assert len(body["flows"]) == 4
        for flow in body["flows"]:
            assert flow["state"] == "open"
            assert flow["stats"]["grants"] > 0
        assert api.dispatch(
            "GET", f"/v1/jobs/{live_job.id}/macroflows/999/flows").status == 404

    def test_attach_app_changes_result_workloads(self, api, manager):
        spec = long_bulk_spec(until=20.0)
        response = submit(api, {"spec": spec.to_dict(), "seed": 3})
        job = manager.get(response.json()["job"]["id"])
        wait_running(job, min_sim_time=2.0)
        attach = api.dispatch(
            "POST", f"/v1/jobs/{job.id}/hosts/sender/apps",
            json.dumps({"app": "bulk", "peer": "receiver", "label": "late",
                        "params": {"nbuffers": 100, "port": 6001}}).encode())
        assert attach.status == 201
        assert attach.json()["attached_at"] > 0
        manager.wait(job.id, timeout=120)
        assert job.state == JobState.DONE
        payload = job.result.payload()
        (entry,) = payload["workloads"]
        assert entry["kind"] == "service_attach"
        assert entry["label"] == "late"
        assert entry["metrics"]["throughput"] > 0
        # The same (spec, seed) without the mutation has no workloads section.
        assert "workloads" not in run(spec, seed=3).payload()

    def test_attach_app_validation(self, api, live_job):
        bad_app = api.dispatch(
            "POST", f"/v1/jobs/{live_job.id}/hosts/sender/apps",
            json.dumps({"app": "nope"}).encode())
        assert bad_app.status == 400
        assert bad_app.json()["path"] == "app"
        bad_params = api.dispatch(
            "POST", f"/v1/jobs/{live_job.id}/hosts/sender/apps",
            json.dumps({"app": "bulk", "peer": "receiver"}).encode())
        assert bad_params.status == 400
        assert "nbuffers" in bad_params.json()["path"]
        # The placement rules are the static ``apps:`` block's, peer != host
        # included (the hand-copied check used to miss it).
        self_peer = api.dispatch(
            "POST", f"/v1/jobs/{live_job.id}/hosts/sender/apps",
            json.dumps({"app": "bulk", "peer": "sender",
                        "params": {"nbuffers": 10}}).encode())
        assert self_peer.status == 400
        assert self_peer.json()["path"] == "peer"
        assert "differ" in self_peer.json()["error"]

    def test_patch_link(self, api, live_job):
        patched = api.dispatch(
            "PATCH", f"/v1/jobs/{live_job.id}/links/sender->receiver",
            json.dumps({"rate_bps": 2e6, "delay": 0.05}).encode())
        assert patched.status == 200
        body = patched.json()
        assert body["rate_bps"] == 2e6
        assert body["delay"] == 0.05
        assert api.dispatch(
            "PATCH", f"/v1/jobs/{live_job.id}/links/ghost",
            json.dumps({"rate_bps": 1e6}).encode()).status == 404
        assert api.dispatch(
            "PATCH", f"/v1/jobs/{live_job.id}/links/sender->receiver",
            json.dumps({}).encode()).status == 400

    def test_patch_link_scheduled(self, api, live_job):
        scheduled = api.dispatch(
            "PATCH", f"/v1/jobs/{live_job.id}/links/sender->receiver",
            json.dumps({"rate_bps": 3e6, "at": 500.0}).encode())
        assert scheduled.status == 200
        assert scheduled.json()["applies_at"] == 500.0

    def test_inspection_rejected_when_finished(self, api, manager):
        response = submit(api, {"spec": tiny_transfer_spec().to_dict()})
        job_id = response.json()["job"]["id"]
        manager.wait(job_id)
        assert api.dispatch("GET", f"/v1/jobs/{job_id}/hosts").status == 409


# ====================================================================== #
# End to end over a real socket                                          #
# ====================================================================== #
class TestHttpEndToEnd:
    def test_submit_poll_result_telemetry_and_shutdown(self, tmp_path):
        from repro.service.client import ServiceClient, ServiceError
        from repro.service.server import ServiceServer

        manager = JobManager(slots=4, store_path=str(tmp_path / "svc.sqlite"),
                             trace_dir=str(tmp_path / "traces"))
        server = ServiceServer(manager)
        server.start()
        try:
            client = ServiceClient(server.address)
            client.wait_ready()

            # Two concurrent traced submissions through the real socket.
            body = client.submit(preset="web_vat_mix", seeds=[1, 2], trace=True)
            ids = [job["id"] for job in body["jobs"]]

            lines = list(client.telemetry_lines(ids[0], max_lines=3))
            assert len(lines) == 3
            assert all("event" in json.loads(line) for line in lines)

            for job_id in ids:
                assert client.wait(job_id)["state"] == JobState.DONE
            preset = get_preset("web_vat_mix")
            for job_id, seed in zip(ids, (1, 2)):
                assert client.result_bytes(job_id) == run(preset, seed=seed).to_json().encode()

            with pytest.raises(ServiceError) as err:
                client.job(999)
            assert err.value.status == 404

            assert client.shutdown()["ok"] is True
            deadline = time.time() + 10
            while not server._stopped.is_set() and time.time() < deadline:
                time.sleep(0.05)
            assert server._stopped.is_set()
        finally:
            server.stop()

    def test_service_cli_against_live_server(self, tmp_path, capsys):
        from repro.service.cli import main as service_main
        from repro.service.server import ServiceServer

        manager = JobManager(slots=2)
        server = ServiceServer(manager)
        server.start()
        try:
            url = server.address
            assert service_main(["--url", url, "submit", "web_vat_mix",
                                 "--seed", "4", "--wait"]) == 0
            out = capsys.readouterr().out
            assert "state=queued" in out or "state=running" in out or "job 1" in out
            assert service_main(["--url", url, "status"]) == 0
            assert "done" in capsys.readouterr().out
            assert service_main(["--url", url, "result", "1",
                                 "--output", str(tmp_path / "res.json")]) == 0
            written = (tmp_path / "res.json").read_bytes()
            assert written == run(get_preset("web_vat_mix"), seed=4).to_json().encode()
        finally:
            server.stop()


    def test_health_over_http_client_and_cli(self, capsys):
        from repro.service.cli import main as service_main
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceServer

        with ServiceServer(JobManager(slots=2)) as server:
            client = ServiceClient(server.address)
            body = client.health()
            assert body["accepting"] is True and len(body["slots"]) == 2
            assert service_main(["--url", server.address, "health"]) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[0].startswith("accepting: up ")
            assert "queue=0" in out[0] and "ingest_failures=0" in out[0]
            assert [line.split(":")[0] for line in out[1:]] == ["slot 0", "slot 1"]
            assert all("alive idle jobs_run=0 respawns=0" in line for line in out[1:])
            # A dead slot nobody has replaced yet is an unhealthy fleet.
            server.manager._slots[0].alive = False
            assert service_main(["--url", server.address, "health"]) == 1
            assert "slot 0: pid" in capsys.readouterr().out
            server.manager._slots[0].alive = True


class _FakeSocket:
    """A request's bytes in, every ``sendall`` out: the process boundary."""

    def __init__(self, request: bytes):
        self.request = request
        self.writes = []

    def makefile(self, mode, buffering=-1):
        return io.BytesIO(self.request)

    def settimeout(self, value):
        pass

    def sendall(self, data):
        self.writes.append(bytes(data))


class TestResponseWrites:
    def serve(self, api, request: bytes):
        from repro.service.server import make_handler

        sock = _FakeSocket(request)
        make_handler(api)(sock, ("127.0.0.1", 0), None)
        return sock.writes

    @pytest.mark.parametrize("request_line, status", [
        (b"GET / HTTP/1.1", b"200"),
        (b"GET /v1/health HTTP/1.1", b"200"),
        (b"GET /v1/jobs HTTP/1.1", b"200"),
        (b"GET /v1/jobs/999 HTTP/1.1", b"404"),
        (b"PATCH /v1/jobs HTTP/1.1", b"405"),
    ])
    def test_a_fixed_body_response_is_one_socket_write(self, api, request_line, status):
        writes = self.serve(api, request_line + b"\r\nHost: x\r\nConnection: close\r\n\r\n")
        assert len(writes) == 1
        head, _, body = writes[0].partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 " + status + b" " + lines[0].split(b" ", 2)[2]
        headers = dict(line.split(b": ", 1) for line in lines[1:])
        assert list(headers) == [b"Server", b"Date", b"Content-Type", b"Content-Length"]
        assert headers[b"Server"].startswith(b"repro-service/1.0")
        assert headers[b"Content-Type"] == b"application/json"
        assert int(headers[b"Content-Length"]) == len(body)
        json.loads(body)

    def test_a_result_is_served_verbatim_in_one_write(self, api, manager):
        job = manager.submit(get_preset("web_vat_mix"), seed=1)
        manager.wait(job.id)
        (write,) = self.serve(api, f"GET /v1/jobs/{job.id}/result HTTP/1.1\r\n\r\n".encode())
        assert write.endswith(b"\r\n\r\n" + run(get_preset("web_vat_mix"), seed=1).to_json().encode())

    def test_a_body_larger_than_any_buffer_is_still_one_write(self, api, manager):
        jobs = [manager.submit(tiny_transfer_spec(), seed=seed) for seed in range(24)]
        for job in jobs:
            manager.wait(job.id)
        (write,) = self.serve(api, b"GET /v1/jobs HTTP/1.1\r\n\r\n")
        body = write.partition(b"\r\n\r\n")[2]
        assert len(body) > 8192
        assert len(json.loads(body)["jobs"]) == 24

    def test_two_requests_on_one_connection_are_two_writes(self, api):
        request = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"
        writes = self.serve(api, request + request)
        assert len(writes) == 2
        assert all(write.startswith(b"HTTP/1.1 200 OK\r\n") for write in writes)

    def test_the_telemetry_stream_is_still_chunked(self, api, manager, tmp_path):
        manager._trace_dir = str(tmp_path)
        job = manager.submit(tiny_transfer_spec(), seed=1, trace=True)
        manager.wait(job.id)
        writes = self.serve(api, f"GET /v1/jobs/{job.id}/telemetry HTTP/1.1\r\n\r\n".encode())
        assert b"Transfer-Encoding: chunked" in writes[0]
        assert writes[-1] == b"0\r\n\r\n"
        wire = b"".join(writes)
        with open(job.trace_path, "rb") as handle:
            assert handle.read(64) in wire

    def test_a_kept_alive_connection_does_not_stall(self):
        from repro.service.server import ServiceServer

        with ServiceServer(JobManager(slots=1)) as server:
            host, port = server.httpd.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request("GET", "/")  # the stall used to start with the second request
                conn.getresponse().read()
                started = time.perf_counter()
                for _ in range(20):
                    conn.request("GET", "/")
                    response = conn.getresponse()
                    assert response.status == 200
                    assert json.loads(response.read())["service"] == "repro.service"
                elapsed = time.perf_counter() - started
            finally:
                conn.close()
        # Two segments per response cost Nagle + delayed ACK, ~40 ms each.
        assert elapsed < 20 * 0.040 / 2, f"20 kept-alive round trips took {elapsed:.3f}s"


# ====================================================================== #
# HTTP input bounds: what one request can make the server hold            #
# ====================================================================== #
@pytest.fixture
def bounded_server(monkeypatch):
    """A live server whose socket reads time out after 0.3 s."""
    from repro.service import server as server_module

    monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.3)
    with server_module.ServiceServer(JobManager(slots=1)) as server:
        yield server


def raw_connection(server) -> socket.socket:
    host, port = server.httpd.server_address[:2]
    return socket.create_connection((host, port), timeout=5.0)


def read_response(sock: socket.socket):
    """One HTTP response off a raw socket: (status, headers, body)."""
    response = http.client.HTTPResponse(sock)
    response.begin()
    try:
        return response.status, dict(response.getheaders()), response.read()
    finally:
        response.close()


def record_handler_threads(server) -> list:
    """The threads the server starts for its connections, from now on."""
    threads = []
    process_request_thread = server.httpd.process_request_thread

    def recording(request, client_address):
        threads.append(threading.current_thread())
        process_request_thread(request, client_address)

    server.httpd.process_request_thread = recording
    return threads


def post_head(length: str) -> bytes:
    return (f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n").encode()


class TestRequestBounds:
    def assert_refused_and_closed(self, sock, status: int, words: str) -> None:
        got, headers, body = read_response(sock)
        assert got == status
        assert headers["Connection"] == "close"
        assert words in json.loads(body)["error"]
        assert sock.recv(1) == b""  # and the server hung up

    @pytest.mark.parametrize("length", ["twelve", "1_0", "0x10", ""])
    def test_a_content_length_that_is_not_an_integer_is_400(self, bounded_server, length):
        with raw_connection(bounded_server) as sock:
            sock.sendall(post_head(length) + b"{}")
            self.assert_refused_and_closed(sock, 400, "non-negative integer")

    def test_a_negative_content_length_is_400(self, bounded_server):
        with raw_connection(bounded_server) as sock:
            sock.sendall(post_head("-5") + b"{}")
            self.assert_refused_and_closed(sock, 400, "non-negative integer")

    def test_a_huge_content_length_is_413_without_reading_the_body(self, bounded_server):
        from repro.service.server import MAX_BODY_BYTES

        with raw_connection(bounded_server) as sock:
            # Not one body byte follows: a server that tried to read the body
            # would time out and answer 400, not 413.
            sock.sendall(post_head(str(MAX_BODY_BYTES + 1)))
            self.assert_refused_and_closed(sock, 413, "exceeds")
        assert bounded_server.manager.jobs() == []

    @pytest.mark.parametrize("hang_up", [False, True], ids=["stalled", "ended"])
    def test_a_body_shorter_than_its_length_is_400(self, bounded_server, hang_up):
        with raw_connection(bounded_server) as sock:
            sock.sendall(post_head("100") + b'{"preset": ')
            if hang_up:
                sock.shutdown(socket.SHUT_WR)
            started = time.monotonic()
            self.assert_refused_and_closed(
                sock, 400, "ended after 11 of 100" if hang_up else "not received within 0.3s")
            waited = time.monotonic() - started
        if not hang_up:
            assert 0.25 < waited < 1.5  # the read timeout, not forever
        assert bounded_server.manager.jobs() == []

    def test_an_idle_kept_alive_connection_frees_its_thread(self, bounded_server):
        threads = record_handler_threads(bounded_server)
        with raw_connection(bounded_server) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            assert read_response(sock)[0] == 200
            (thread,) = threads
            assert thread.is_alive()  # kept alive, waiting for the next request
            sock.settimeout(1.5)
            assert sock.recv(1) == b""  # the server closed it after 0.3 s idle
        thread.join(timeout=1.5)
        assert not thread.is_alive()

    def test_the_limits_let_an_ordinary_request_through(self, bounded_server):
        body = json.dumps({"spec": tiny_transfer_spec().to_dict(), "seed": 2}).encode()
        with raw_connection(bounded_server) as sock:
            sock.sendall(post_head(str(len(body))) + body)
            status, headers, reply = read_response(sock)
        assert status == 201 and "Connection" not in headers
        assert json.loads(reply)["job"]["seed"] == 2


# ====================================================================== #
# The client: one kept-alive connection per calling thread               #
# ====================================================================== #
@contextlib.contextmanager
def counted_server(slots: int = 1, **manager_args):
    """A live server that records every connection it accepts."""
    from repro.service.server import ServiceServer

    server = ServiceServer(JobManager(slots=slots, **manager_args))
    accepts = []
    get_request = server.httpd.get_request

    def counting_get_request():
        accepted = get_request()
        accepts.append(accepted[1])
        return accepted

    server.httpd.get_request = counting_get_request
    with server:
        yield server, accepts


def idle_dropped(client) -> bool:
    """The server has closed the calling thread's idle connection."""
    from repro.service.client import _closed_by_peer

    return _closed_by_peer(client._local.conn.sock)


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
class TestKeptAliveClient:
    def test_fifty_requests_from_one_thread_open_one_connection(self):
        from repro.service.client import ServiceClient

        with counted_server() as (server, accepts):
            client = ServiceClient(server.address)
            try:
                for index in range(50):
                    if index % 2:
                        assert client.info()["service"] == "repro.service"
                    else:
                        assert client.health()["accepting"] is True
            finally:
                client.close()
        assert len(accepts) == 1

    def test_two_threads_open_two_connections(self):
        from repro.service.client import ServiceClient

        with counted_server() as (server, accepts):
            client = ServiceClient(server.address)
            barrier = threading.Barrier(2, timeout=10)
            answers = []

            def worker():
                try:
                    barrier.wait()  # both threads hold a connection at once
                    answers.extend(client.info()["service"] for _ in range(10))
                    barrier.wait()
                finally:
                    client.close()

            threads = [threading.Thread(target=worker) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
                assert not thread.is_alive()
        assert answers == ["repro.service"] * 20
        assert len(accepts) == 2

    def test_a_get_after_the_server_dropped_the_idle_connection_reconnects(self, monkeypatch):
        from repro.service import server as server_module
        from repro.service.client import ServiceClient

        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        with counted_server() as (server, accepts):
            client = ServiceClient(server.address)
            try:
                client.info()
                wait_for(lambda: idle_dropped(client), timeout=5, what="the idle drop")
                assert client.info()["service"] == "repro.service"
                assert client.jobs() == []
            finally:
                client.close()
        assert len(accepts) == 2

    def test_a_get_on_a_connection_that_died_unnoticed_is_retried_once(self, monkeypatch):
        from repro.service import client as client_module
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        with counted_server() as (server, accepts):
            client = client_module.ServiceClient(server.address)
            try:
                client.info()
                wait_for(lambda: idle_dropped(client), timeout=5, what="the idle drop")
                # Miss the EOF: the request goes out on the dead connection,
                # fails before any response byte, and goes again on a new one.
                monkeypatch.setattr(client_module, "_closed_by_peer", lambda sock: False)
                assert client.info()["service"] == "repro.service"
            finally:
                client.close()
        assert len(accepts) == 2

    def test_a_post_on_a_connection_the_server_closed_is_sent_once(self, monkeypatch):
        from repro.service import client as client_module
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        spec = tiny_transfer_spec().to_dict()
        with counted_server() as (server, accepts):
            client = client_module.ServiceClient(server.address)
            try:
                client.info()
                wait_for(lambda: idle_dropped(client), timeout=5, what="the idle drop")
                # Seen closed before the send: the POST goes out once, on a new
                # connection.
                client.submit(spec=spec, seed=1)
                assert len(server.manager.jobs()) == 1
                assert len(accepts) == 2

                wait_for(lambda: idle_dropped(client), timeout=5, what="the idle drop")
                # Not seen: the POST fails and is not sent again.
                monkeypatch.setattr(client_module, "_closed_by_peer", lambda sock: False)
                with pytest.raises(ConnectionError):
                    client.submit(spec=spec, seed=2)
                assert len(server.manager.jobs()) == 1
                assert len(accepts) == 2
                for job in server.manager.jobs():
                    server.manager.wait(job.id)
            finally:
                client.close()

    def test_eight_threads_of_mixed_calls_against_two_slots(self):
        from repro.service.client import ServiceClient

        spec = tiny_transfer_spec()
        expected = {seed: run(spec, seed=seed).to_json().encode() for seed in range(1, 5)}
        payload = spec.to_dict()
        with counted_server(slots=2) as (server, accepts):
            client = ServiceClient(server.address)
            outcomes = {}

            def worker(index: int) -> None:
                calls, results = 0, []
                try:
                    while calls < 50:
                        seed = 1 + (index + len(results)) % 4
                        job_id = client.submit(spec=payload, seed=seed)["job"]["id"]
                        calls += 1
                        while client.job(job_id)["state"] not in ("done", "failed", "cancelled"):
                            calls += 1
                            time.sleep(0.002)
                        calls += 1
                        results.append((seed, client.result_bytes(job_id)))
                        calls += 1
                finally:
                    client.close()
                outcomes[index] = results

            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)
            try:
                threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(switch)
        assert sorted(outcomes) == list(range(8))
        for results in outcomes.values():
            assert results and all(body == expected[seed] for seed, body in results)
        assert len(accepts) == 8

    def test_a_telemetry_stream_gets_a_connection_of_its_own(self, tmp_path):
        from repro.service.client import ServiceClient

        with counted_server(trace_dir=str(tmp_path)) as (server, accepts):
            client = ServiceClient(server.address)
            try:
                job_id = client.submit(spec=tiny_transfer_spec().to_dict(), seed=1,
                                       trace=True)["job"]["id"]
                lines = list(client.telemetry_lines(job_id, max_lines=3))
                assert len(lines) == 3 and all("event" in json.loads(line) for line in lines)
                assert client.wait(job_id, poll=0.01)["state"] == JobState.DONE
            finally:
                client.close()
        assert len(accepts) == 2  # the thread's connection, and the stream's

    def test_close_releases_the_socket(self):
        from repro.service.client import ServiceClient

        with counted_server() as (server, accepts):
            client = ServiceClient(server.address)
            threads = record_handler_threads(server)
            client.info()
            sock = client._local.conn.sock
            (thread,) = threads
            client.close()
            assert sock.fileno() == -1
            thread.join(timeout=5)
            assert not thread.is_alive()  # the server saw the close
            client.close()  # twice is harmless
            client.info()  # and the next request opens a fresh connection
            client.close()
        assert len(accepts) == 2


@contextlib.contextmanager
def dying_server(reply: bytes):
    """A listener that reads each request, writes ``reply`` and hangs up."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(5.0)
                conn.recv(65536)
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % listener.getsockname()[1]
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()


DYING_REPLIES = {
    "incomplete_read": (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: 100\r\n\r\n{\"jobs\": ["),
    "bad_status_line": b"SPDY/9 what\r\n",
    "no_response": b"",
}


class TestClientTransportErrors:
    @pytest.mark.parametrize("reply", list(DYING_REPLIES), ids=list(DYING_REPLIES))
    def test_the_cli_reports_a_server_dying_mid_response(self, reply, capsys):
        from repro.service.cli import main as service_main

        with dying_server(DYING_REPLIES[reply]) as url:
            assert service_main(["--url", url, "status"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot reach service at {url}: ")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("reply", list(DYING_REPLIES), ids=list(DYING_REPLIES))
    def test_shutdown_tolerates_a_server_dying_mid_response(self, reply):
        from repro.service.client import ServiceClient

        with dying_server(DYING_REPLIES[reply]) as url:
            body = ServiceClient(url).shutdown()
        assert body == {"ok": True, "message": "connection closed during shutdown"}

    def test_shutdown_of_a_server_that_is_not_there_still_raises(self):
        from repro.service.client import ServiceClient

        with socket.create_server(("127.0.0.1", 0)) as placeholder:
            port = placeholder.getsockname()[1]
        with pytest.raises(ConnectionRefusedError):
            ServiceClient(f"http://127.0.0.1:{port}").shutdown()


# ====================================================================== #
# Satellite: scenario CLI reports per-seed SpecErrors and continues      #
# ====================================================================== #
class TestScenarioCliReportAndContinue:
    def test_failing_seed_does_not_abort_the_batch(self, tmp_path, monkeypatch, capsys):
        import repro.scenario.cli as scenario_cli

        spec = tiny_transfer_spec()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        real_run = scenario_cli.run

        def flaky_run(spec, seed=None, trace_path=None, shards=None):
            if seed == 2:
                raise SpecError("apps[flow]", "synthetic failure for seed 2")
            return real_run(spec, seed=seed, trace_path=trace_path, shards=shards)

        monkeypatch.setattr(scenario_cli, "run", flaky_run)
        json_dir = tmp_path / "out"
        code = scenario_cli.main(["run", str(spec_path), "--seeds", "3",
                                  "--quiet", "--json-dir", str(json_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert "invalid scenario (seed 2)" in captured.err
        assert "1 of 3 seed(s) failed" in captured.err
        # Seeds 1 and 3 still produced their artifacts.
        names = sorted(path.name for path in json_dir.iterdir())
        assert names == ["svc_tiny.seed1.json", "svc_tiny.seed3.json"]

    def test_eager_validation_failure_still_exits_2(self, tmp_path, capsys):
        from repro.scenario.cli import main as scenario_main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "bogus": True}))
        assert scenario_main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario:")
        assert "\n" == err[err.index("\n"):]  # one clean line, no traceback
