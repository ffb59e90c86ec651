"""The simulation service: control tick, job fleet, JSON API, HTTP smoke.

Most tests drive :class:`repro.service.api.ServiceApi` directly (no
sockets), mirroring how the flow-manager tests drive their router; one
end-to-end class exercises the real ThreadingHTTPServer on an ephemeral
port.
"""

import json
import threading
import time

import pytest

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
from repro.service import JobManager, JobNotLive, JobState, ServiceApi
from repro.service.jobs import STORE_SOURCE_PREFIX


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
    """Sustained CM bulk traffic with a far horizon (for live inspection)."""
    spec = get_preset("bulk_macroflow_sharing")
    spec.stop.until = until
    spec.stop.when_apps_done = False
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

    def test_mailbox_runs_in_worker_thread(self, manager):
        job = manager.submit(long_bulk_spec(), seed=1)
        wait_running(job)
        caller = threading.current_thread().name

        def snapshot(scenario):
            return {"thread": threading.current_thread().name, "now": scenario.sim.now}

        seen = job.request(snapshot)
        assert seen["thread"].startswith("repro-service-worker-")
        assert seen["thread"] != caller
        assert seen["now"] > 0
        manager.cancel(job.id)
        manager.wait(job.id, timeout=30)

    def test_mailbox_rejected_when_not_running(self, manager):
        job = manager.submit(tiny_transfer_spec(), seed=1)
        manager.wait(job.id)
        with pytest.raises(JobNotLive):
            job.request(lambda scenario: None)

    def test_mailbox_propagates_callable_errors(self, manager):
        job = manager.submit(long_bulk_spec(), seed=1)
        wait_running(job)

        def boom(scenario):
            raise ValueError("kaput")

        with pytest.raises(ValueError, match="kaput"):
            job.request(boom)
        manager.cancel(job.id)
        manager.wait(job.id, timeout=30)

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
