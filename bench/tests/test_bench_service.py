"""``failed_share``: what counts as a failed job."""

from bench.service import job_failed


def _job(state="done", result=b"{}", seed=7):
    return {"seed": seed, "state": state, "result": result}


def test_a_done_job_with_matching_bytes_passes():
    assert not job_failed(_job(), {7: b"{}"})
    assert not job_failed(_job(), {})  # no reference known for this seed


def test_refused_failed_cancelled_and_empty_jobs_fail():
    assert job_failed(_job(state="refused", result=None), {})
    assert job_failed(_job(state="failed", result=None), {})
    assert job_failed(_job(state="cancelled", result=None), {})
    assert job_failed(_job(result=None), {})  # done, but the result fetch failed


def test_a_job_whose_bytes_differ_from_the_batch_run_fails():
    assert job_failed(_job(result=b'{"x": 1}'), {7: b'{"x": 2}'})
