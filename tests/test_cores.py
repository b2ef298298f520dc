"""The thread-per-core job runner shared by generation and initialization."""

import os
import sys
import threading
import time

import pytest

from radarnet.cores import run_on_cores


@pytest.fixture
def eight_cores(monkeypatch):
    # 8 threads is more than the cores of a usual test host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))


def test_results_are_in_job_order(eight_cores):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_on_cores(500, lambda i: i * i) == [i * i for i in range(500)]
    finally:
        sys.setswitchinterval(interval)


def test_one_job_runs_on_the_calling_thread(eight_cores):
    assert run_on_cores(1, lambda i: threading.get_ident()) == [threading.get_ident()]


def test_one_core_runs_every_job_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert set(run_on_cores(20, lambda i: threading.get_ident())) == {threading.get_ident()}


def test_failure_drains_the_remaining_jobs(eight_cores):
    started = []

    def job(i):
        started.append(i)
        time.sleep(0.002)
        if i == 3:
            raise RuntimeError("job 3 fails")

    with pytest.raises(RuntimeError, match="job 3"):
        run_on_cores(1000, job)
    # jobs taken before job 3 failed still finish; the rest of the 1000 never start
    assert 3 in started and len(started) < 100
