"""Numbered jobs on one thread per usable core, the calling thread among them."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor


def run_on_cores(n_jobs: int, job) -> list:
    """[job(i) for i in range(n_jobs)], each thread taking the next i under a lock, on
    one thread per core in the process's affinity mask (where the platform has one) but
    at most n_jobs threads, so one job starts none; on glibc each thread but the caller
    keeps a 1.5 MB malloc arena for the life of the process.  When a job fails, no
    thread starts another one and its error is raised."""
    results = [None] * n_jobs
    pending = iter(range(n_jobs))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                results[i] = job(i)
            except BaseException:
                with lock:
                    for _ in pending:   # no thread starts another job
                        pass
                raise

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    helpers = min(cores, n_jobs) - 1
    with ThreadPoolExecutor(max_workers=max(helpers, 1)) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()
    return results
