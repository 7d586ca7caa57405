"""The worker pool: nested task lists run inline."""

import threading

from fracwick.pool import run_tasks


def test_a_list_started_inside_a_task_runs_on_that_task_thread(monkeypatch):
    monkeypatch.setenv("FRACWICK_THREADS", "2")

    def outer():
        me = threading.get_ident()
        inner = run_tasks([threading.get_ident for _ in range(4)])
        return me, inner

    results = run_tasks([outer, outer, outer])
    for me, inner in results:
        assert inner == [me] * 4
    # the outer list itself ran on pool threads, not on this one
    assert all(me != threading.get_ident() for me, _ in results)
