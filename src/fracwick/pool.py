"""The worker pool that suites and the sampler run their tasks on.

A task list runs on at most `thread_count()` threads, and its results keep
the order of the list, so no result depends on the thread count. A task
list started inside a task runs inline on that task's thread, so nested
lists (generate's generators, each sampling its row blocks) never put more
than `thread_count()` threads to work.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError


def thread_count() -> int:
    """Worker cap from FRACWICK_THREADS, defaulting to min(4, cpu count)."""
    raw = os.environ.get("FRACWICK_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            raise ConfigError(f"FRACWICK_THREADS must be an integer, got {raw!r}")
        if n < 1:
            raise ConfigError("FRACWICK_THREADS must be at least 1")
        return n
    return min(4, os.cpu_count() or 1)


# Name prefix of the pool's threads, by which a task list knows that it
# was started inside a task.
_WORKER_PREFIX = "fracwick-pool"


def run_tasks(tasks):
    """Run thunks on the worker pool; results keep submission order, and
    the first task that raised, in that order, re-raises here."""
    if len(tasks) <= 1 or threading.current_thread().name.startswith(_WORKER_PREFIX):
        return [fn() for fn in tasks]
    with ThreadPoolExecutor(max_workers=thread_count(), thread_name_prefix=_WORKER_PREFIX) as pool:
        futures = [pool.submit(fn) for fn in tasks]
        return [f.result() for f in futures]
