"""Fixtures shared by the test modules."""

import threading

import pytest

from augbound import evaluation


@pytest.fixture
def split_workers(monkeypatch):
    """Setter of ``evaluation._WORKERS`` that also watches thread starts.

    ``split_workers(2)`` lets threads start and returns a list that gets one
    entry (the thread's name) per thread started from then on.
    ``split_workers(1)`` makes starting any thread raise, as a process with
    one usable CPU must run the population InfoNCE on the calling thread
    alone.
    """
    real_thread = threading.Thread
    started = []

    def counted(*args, **kwargs):
        started.append(kwargs.get("name"))
        return real_thread(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("a thread was started with one worker")

    def set_workers(workers):
        monkeypatch.setattr(evaluation, "_WORKERS", workers)
        monkeypatch.setattr(threading, "Thread", counted if workers >= 2 else refused)
        return started

    return set_workers
