"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unwaited for: the
    CSV codec (dataset_io._forked, the only code that forks) starts its
    children, and each must be gone when its call returns or raises."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return
    if pid == 0:
        pytest.fail("a child process is still running after the test")
    pytest.fail(f"child process {pid} was left unwaited for (status {status})")
