"""Suite-wide guards."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread alive that was not alive before it,
    so a helper that is never joined fails where it leaked, not as a hang."""
    before = set(threading.enumerate())
    yield
    leaked = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not leaked, f"threads left alive: {leaked}"
