"""Suite-wide guards, and helper threads: one idle and one held busy."""

import threading

import pytest

from zotune.gp import Helper


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread alive that was not alive before it,
    so a helper that is never joined fails where it leaked, not as a hang."""
    before = set(threading.enumerate())
    yield
    leaked = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not leaked, f"threads left alive: {leaked}"


@pytest.fixture
def helper():
    """A ``Helper`` open for the length of the test, as ``SingleRun.run_to``
    opens one for its rounds."""
    with Helper() as opened:
        yield opened


@pytest.fixture
def busy_helper():
    """A ``Helper`` whose thread runs a first call that lasts until the test
    ends, so the caller claims every call submitted to it."""
    started, release = threading.Event(), threading.Event()

    def hold() -> None:
        started.set()
        release.wait(timeout=120)

    with Helper() as helper:
        helper.submit(hold)
        assert started.wait(timeout=60), "the helper never started its first call"
        try:
            yield helper
        finally:
            release.set()
