"""Pytest wiring shared by the whole suite."""

import tracemalloc

import pytest
from hypothesis import settings

# The sandbox runs cold numpy imports slowly enough to trip hypothesis'
# default per-example deadline; wall-clock limits live in the acceptance
# tests instead.
settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture
def peak_bytes():
    """peak_bytes(fn, *args, **kwargs): the most bytes the call held at once.

    Measured by tracemalloc, which sees numpy's array buffers as well as
    Python objects; memory allocated before the call does not count.
    """

    def measure(fn, *args, **kwargs) -> int:
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
