"""Suite-wide hypothesis profile.

Property tests draw the same examples on every run (`derandomize`), so a
failure they find reproduces on every run rather than appearing at random.
Per-test `@settings` still choose their own `max_examples`.

`traced_peak` measures the memory a call allocates at its peak, as
tracemalloc sees it; numpy reports its array buffers to tracemalloc, so
the figure is deterministic. `traced` also reports what the call leaves
allocated, its result included.
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("casembed", deadline=None, derandomize=True)
settings.load_profile("casembed")


def _traced(function, *args):
    """(result, bytes still allocated after the call, peak bytes allocated
    during it), both above the level at its start."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        level = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = function(*args)
        live, peak = tracemalloc.get_traced_memory()
        return result, live - level, peak - level
    finally:
        if started:
            tracemalloc.stop()


def _traced_peak(function, *args):
    """(result, peak bytes allocated during the call above the level at its start)."""
    result, _, peak = _traced(function, *args)
    return result, peak


@pytest.fixture()
def traced():
    return _traced


@pytest.fixture()
def traced_peak():
    return _traced_peak
