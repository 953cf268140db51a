"""Suite-wide hypothesis profile.

Property tests draw the same examples on every run (`derandomize`), so a
failure they find reproduces on every run rather than appearing at random.
Per-test `@settings` still choose their own `max_examples`.

`traced_peak` measures the memory a call allocates at its peak, as
tracemalloc sees it; numpy reports its array buffers to tracemalloc, so
the figure is deterministic.
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("casembed", deadline=None, derandomize=True)
settings.load_profile("casembed")


def _traced_peak(function, *args):
    """(result, peak bytes allocated during the call above the level at its start)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        level = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1] - level
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture()
def traced_peak():
    return _traced_peak
