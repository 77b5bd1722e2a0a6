"""Traced memory of one call, for the memory-bound tests."""

import tracemalloc


def traced(fn):
    """fn() under tracemalloc: (its result, the bytes allocated during the
    call and still held when it returns, the peak bytes during the call)."""
    tracemalloc.start()
    try:
        result = fn()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, live, peak
