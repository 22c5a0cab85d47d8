"""Traced memory of one call, for the tests' bounded-memory guards."""

import tracemalloc


def traced(fn):
    """(fn(), peak bytes above the start, bytes still held at the end)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, held - start
