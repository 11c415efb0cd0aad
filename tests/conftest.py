"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(run):
    """``run()``'s result and the peak bytes that tracemalloc traced while it
    ran."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
