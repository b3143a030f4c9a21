"""The peak memory of one call, as tracemalloc traces it, for the tests' memory bounds."""

import tracemalloc


def traced_peak(call):
    """(call(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
