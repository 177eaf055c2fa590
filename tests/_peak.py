"""Peak memory of one call, for the tests that bound a function's temporaries."""

import tracemalloc


def traced_peak(call, *args):
    """Return (call(*args), peak bytes allocated while it ran).

    Only allocations made after tracing starts count, so the arguments,
    built beforehand, are not part of the peak; the result is.
    """
    tracemalloc.start()
    try:
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
