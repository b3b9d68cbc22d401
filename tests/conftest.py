import tracemalloc

from hypothesis import settings

# Every run draws the same examples and writes no example database, so two
# runs of the suite test the same inputs and leave nothing in the checkout.
settings.register_profile("framepress", derandomize=True, database=None)
settings.load_profile("framepress")


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the result and the peak bytes
    ``tracemalloc`` saw allocated during the call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
