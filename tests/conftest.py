import signal
import threading

import hypothesis
import pytest

from sbdsim.geometry import CellGrid, CellIndex

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")

# A test that runs longer than this, in seconds of wall time, fails, so that a
# hang, such as a death draw that never keeps a row, fails one test instead
# of stalling the suite; the slowest test takes about a tenth of it
TEST_SECONDS = 120


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_SECONDS.  Not an ``Exception``, so that
    hypothesis stops at once instead of shrinking an example that hangs."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test once it has run TEST_SECONDS, by an ``ITIMER_REAL``
    alarm, where ``signal.setitimer`` exists and the test runs in the main
    thread; elsewhere it runs unbounded."""
    in_main = threading.current_thread() is threading.main_thread()
    if not (hasattr(signal, "setitimer") and in_main):
        yield
        return

    def overrun(signum, frame):
        raise TimeLimitExceeded(f"the test ran past its time limit of {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# numpy's Python-level wrappers around its C entry points, such as np.cumsum,
# np.take, np.argsort, np.append, np.diff, np.interp, ndarray.sum and
# ndarray.any: the one list that every lock test on numpy calls watches
NUMPY_WRAPPER_FILES = (
    "numpy/_core/fromnumeric.py",
    "numpy/_core/_methods.py",
    "numpy/lib/_function_base_impl.py",
)


def live_rows(cfg):
    """Each occupied cell of the store's index, with the array of its live
    rows in order: a view of its filled slots in the row buckets, so a
    write through it changes the index."""
    index = cfg.upkeep
    return {cell: index._rows[cell, :k] for cell, k in enumerate(index._fill.tolist()) if k}


def insert_point(cfg, x, load=0):
    """Add the point ``x`` with ``load``, in quanta, through the calls a
    birth makes: ``_in_box`` wraps and files it, ``_insert`` stores it;
    return its id."""
    return cfg._insert(*cfg._in_box(x), load)


def file_on(cfg, radius, kernel=None, grid=None):
    """Switch the store to a ``CellIndex`` that keeps its loads for
    ``kernel``, a- in quanta, filed for ``radius`` on ``grid``, by default
    the grid ``CellGrid.for_radius`` picks for it, as ``build_loads`` files
    a store past one block for the cutoff; return the index."""
    cfg.upkeep = index = CellIndex(cfg, kernel)
    index._file(cfg, grid or CellGrid.for_radius(cfg.torus, radius), radius)
    return index


class Scripted:
    """Stands in for ``dynamics.BlockDraws``: hands out ``rows`` in order,
    each below the n it is asked for, and records each n in ``asked``."""

    def __init__(self, *rows):
        self.rows, self.asked = list(rows), []

    def row(self, n, rng):
        self.asked.append(n)
        row = self.rows.pop(0)
        assert 0 <= row < n
        return row


def draw_from(cfg, *trials):
    """The row ``cfg.sample_row`` keeps from the scripted ``trials``, each a
    (row, target) pair, after checking that each trial asks for a row below
    the population and a target below the load bound, and that the draw
    takes every trial."""
    draws = Scripted(*(v for trial in trials for v in trial))
    row = cfg.sample_row(draws, None)
    assert draws.asked == [len(cfg), cfg.bound] * len(trials) and not draws.rows
    return row
