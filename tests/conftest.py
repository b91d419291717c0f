import hypothesis

from sbdsim.geometry import CellGrid

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")

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
    return {cell: cfg._rows[cell, :k] for cell, k in enumerate(cfg._fill.tolist()) if k}


def insert_point(cfg, x, load=0):
    """Add the point ``x`` with ``load``, in quanta, through the calls a
    birth makes: ``_in_box`` wraps and files it, ``_insert`` stores it;
    return its id."""
    return cfg._insert(*cfg._in_box(x), load)


def file_on(cfg, radius):
    """File every row of the store for ``radius`` on the grid
    ``CellGrid.for_radius`` picks for it, as ``kernel_sums`` files a store
    for its cutoff."""
    return cfg._file(CellGrid.for_radius(cfg.torus, radius), radius)
