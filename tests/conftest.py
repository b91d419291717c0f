import hypothesis

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
    rows in order: a view into the cell's buffer, so a write through it
    changes the index."""
    return {cell: live for cell, (live, _) in cfg._cells.items()}
