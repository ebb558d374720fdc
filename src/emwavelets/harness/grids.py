"""Grid sampling with a deterministic, order-preserving parallel map.

Points iterate row-major over (x, y, z) and the time axis varies fastest
in the emitted records.  A sweep never holds its whole grid: each chunk
builds its points from their flat indices, and chunked_parallel_map yields
the chunks' results one at a time, in index order, so memory stays bounded
whatever the grid's size.  Evaluation over threads reproduces the serial
result bit for bit because every point is computed independently by the
same expressions.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

__all__ = ["grid_axes", "grid_points", "chunked_parallel_map"]


def grid_axes(grid: dict):
    """The x, y, z and t sample arrays of an AxisSpec dict; an axis left out is the single point 0."""
    return [grid[ax].values() if ax in grid else np.array([0.0]) for ax in "xyzt"]


def grid_points(axes, index: range):
    """(m, 3) points at a range of flat indices into the row-major x, y, z grid of axes: x slowest."""
    ijk = np.unravel_index(np.arange(index.start, index.stop), [len(a) for a in axes])
    return np.column_stack([a[i] for a, i in zip(axes, ijk)])


def chunked_parallel_map(func, items, chunk: int, threads: int = 1):
    """Yield func of each run of chunk consecutive items, in index order.

    With threads > 1 the runs are computed on a pool, threads at a time,
    and a batch is yielded once all of it is computed: at most threads
    results wait to be consumed, and no computation overlaps the consumer,
    whose Python work would otherwise contend with it for the interpreter
    lock.  Items fewer than threads chunks make threads shorter runs, so
    every thread has work.
    """
    chunk = max(1, min(chunk, -(-len(items) // threads)))
    parts = (items[i : i + chunk] for i in range(0, len(items), chunk))
    if threads <= 1:
        yield from map(func, parts)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as ex:
        while batch := list(islice(parts, threads)):
            yield from list(ex.map(func, batch))
