"""Grid sampling, the one tiling rule, and a deterministic, order-preserving parallel map.

Points iterate row-major over (x, y, z), time fastest in the records.  The
sweeps and the writer cut every (outer, inner) grid by tiles, and a sweep
never holds its grid: a tile builds its points from their flat indices,
and chunked_parallel_map yields the tiles' results one at a time, in order,
so memory grows with neither axis.  Threads reproduce the serial result bit
for bit because every record is computed independently by the same expressions.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

__all__ = ["grid_axes", "grid_points", "tiles", "chunked_parallel_map"]


def grid_axes(grid: dict):
    """The x, y, z and t sample arrays of an AxisSpec dict; an axis left out is the single point 0."""
    return [grid[ax].values() if ax in grid else np.array([0.0]) for ax in "xyzt"]


def grid_points(axes, index: slice):
    """(m, 3) points at a slice of flat indices into the row-major x, y, z grid of axes: x slowest."""
    ijk = np.unravel_index(np.arange(index.start, index.stop), [len(a) for a in axes])
    return np.column_stack([a[i] for a, i in zip(axes, ijk)])


def tiles(n_outer: int, n_inner: int, budget: int, cost=(0, 0, 0, 1)):
    """Row-major (rows, cols) slices of an n_outer x n_inner grid, each costing at most max(budget, one item).

    cost is (per tile, per outer item, per inner item, per item): an (m, k) tile costs
    c_1 + m c_o + k c_i + m k c_r, by default its m k items.  A tile takes whole inner rows
    while one row fits, else one outer item's inner axis in slices; the first is the largest.
    """
    c_1, c_o, c_i, c_r = cost
    step = max(1, min(n_inner, (budget - c_1 - c_o) // max(c_i + c_r, 1)))
    per = 1 if step < n_inner else max(1, (budget - c_1 - step * c_i) // max(c_o + step * c_r, 1))
    for o in range(0, n_outer, per):
        for i in range(0, n_inner, step):
            yield slice(o, min(o + per, n_outer)), slice(i, min(i + step, n_inner))


def chunked_parallel_map(func, tiles, threads: int = 1):
    """Yield func of each of tiles, an iterable, in order.

    With threads > 1 the tiles are computed on a pool, threads at a time,
    and a batch is yielded once all of it is computed: at most threads
    results wait to be consumed, and no computation overlaps the consumer,
    whose Python work would otherwise contend with it for the interpreter
    lock.  The caller sizes the tiles so that every thread has work.
    """
    if threads <= 1:
        yield from map(func, tiles)
        return
    from concurrent.futures import ThreadPoolExecutor

    tiles = iter(tiles)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        while batch := list(islice(tiles, threads)):
            yield from list(ex.map(func, batch))
