"""Grid sampling with a deterministic, order-preserving parallel map.

Points iterate row-major over (x, y, z) and the time axis varies fastest
in the emitted records; chunked evaluation over threads reproduces the
serial result bit for bit because every point is computed independently
by the same expressions.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["grid_points", "chunked_parallel_map"]

CHUNK = 2048


def grid_points(grid: dict):
    """(points (N,3) row-major over x,y,z; times array) from AxisSpec dict."""
    xs = grid["x"].values() if "x" in grid else np.array([0.0])
    ys = grid["y"].values() if "y" in grid else np.array([0.0])
    zs = grid["z"].values() if "z" in grid else np.array([0.0])
    ts = grid["t"].values() if "t" in grid else np.array([0.0])
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    return pts, ts


def chunked_parallel_map(func, points, threads: int = 1, chunk: int = CHUNK):
    """Apply func to row chunks of points, preserving order.

    func takes an (m, 3) array and returns an array of m rows along its
    first axis; the results are concatenated along that axis in index
    order regardless of thread count.
    """
    points = np.asarray(points)
    chunks = [points[i : i + chunk] for i in range(0, len(points), chunk)]
    if threads <= 1 or len(chunks) == 1:
        parts = [func(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(func, chunks))
    return np.concatenate(parts, axis=0) if parts else np.empty((0,))
