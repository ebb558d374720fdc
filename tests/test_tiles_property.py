"""Property test: grids.tiles cuts any (outer, inner) grid into row-major tiles within the budget."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from emwavelets.harness.grids import tiles

COSTS = st.tuples(*[st.integers(0, 20)] * 4)


@given(st.integers(0, 40), st.integers(0, 40), st.integers(-5, 400), COSTS)
def test_tiles_cover_the_grid_in_order_within_the_budget(n_outer, n_inner, budget, cost):
    c_1, c_o, c_i, c_r = cost
    visited = []
    for rows, cols in tiles(n_outer, n_inner, budget, cost):
        m, k = rows.stop - rows.start, cols.stop - cols.start
        assert m >= 1 and k >= 1
        # a tile costs no more than the budget, or than one item where one item is over it
        assert c_1 + m * c_o + k * c_i + m * k * c_r <= max(budget, c_1 + c_o + c_i + c_r)
        # a tile shorter than the inner axis is one outer item high
        assert k == n_inner or m == 1
        visited += [(o, i) for o in range(rows.start, rows.stop) for i in range(cols.start, cols.stop)]
    # every (o, i) once, in row-major record order
    assert visited == [(o, i) for o in range(n_outer) for i in range(n_inner)]


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 400))
def test_default_cost_counts_items(n_outer, n_inner, budget):
    # with the default cost a tile is at most budget records, and whole rows when one row fits
    sizes = [(r.stop - r.start, c.stop - c.start) for r, c in tiles(n_outer, n_inner, budget)]
    assert all(m * k <= max(budget, 1) for m, k in sizes)
    if n_inner <= budget:
        assert sizes[0] == (min(n_outer, budget // n_inner), n_inner)
