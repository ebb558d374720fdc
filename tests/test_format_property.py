"""Property test: the vectorized formatter writes "%.17g" of any 64-bit pattern."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from .test_harness import format17_text, percent_text


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
def test_format17_is_percent_17g(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert format17_text(values) == percent_text(values)
