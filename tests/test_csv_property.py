"""Property test: write_csv writes np.savetxt's bytes of any block of broadcast columns, formatting each once."""

import io
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from emwavelets.harness import _format, datasets

from .test_harness import SPECIAL, records, savetxt_csv

# NaN payloads beside SPECIAL's quiet NaNs: a signalling NaN and quiet ones with payload bits, of both signs
PAYLOADS = np.array([0x7FF0000000000001, 0xFFF0000000000001, 0x7FF8000000000123, 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64).view(np.float64)
DOUBLES = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64))


@st.composite
def column_blocks(draw):
    """A block of 1-8 columns shaped (m, 1), (1, k), (m, k) or (1, 1), at most m k 8 <= VALUE_BUDGET values."""
    m, k = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    shapes = draw(st.lists(st.sampled_from([(m, 1), (1, k), (m, k), (1, 1)]), min_size=1, max_size=8))
    pool = np.concatenate([SPECIAL, PAYLOADS, draw(DOUBLES)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [rng.choice(pool, shape) for shape in shapes]


@given(column_blocks())
def test_write_csv_is_savetxt_of_the_broadcast_records(block):
    header = [f"c{i}" for i in range(len(block))]
    buf = io.BytesIO()
    with mock.patch.object(datasets, "format17", wraps=_format.format17) as spy:
        assert datasets.write_csv(buf, header, [block]) == records(block)[..., 0].size
    assert buf.getvalue().decode("ascii") == savetxt_csv(header, records(block).reshape(-1, len(block)))
    # the block fits one call, which formats each column once, at its own shape
    assert [call.args[0].size for call in spy.call_args_list] == [sum(c.size for c in block)]
