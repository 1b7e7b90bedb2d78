import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latticesde._table import read_table, write_table
from oracles import write_table_per_row

# the signed zeros, infinities, nan, subnormals and the magnitudes at which
# repr switches to an exponent (1e16 and 1e-5), then anything
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                     1e16, 9999999999999998.0, -1e16, 1e-5, 1.0000000000000001e-05, -1e-5]),
    st.floats(),
)


@st.composite
def tables(draw):
    """``(sep, blocks)``: 1-3 blocks of 0-40 rows, keyed by block and row, of one count of 0-3 columns."""
    sep = draw(st.sampled_from([",", " "]))
    n_columns = draw(st.integers(0, 3))
    blocks = []
    for b in range(draw(st.integers(1, 3))):
        n_rows = draw(st.integers(0, 40))
        keys = [f"{i}{sep}" if n_columns else f"{i}" for i in range(n_rows)]
        columns = [draw(arrays(float, n_rows, elements=FLOATS)) for _ in range(n_columns)]
        blocks.append((f"{b}{sep}", keys, *columns))
    return sep, blocks


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables())
def test_write_table_matches_the_per_row_writer(tmp_path, case):
    sep, blocks = case
    write_table(tmp_path / "got", "head", blocks, sep=sep)
    write_table_per_row(tmp_path / "want", "head", blocks, sep=sep)
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
    n_columns = len(blocks[0]) - 2
    values = np.array([v for _, keys, *columns in blocks for v in zip(*columns)] if n_columns else [])
    if np.all(np.isfinite(values)):
        _, keys, back = read_table(tmp_path / "got", "head", "ii", n_columns, sep=sep)
        assert keys.tolist() == [[b, i] for b, (_, rows, *_) in enumerate(blocks) for i in range(len(rows))]
        assert back.tobytes() == values.reshape(len(keys), n_columns).tobytes()


@pytest.mark.parametrize("keys, columns", [
    (["0,", "1,"], [[1.0, 2.0, 3.0]]),        # a row more than the keys
    (["0,", "1,", "2,"], [[1.0, 2.0]]),       # a row fewer: zip would drop key 2
    (["0,", "1,"], [[1.0, 2.0], [3.0]]),      # the second column short
])
def test_keys_and_columns_of_unequal_length_raise(tmp_path, keys, columns):
    with pytest.raises(ValueError, match="size"):
        write_table(tmp_path / "t.csv", "head", [("", keys, *columns)])


def test_block_of_no_columns_writes_prefix_and_key(tmp_path):
    write_table(tmp_path / "t.csv", "head", [("a", ["0", "1"]), ("b", ["2"]), ("c", [])])
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == "head\na0\na1\nb2\n"
