"""The table comparison of ``tools/same_bytes.py``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from same_bytes import compare_trees, table_difference  # noqa: E402

HEADER = "site,per_site,stderr\n"


@pytest.mark.parametrize("old, new, detail", [
    ("0,1.5,0.25\n", "0,1.5,0.5\n", "numeric fields differ: 1, the largest by 0.5 relative (line 2)"),
    # equal in value, so 0 relative, but a difference all the same
    ("0,1.5,0.0\n", "0,1.5,-0.0\n", "numeric fields differ: 1, the largest by 0 relative (line 2)"),
    ("0,1.5,-0.0\n1,2.0,nan\n", "0,1.5,0.0\n1,2.0,0.25\n",
     "numeric fields differ: 2, the largest by inf relative (line 3)"),
])
def test_table_difference(tmp_path, old, new, detail):
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    (tmp_path / "old" / "moments.csv").write_text(HEADER + old, encoding="utf-8")
    (tmp_path / "new" / "moments.csv").write_text(HEADER + new, encoding="utf-8")
    assert table_difference(tmp_path / "old" / "moments.csv",
                            tmp_path / "new" / "moments.csv") == detail
    assert compare_trees(tmp_path / "old", tmp_path / "new") == ([f"moments.csv: {detail}"], 1)
