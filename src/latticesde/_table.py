"""The text tables the package saves: a header line, then one row per line.

A row is its key fields (ints in decimal, or floats), then its float fields as
``repr``, joined by one separator; ``repr`` reads back to the same double.
"""

import numpy as np

_PARSE = {"i": int, "s": int, "f": float}


def write_table(path, header, blocks, sep=",") -> None:
    """Write ``header``, then each block ``(prefix, keys, *columns)`` with one ``write``.

    Row k of a block is ``prefix + keys[k]`` and the k-th float of each column;
    keys are pre-joined and end in ``sep``, so one list serves many blocks.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for prefix, keys, *columns in blocks:
            columns = [np.asarray(c, dtype=float).tolist() for c in columns]
            if len(columns) == 1:  # the large tables hold one float per row
                rows = [f"{prefix}{k}{v!r}\n" for k, v in zip(keys, columns[0])]
            else:
                rows = [f"{prefix}{k}{sep.join(map(repr, v))}\n" for k, *v in zip(keys, *columns)]
            fh.write("".join(rows))


def read_table(path, header, keys, n_values, sep=",", n_sites=None):
    """``(head, keys, values)`` of a table, as float arrays with one row per table row.

    ``header`` is the first line, or the kinds of a first line of values, then
    returned parsed.  ``keys`` holds the kind of each leading field ('i' an int,
    'f' a float, 's' a site index); ``n_values`` floats follow (None: the
    header's first value).  No two rows share their keys.  With a site key,
    each block of ``n_sites`` rows (None: all rows) lists every site once under
    the same other keys, and returns in site order.  Other tables raise ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        head, *lines = fh.read().split("\n")
    try:
        if not lines or lines.pop():
            raise ValueError("the last line has no newline: the table is cut short")
        if isinstance(header, tuple):
            head = tuple(_PARSE[k](f) for k, f in zip(header, head.split(sep), strict=True))
        elif head != header:
            raise ValueError(f"header {head!r}, expected {header!r}")
        kinds = keys + "f" * (head[0] if n_values is None else n_values)
        rows = [[_PARSE[k](f) for k, f in zip(kinds, line.split(sep), strict=True)] for line in lines]
        table = np.array(rows, dtype=float).reshape(len(rows), len(kinds))
        if len(np.unique(table[:, : len(keys)], axis=0)) < len(rows):
            raise ValueError("two rows share their keys")
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if "s" in keys and rows:
        n, s = len(rows) if n_sites is None else n_sites, keys.index("s")
        if not n or len(rows) % n:
            raise ValueError(f"{path}: {len(rows)} rows do not make blocks of {n} sites")
        blocks = table.reshape(-1, n, len(kinds))
        blocks = np.take_along_axis(blocks, np.argsort(blocks[:, :, s])[:, :, None], axis=1)
        others = np.delete(blocks[:, :, : len(keys)], s, axis=2)
        if np.any(blocks[:, :, s] != np.arange(n)) or np.any(others != others[:, :1]):
            raise ValueError(f"{path}: a block does not list each of its {n} sites once")
        table = blocks.reshape(table.shape)
    return head, table[:, : len(keys)], table[:, len(keys) :]
