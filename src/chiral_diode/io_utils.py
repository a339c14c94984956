"""Small deterministic output helpers shared by the table-writing modules.

Data files never contain timestamps or environment details, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_number", "write_csv"]

_BLOCK_ROWS = 1024  # rows per write; the cell strings of one block live together


def format_number(value) -> str:
    """Shortest decimal string that round-trips the float exactly.

    Python's repr of a float is the shortest string that parses back to the
    same double, which always carries at least 12 significant digits of
    information; integers are kept compact.
    """
    x = float(value)
    if math.isfinite(x) and x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _format(values) -> list[str]:
    """``format_number`` of every value, flattened in C order, in one pass.

    The values are cast to float64 as ``float(value)`` does and written by
    one ``map(repr)``; the finite integral ones below 1e16 (±0 included) are
    then rewritten as ``str`` of their int64.
    """
    a = np.asarray(values, dtype=np.float64).reshape(-1)
    cells = list(map(repr, a.tolist()))
    ints = np.flatnonzero(np.isfinite(a) & (np.trunc(a) == a) & (np.abs(a) < 1e16))
    for k, v in zip(ints.tolist(), a[ints].astype(np.int64).tolist()):
        cells[k] = str(v)
    return cells


def write_csv(path: str | os.PathLike, header: Sequence[str], columns: Iterable) -> None:
    """Write broadcast columns as CSV rows under a header line.

    Rows follow the C order of the broadcast shape (last axis fastest), so
    columns shaped ``a[:, None]``, ``b[None, :]`` give every ``b`` for the
    first ``a``, then for the next.  Every cell has the bytes of
    :func:`format_number`, and no input value is formatted twice: a column
    smaller than the table is formatted once at its own shape and its
    strings are broadcast; a full-size column is formatted in bulk, one
    block of ``_BLOCK_ROWS`` rows at a time, so only one block of its
    strings is alive at once.
    """
    columns = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    n_rows = math.prod(shape) if columns else 0
    once = [c.size < n_rows for c in columns]
    columns = [
        np.broadcast_to(np.array(_format(c), dtype=object).reshape(c.shape) if o else c, shape)
        for c, o in zip(columns, once)
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, n_rows, _BLOCK_ROWS):
            block = [c.flat[i : i + _BLOCK_ROWS] for c in columns]
            cells = [b.tolist() if o else _format(b) for b, o in zip(block, once)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
