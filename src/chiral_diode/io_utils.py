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


def write_csv(path: str | os.PathLike, header: Sequence[str], columns: Iterable) -> None:
    """Write broadcast columns as CSV rows under a header line.

    Rows follow the C order of the broadcast shape (last axis fastest), so
    columns shaped ``a[:, None]``, ``b[None, :]`` give every ``b`` for the
    first ``a``, then for the next.  Every cell is formatted by
    :func:`format_number`.
    """
    columns = np.broadcast_arrays(*columns)
    n_rows = columns[0].size if columns else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, n_rows, _BLOCK_ROWS):
            cells = [map(format_number, c.flat[i : i + _BLOCK_ROWS].tolist()) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
