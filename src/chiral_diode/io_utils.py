"""Small deterministic output helpers shared by the table-writing modules.

Data files never contain timestamps or environment details, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import tempfile
from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_number", "write_csv"]

_BLOCK_ROWS = 1024  # rows per write; the cell strings of one block live together
_RANGE_BLOCKS = 16  # fewest blocks a forked range of write_csv is given


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


def _distinct(column, n_rows: int):
    """Sorted distinct float64 values of a full-size column, found one block
    at a time, or None as soon as there are more than ``_BLOCK_ROWS``.

    Sorting puts equal values side by side and every NaN last, so each run
    keeps its first value.  ``np.unique`` gives the same values, but its
    first call imports ``numpy.ma`` (15 ms and 1.3 MiB of resident memory
    with numpy 2.4).
    """
    distinct = np.empty(0)
    for i in range(0, n_rows, _BLOCK_ROWS):
        block = column.flat[i : i + _BLOCK_ROWS].astype(np.float64)
        a = np.sort(np.concatenate((distinct, block)))
        distinct = a[np.concatenate(([True], (a[1:] != a[:-1]) & ~np.isnan(a[:-1])))]
        if distinct.size > _BLOCK_ROWS:
            return None
    return distinct


def _column_cells(column, shape, n_rows: int):
    """Function from a block's first row to the column's cell strings in
    that block, by the rule :func:`write_csv` states."""
    if column.size < n_rows:
        strings = np.array(_format(column), dtype=object).reshape(column.shape)
        strings = np.broadcast_to(strings, shape)
        return lambda i: strings.flat[i : i + _BLOCK_ROWS].tolist()
    column = np.broadcast_to(column, shape)
    distinct = _distinct(column, n_rows)
    if distinct is None:
        return lambda i: _format(column.flat[i : i + _BLOCK_ROWS])
    strings = np.array(_format(distinct), dtype=object)
    return lambda i: strings[
        np.searchsorted(distinct, column.flat[i : i + _BLOCK_ROWS].astype(np.float64))
    ].tolist()


def _block_ranges(n_rows: int) -> list[tuple[int, int]]:
    """Row bounds ``(start, stop)`` of the contiguous block ranges that
    :func:`write_csv` splits a table into: one per CPU this process may run
    on, each of at least ``_RANGE_BLOCKS`` whole blocks (the last block may
    be short).  Without ``os.fork`` or ``os.sched_getaffinity`` there is one
    range."""
    n_blocks = -(-n_rows // _BLOCK_ROWS)
    cpus = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    n = max(1, min(cpus, n_blocks // _RANGE_BLOCKS))
    bounds = [min(k * n_blocks // n * _BLOCK_ROWS, n_rows) for k in range(n + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _write_rows(fh, cells, start: int, stop: int) -> None:
    """Encode rows ``[start, stop)`` into a binary file, one block at a time."""
    for i in range(start, stop, _BLOCK_ROWS):
        fh.write(("\n".join(map(",".join, zip(*(c(i) for c in cells)))) + "\n").encode())


def _fork_range(cells, start: int, stop: int):
    """Fork a child that writes rows ``[start, stop)`` into an unlinked
    temporary file and exits; return its pid and that file."""
    tmp = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except BaseException:
        tmp.close()
        raise
    if pid == 0:
        # the child leaves only by os._exit: no exit handler runs and no
        # buffer inherited from the parent (sys.stdout, the output) is flushed
        code = 1
        try:
            _write_rows(tmp, cells, start, stop)
            tmp.flush()
            code = 0
        except BaseException:
            import traceback

            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)
    return pid, tmp


def write_csv(path: str | os.PathLike, header: Sequence[str], columns: Iterable) -> None:
    """Write broadcast columns as CSV rows under a header line.

    Rows follow the C order of the broadcast shape (last axis fastest), so
    columns shaped ``a[:, None]``, ``b[None, :]`` give every ``b`` for the
    first ``a``, then for the next.  Every cell has the bytes of
    :func:`format_number`.  A column smaller than the table is formatted
    once at its own shape and its strings are broadcast.  A full-size
    column whose distinct values (after the float64 cast) fit in one block
    of ``_BLOCK_ROWS`` has each distinct value formatted once, and every
    block gathers its cells from those strings by value; any other
    full-size column is formatted in bulk, one block at a time.  Either way
    only one block of a full-size column's strings is alive at once.

    The table's blocks are split into contiguous ranges, one per CPU in
    ``os.sched_getaffinity(0)``, each of at least ``_RANGE_BLOCKS`` blocks;
    a small table, a single CPU or a platform without ``os.fork`` gives one
    range.  The calling process writes the header and the first range
    straight into the file.  Each further range is formatted by a forked
    child, which inherits the strings and distinct-value tables built
    above (so each value is still formatted once), streams its encoded
    rows into an unlinked temporary file and leaves by ``os._exit``.  The
    caller then waits for the children in row order and appends their
    files.  The bytes therefore do not depend on the CPU count, and there
    is no option to choose it.  Every child is waited for, or killed and
    waited for, before this returns or raises; a child that fails or is
    killed makes it raise :class:`OSError` naming the exit status.
    """
    columns = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    n_rows = math.prod(shape) if columns else 0
    cells = [_column_cells(c, shape, n_rows) for c in columns]
    first, *rest = _block_ranges(n_rows)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        children = []  # (pid, file) of each forked range; pid None once reaped
        try:
            for start, stop in rest:
                children.append(_fork_range(cells, start, stop))
            _write_rows(fh, cells, *first)
            for k, ((pid, tmp), (start, stop)) in enumerate(zip(children, rest)):
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                children[k] = (None, tmp)
                if code:
                    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                    raise OSError(f"{path}: the process writing rows {start}-{stop - 1} "
                                  f"failed ({how})")
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh)
        finally:
            for pid, tmp in children:
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                tmp.close()
