"""Small deterministic output helpers shared by the table-writing modules.

Data files never contain timestamps or environment details, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import errno
import math
import os
import shutil
import signal
import tempfile
from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_number", "write_csv", "write_csv_tables"]

_BLOCK_ROWS = 8192  # cells a block formats; the cells of one block live together
_RANGE_BLOCKS = 2  # fewest blocks' worth of rows a share of write_csv_tables is given


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


def _trunc(a):
    """``np.trunc`` of magnitudes below 1e16, else 1e16: no signaling NaN warns."""
    return np.trunc(np.fmin(a, 1e16))


def _format(values) -> list[str]:
    """``format_number`` of every value, flattened in C order, in one pass.

    The values are cast to float64 as ``float(value)`` does and written by
    one ``map(repr)``; the finite integral ones below 1e16 (±0 included) are
    then rewritten as ``str`` of their int64.
    """
    a = np.asarray(values, dtype=np.float64).reshape(-1)
    cells = list(map(repr, a.tolist()))
    b = np.abs(a)
    ints = np.flatnonzero((b < 1e16) & (_trunc(b) == b))
    for k, v in zip(ints.tolist(), a[ints].astype(np.int64).tolist()):
        cells[k] = str(v)
    return cells


# A cell is _WIDTH bytes, right-aligned with NUL before it, then a comma.
# The fast path of _cells writes a cell as six four-byte words.
_WIDTH = 24  # the longest repr of a double, "-2.2250738585072014e-308"
_KERNEL_MIN = 200  # fewer values are written faster by one repr each
_P10 = np.array([float(10**k) for k in range(23)])  # exact: 5**22 < 2**53
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_MANTISSA = np.uint64(2**52 - 1)
# word j * 10**4 + v: the four digits of v with the first j bytes NUL;
# then the words "e-05" and "e-06"
_WORDS = np.append(
    np.where(np.arange(4) < np.arange(5)[:, None, None], np.uint8(0),
             np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))),
    np.frombuffer(b"e-05e-06", np.uint8)).view(np.uint32)
_EXPONENT = 50000
# _BLANK[s] turns the six digit words of a cell into words NUL before byte s
_BLANK = 10000 * np.clip(np.arange(_WIDTH + 1)[:, None] - np.arange(0, _WIDTH, 4), 0, 4)
# 10**j for the j fraction digits of a fixed-point cell; 10**18 exceeds every
# digit string, so none is split at j = 0 or beyond 17
_UNIT = np.concatenate(([10**18], _POW10[1:], [10**18] * 3))


def _split(a):
    """Veltkamp's split of doubles into halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_P10_HI, _P10_LO = _split(_P10)
# 10**(j - 1), but inf at j = 0: there a 15-digit candidate is an integer,
# which no value of _shortest reads as
_DIVISOR = np.concatenate(([np.inf], _P10))


def _scaled(a, k):
    """``(n, f)`` with ``n + f == a * 10**k`` exactly, ``n`` an int64 and
    ``0 <= f < 1``: Dekker's exact product of two doubles."""
    prod = a * _P10[k]
    ah, al = _split(a)
    hi, lo = _P10_HI[k], _P10_LO[k]
    err = ((ah * hi - prod) + ah * lo + al * hi) + al * lo
    whole = np.floor(err)
    return prod.astype(np.int64) + whole.astype(np.int64), err - whole


def _nearest(n, f, k: int):
    """The multiple of ``10**k`` nearest to ``n + f``, in units of ``10**k``,
    and whether ``n + f`` lies halfway."""
    q, r = np.divmod(n, 10**k)
    half = 10**k // 2
    return q + ((r > half) | ((r == half) & (f > 0))), (r == half) & (f == 0)


def _shortest(a):
    """Gay's shortest round-trip digits of doubles ``a`` in ``(1e-6, 1e16)``
    that are not integers or powers of two: ``(d, p, e, ok)``, where ``a``
    reads as the ``p`` digits of ``d`` times ``10**(e + 1 - p)``.  ``ok`` is
    False where the digits are not certain, an exact tie: either two
    nearest 16-digit candidates, or a 17-digit expansion ending in 5.

    A 16-digit candidate ``d16`` that is an odd integer above 2**53 is not
    a double, so the quotient check cannot certify it; there the exact
    distance ``|10 * d16 - (n + f)|`` is compared with half an ulp of ``a``
    times ``10**k``.  Both sides are exact doubles, and a candidate
    strictly inside that bound reads back."""
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    n, f = _scaled(a, k)
    # log10 may be one off next to a power of ten; then 10**16 <= n < 10**17 fails
    shift = (n < 10**16).astype(np.int64) - (n >= 10**17)
    off = np.flatnonzero(shift)
    if off.size:
        k[off] += shift[off]
        n[off], f[off] = _scaled(a[off], k[off])
    # Each candidate is checked by one correctly rounded quotient of exact
    # doubles (Clinger's fast path).  A candidate that reads back lies
    # within half an ulp, at most 11.1 units of n, of n + f.  With 15 digits
    # or fewer that makes it the nearest candidate at every shorter length
    # too, so the shortest is the 15-digit one without its trailing zeros.
    # Otherwise the shortest has 16 digits or 17, which always suffice; the
    # interval is symmetric (no power of two), so the nearest candidate
    # reads back if any does.
    d15, _ = _nearest(n, f, 2)
    d16, tie16 = _nearest(n, f, 1)
    ok15 = d15.astype(np.float64) / _DIVISOR[k - 1] == a
    # 10 * d16 - n is at most 5 and f a multiple of at least 2**-49: the
    # distance is exact, and so is half an ulp, 2**(exponent - 54), times
    # 10**k
    near16 = np.abs((10 * d16 - n) - f) < np.ldexp(_P10[k], np.frexp(a)[1] - 54)
    ok16 = (d16.astype(np.float64) / _DIVISOR[k] == a) | near16
    d = np.where(ok16, d16, n + (f > 0.5))
    p = 17 - ok16
    short = np.flatnonzero(ok15)
    # 10**j divides d15 < 2**53 exactly when d15 / 10**j rounds to an integer
    q = d15[short].astype(np.float64)[:, None] / _P10[1:15]
    zeros = np.count_nonzero(q == np.floor(q), axis=1)
    d[short] = d15[short] // _POW10[zeros]
    p[short] = 15 - zeros
    certain16 = (d16 <= 2**53) | (d16 % 2 == 0) | near16
    return d, p, 16 - k, ok15 | (certain16 & np.where(ok16, ~tie16, f != 0.5))


def _fast_cells(x):
    """The kernel's layout of the cells of float64 values ``x`` (1-D) and
    where it is right: for non-integral values in ``(1e-6, 1e16)`` whose
    significand is not a power of two, wherever :func:`_shortest` is
    certain.  The layout is ``(words, first, point, ok)``: the indices into
    ``_WORDS`` of the six words of each cell, NUL before the digits; the
    first byte of each cell, its sign included; and the byte that is the
    point, or ``_WIDTH`` (the comma) where there is none."""
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e16) & (_trunc(a) != a) & (x.view(np.uint64) & _MANTISSA != 0)
    d, p, e, ok = _shortest(np.where(fast, a, 0.5))  # 0.5 stands in for the others
    sci = e < -4
    lead = np.where(sci, 0, e)  # power of ten of the first digit as printed
    frac = p - 1 - lead  # digits after the point, 0 to 20
    # the digits with a 0 inserted where the point goes, at most 18
    d = 10 * d - 9 * (d % _UNIT[frac])
    words = np.empty((x.size, 6), np.intp)
    hi, lo = np.divmod(d, 10**8)
    words[:, 1], hi = np.divmod(hi, 10**8)
    words[:, 2], words[:, 3] = np.divmod(hi, 10**4)
    words[:, 4], words[:, 5] = np.divmod(lo, 10**4)
    words[:, 0] = 0
    exp = np.flatnonzero(sci)  # a scientific cell ends in its exponent word
    words[exp, :-1] = words[exp, 1:]
    words[exp, -1] = _EXPONENT + (e[exp] == -6)
    # first byte of the cell without its sign (at least 2), and NUL before it
    start = _WIDTH - (np.maximum(lead + 1, 1) + frac + (frac > 0) + 4 * sci)
    words += _BLANK.take(start, axis=0)
    point = np.where(frac > 0, _WIDTH - 1 - frac - 4 * sci, _WIDTH)
    return words, start - (x < 0), point, fast & ok


def _cells(values, slots=None) -> np.ndarray:
    """``format_number`` of every value as a cell: right-aligned in
    ``_WIDTH`` bytes, NUL before it, and then a comma.

    ``values`` is a ``(rows, columns)`` array, or of any other shape one
    column in C order.  All of them go to one kernel call.  Without
    ``slots`` the cells are the rows of a new ``(size, _WIDTH + 1)`` uint8
    array.  Otherwise ``slots(first)`` is given, for each column, the first
    byte any of its cells takes, and returns a C-contiguous ``(rows,
    width)`` uint8 buffer and, for each column, the byte of a row at which
    byte 0 of its cells lies; each cell is written there from its column's
    first byte on, and the buffer is returned.

    :func:`_fast_cells` lays out every cell; the values it leaves, and all
    of fewer than ``_KERNEL_MIN``, are written by ``_format``."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2:
        x = x.reshape(-1, 1)
    flat = x.reshape(-1)
    fast = flat.size >= _KERNEL_MIN
    if fast:
        words, first, point, done = _fast_cells(flat)
    else:
        first, done = np.full(flat.size, _WIDTH), np.zeros(flat.size, bool)
    slow = np.flatnonzero(~done)
    reprs = _format(flat[slow])
    first[slow] = np.minimum(first[slow], _WIDTH - np.fromiter(map(len, reprs), int, slow.size))
    lo = first.reshape(x.shape).min(axis=0, initial=_WIDTH)
    if slots is None:
        rows, base = np.zeros((flat.size, _WIDTH + 1), np.uint8), np.zeros(1, int)
    else:
        rows, base = slots(lo)
    cells = [rows[:, b + f : b + _WIDTH + 1] for b, f in zip(base.tolist(), lo.tolist())]
    if fast:
        digits = _WORDS.take(words).view(np.uint8).reshape(*x.shape, _WIDTH)
        for j, cell in enumerate(cells):
            _items(cell[:, :-1])[:] = _items(digits[:, j, lo[j] :])
        # byte 0 of each cell in the flat buffer; a missing point or sign
        # goes to the comma
        at = (np.arange(x.shape[0])[:, None] * rows.shape[1] + base).reshape(-1)
        neg = flat < 0
        rows.reshape(-1)[at + point] = np.where(point < _WIDTH, ord("."), ord(","))
        rows.reshape(-1)[at + np.where(neg, first, _WIDTH)] = np.where(neg, ord("-"), ord(","))
    text = "".join(s.rjust(_WIDTH, "\0") for s in reprs).encode()
    text = np.frombuffer(text, np.uint8).reshape(-1, _WIDTH)
    for j, cell in enumerate(cells):
        cell[:, -1] = ord(",")
        mine = slow % x.shape[1] == j
        cell[slow[mine] // x.shape[1], :-1] = text[mine, lo[j] :]
    return rows


def _distinct(flat, n_rows: int):
    """Sorted distinct float64 values of a full-size column, read by
    ``flat`` (see :func:`_flat`) one block at a time, or None as soon as
    there are more than ``_BLOCK_ROWS`` (8192).

    Sorting puts equal values side by side and every NaN last, so each run
    keeps its first value.  ``np.unique`` gives the same values, but its
    first call imports ``numpy.ma`` (15 ms and 1.3 MiB of resident memory
    with numpy 2.4).
    """
    distinct = np.empty(0)
    for i in range(0, n_rows, _BLOCK_ROWS):
        block = flat(slice(i, i + _BLOCK_ROWS)).astype(np.float64)
        a = np.sort(np.concatenate((distinct, block)))
        distinct = a[np.concatenate(([True], (a[1:] != a[:-1]) & ~np.isnan(a[:-1])))]
        if distinct.size > _BLOCK_ROWS:
            return None
    return distinct


def _flat(column):
    """Function from a slice of a full-size column's elements, in C order,
    to those elements.  A strided column, such as a sliding-window view, is
    read through the rows of its leading axis that the slice spans, by one
    strided copy of those few rows: far faster than ``.flat``, which copies
    element by element, and never the whole column.  Where a leading row is
    longer than a block, the slice is read inside the rows it spans, each
    row read as a column of its own."""
    if column.flags.c_contiguous:
        return column.reshape(-1).__getitem__
    unit = _unit(column.shape)

    def rows(r):
        i, j = r.start // unit, min(-(-r.stop // unit), column.shape[0])
        if unit <= _BLOCK_ROWS:
            return column[i:j].reshape(-1)[r.start - i * unit : r.stop - i * unit]
        return np.concatenate([_flat(column[k])(slice(max(r.start - k * unit, 0), r.stop - k * unit))
                               for k in range(i, j)])

    return rows


def _column_cells(column, shape, n_rows: int):
    """How :func:`write_csv` finds a column's cells: ``(values, index)``.
    With ``index`` a function, the cells in the rows ``rows`` (a slice) are
    those of ``values``, formatted once, at the positions ``index(rows)``.
    With ``index`` None, ``values`` is a function that returns the column's
    elements in the rows ``rows``, formatted a block at a time."""
    if column.size < n_rows:
        # each row's position in the column: the column's own positions,
        # broadcast to the table's shape without a copy
        return column, _flat(np.broadcast_to(np.arange(column.size).reshape(column.shape), shape))
    flat = _flat(np.broadcast_to(column, shape))
    distinct = _distinct(flat, n_rows)
    if distinct is None:
        return flat, None
    return distinct, lambda rows: np.searchsorted(distinct, flat(rows).astype(np.float64))


def _trim(cells):
    """Cells without the leading byte columns that are NUL in every row."""
    return cells[:, np.argmax(cells.any(axis=0)) :]


def _items(cells):
    """The rows of a 2-D uint8 array with a contiguous last axis as one
    void item each, which numpy copies as a whole."""
    return cells.view(np.dtype((np.void, cells.shape[1])))[:, 0]


def _table_cells(columns, shape, n_rows: int, make=None, n_made: int = 0):
    """``(block, step)`` of a table: ``block(start, stop)`` returns the
    table rows ``[start, stop)`` as a ``(rows, width)`` uint8 view of one
    buffer, allocated here, that holds the cells of every column side by
    side, each in a slot as wide as its widest cell in the block and NUL
    before the cells; ``step`` is the rows of a block (:func:`_step`).
    All values formatted once go to ``_cells`` here, a block of them per
    call so that the kernel's temporaries stay a block's, and their cells
    are trimmed once; all values of one block go to one ``_cells`` call,
    which lays out the slots from its cells' first bytes.

    With ``make``, ``shape`` is 2-D and ``columns`` are followed by
    ``n_made`` columns that ``make(rows, cols)`` returns for the block's
    part of the grid: its leading rows ``rows`` and its part ``cols`` of
    the second axis, all of it unless the block is part of one leading
    row (:func:`_blocks`)."""
    plans = [_column_cells(c, shape, n_rows) for c in columns]
    plans += [(None, None)] * n_made
    once = [k for k, (_, index) in enumerate(plans) if index is not None]
    each = [k for k, (_, index) in enumerate(plans) if index is None]
    tables = {}
    if once and n_rows:
        values = np.concatenate([np.ravel(plans[k][0]) for k in once])
        cells = np.empty((values.size, _WIDTH + 1), np.uint8)
        for i in range(0, values.size, _BLOCK_ROWS):
            cells[i : i + _BLOCK_ROWS] = _cells(values[i : i + _BLOCK_ROWS])
        bounds = np.cumsum([0] + [plans[k][0].size for k in once])
        # contiguous, since ``take`` copies a strided array whole first
        tables = {k: _items(np.ascontiguousarray(_trim(cells[a:b])))
                  for k, a, b in zip(once, bounds, bounds[1:])}
    widths = np.array([tables[k].itemsize if k in tables else _WIDTH + 1
                       for k in range(len(plans))], int)
    step = _step(_unit(shape) if make else 1, len(each))
    buf = np.empty(min(step, n_rows) * widths.sum(), np.uint8)

    def block(start, stop):
        rows = slice(start, stop)

        def slots(first):
            widths[each] = _WIDTH + 1 - first
            ends = np.cumsum(widths)
            out = buf[: (stop - start) * ends[-1]].reshape(-1, ends[-1])
            for k in once:
                _items(out[:, ends[k] - widths[k] : ends[k]])[:] = tables[k].take(plans[k][1](rows))
            return out, ends[each] - (_WIDTH + 1)

        values = [plans[k][0](rows) for k in each if k < len(columns)]
        if make:
            # whole leading rows, or part of the one leading row at start
            i, j = divmod(start, shape[1])
            if j or stop - start < shape[1]:
                lead, cols = slice(i, i + 1), slice(j, j + stop - start)
            else:
                lead, cols = slice(i, stop // shape[1]), slice(0, shape[1])
            values += [c.reshape(-1) for c in _made(make, lead, cols, n_made)]
        if not each:
            return slots(np.empty(0, int))[0]
        return _cells(np.stack(values, axis=1), slots)

    return block, step


def _made(make, rows: slice, cols: slice, n_made: int) -> list:
    """The ``n_made`` columns ``make(rows, cols)`` returns, broadcast to
    the shape of that part of a 2-D grid; a ValueError if they are more
    or fewer or do not broadcast."""
    made = [np.asarray(c) for c in make(rows, cols)]
    want = (rows.stop - rows.start, cols.stop - cols.start)
    own = np.broadcast_shapes(want, *(c.shape for c in made))
    if (len(made), own) != (n_made, want):
        raise ValueError(f"make of rows {rows.start}-{rows.stop - 1}, columns "
                         f"{cols.start}-{cols.stop - 1} gave {len(made)} columns "
                         f"broadcast to {own}, not {n_made} of shape {want}")
    return [np.broadcast_to(c, want) for c in made]


def _table_columns(columns):
    """``(columns, shape, rows)`` of a table for :func:`_table_cells`: its
    columns as arrays, their broadcast shape and its row count."""
    columns = [np.asarray(c) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    return columns, shape, math.prod(shape) if columns else 0


def _unit(shape) -> int:
    """Table rows in one row of the leading axis of ``shape``."""
    return max(math.prod(shape[1:]), 1)


def _step(unit: int, k: int) -> int:
    """Rows in a block that formats ``k`` columns, so that it formats at
    most ``_BLOCK_ROWS`` cells (one row, if ``k`` is larger): as many whole
    leading rows of ``unit`` table rows as fit, or, where one leading row
    holds more, ``_BLOCK_ROWS // k`` rows of it."""
    rows = max(_BLOCK_ROWS // max(k, 1), 1)
    return rows // unit * unit or rows


def _blocks(start: int, stop: int, step: int, unit: int):
    """The ``(start, stop)`` of each block of the table rows ``[start,
    stop)``: ``step`` rows each, the last maybe short, and where a leading
    row of ``unit`` table rows is longer than ``step``, none across the end
    of a leading row."""
    while start < stop:
        end = min(start + step, stop)
        if unit > step:
            end = min(end, start - start % unit + unit)
        yield start, end
        start = end


def _plan(header, columns, make=None):
    """``(rows, unit, step, plan)`` of a table for
    :func:`write_csv_tables`: its row count, the table rows in a leading
    row, the rows of a block (see :func:`_blocks`), and ``plan()``, which
    returns the table's cells by :func:`_table_cells`.  Given ``make``,
    ``columns`` are the grid, which sets the table's 2-D shape (a grid of
    fewer axes gains leading axes of one), and ``make`` gives the further
    columns.  A table that fits in one block is made by one ``make`` call
    in ``plan()`` and planned as if given as arrays, so a value it repeats
    is formatted once; any other table is planned here.  A table of
    arrays is planned here, with leading rows of one table row."""
    columns, shape, n_rows = _table_columns(columns)
    if make is None:
        cells, step = _table_cells(columns, shape, n_rows)
        return n_rows, 1, step, lambda: cells
    if len(shape) > 2:
        raise ValueError(f"the grid of a table given by make has at most 2 axes, got {shape}")
    shape = (1,) * (2 - len(shape)) + shape
    n_made, unit = len(header) - len(columns), _unit(shape)
    # a table of at most _BLOCK_ROWS rows gathers every grid column by value
    if n_rows > _step(unit, n_made):
        cells, step = _table_cells(columns, shape, n_rows, make, n_made)
        return n_rows, unit, step, lambda: cells
    return n_rows, unit, n_rows, lambda: _table_cells(
        [*columns, *_made(make, slice(0, shape[0]), slice(0, shape[1]), n_made)],
        shape, n_rows)[0]


def _block_ranges(*sizes: int, units: Sequence[int] = ()) -> list[tuple[int, int]]:
    """Row bounds ``(start, stop)`` of the shares that
    :func:`write_csv_tables` cuts tables of ``sizes`` rows into, counting
    the rows of all tables in order.  There is one share per CPU this
    process may run on, but no more than one per ``_RANGE_BLOCKS`` blocks'
    worth of rows (16,384) in all.  Of n shares over rows that fill m
    blocks, share k starts at the first block boundary of any table at or
    past ``k * m // n`` blocks' worth of rows; so one table is cut into
    ranges of at least ``_RANGE_BLOCKS`` whole blocks (the last block may
    be short).  ``units``, if given, holds for each table the rows that a
    boundary must not cut, such as a leading row: a boundary inside a
    table then moves on to the next multiple of them from the table's
    start, and a share this leaves empty is dropped.  Without
    ``os.fork`` or ``os.sched_getaffinity`` there is one share."""
    total = sum(sizes)
    n_blocks = -(-total // _BLOCK_ROWS)
    cpus = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    n = max(1, min(cpus, n_blocks // _RANGE_BLOCKS))
    firsts = np.cumsum((0, *sizes))
    # each share's first row at the least, below the total; the table that
    # holds it, and that table's first block boundary at or past it or,
    # if none, the next table's first row
    least = np.arange(1, n) * n_blocks // n * _BLOCK_ROWS
    k = np.searchsorted(firsts, least, side="right") - 1
    cuts = np.minimum(firsts[k] - (firsts[k] - least) // _BLOCK_ROWS * _BLOCK_ROWS, firsts[k + 1])
    if units:
        unit = np.asarray(units)[k]
        cuts = firsts[k] - (firsts[k] - cuts) // unit * unit
    bounds = [0, *cuts.tolist(), total]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b] or [(0, total)]


def _write_rows(fh, cells, blocks) -> None:
    """Write the rows of each ``(start, stop)`` of ``blocks`` into a
    binary file: the block's row buffer with its NUL bytes dropped and the
    last comma of each row made a newline."""
    for start, stop in blocks:
        rows = cells(start, stop)
        rows[:, -1] = ord("\n")
        fh.write(rows[rows != 0])


def _write_share(files, plans, share, tmp) -> None:
    """Write the ``(table, start, stop)`` parts of a share, each straight
    into its table's file when it starts the table, else into ``tmp``, and
    flush.  Each part's cells come from a call of its table's plan, a
    ``(unit, step, plan)`` triple, a block (:func:`_blocks`) at a time."""
    for k, start, stop in share:
        fh = tmp if start else files[k]
        unit, step, plan = plans[k]
        _write_rows(fh, plan(), _blocks(start, stop, step, unit))
        fh.flush()


def _fork_share(files, plans, share):
    """Fork a child that writes a share and exits; return its pid and the
    unlinked temporary file that takes the share's first part when that
    part does not start its table (else None)."""
    tmp = tempfile.TemporaryFile() if share[0][1] else None
    try:
        pid = os.fork()
    except BaseException:
        if tmp is not None:
            tmp.close()
        raise
    if pid == 0:
        # the child leaves only by os._exit: no exit handler runs and no
        # buffer inherited from the parent (sys.stdout) is flushed.  It
        # reports running out of memory by its exit status alone, and any
        # other error by one line, without a traceback.
        code = 1
        try:
            _write_share(files, plans, share, tmp)
            code = 0
        except MemoryError:
            code = errno.ENOMEM
        except BaseException as exc:
            os.write(2, f"{type(exc).__name__}: {exc}\n".encode())
        finally:
            os._exit(code)
    return pid, tmp


def _keep_block_heap() -> None:
    """Let glibc's malloc keep a block's temporaries from block to block.

    glibc serves a request of 128 KiB or more by ``mmap`` and, each time it
    frees such a chunk of up to 32 MiB, raises that threshold to the
    chunk's size and trims the heap only when twice as much lies free at
    its top.  A table made a block at a time frees no chunk larger than a
    block's, so each block's few MiB of temporaries would be trimmed and
    come back as fresh pages: ~900 page faults a block, 10-25 % of the
    time of a ``single`` sweep.  One untouched 4 MiB chunk, freed at once,
    sets the thresholds that a whole-table temporary used to set, and the
    heap then keeps up to 8 MiB.  It costs nothing with another
    allocator."""
    np.empty(4 << 20, np.uint8)


def write_csv_tables(tables: Iterable[tuple]) -> None:
    """Write each ``(path, header, columns)`` of ``tables`` as
    :func:`write_csv` does, the tables split across the CPUs together.

    Every cell has the bytes of :func:`format_number`.  A table's columns
    broadcast together and its rows are made a block at a time, so the
    writer's memory stays flat for any table size.  A block formats at
    most ``_BLOCK_ROWS`` (8192) cells: a table whose blocks format k
    columns takes 8192 // k rows per block (8192 for k = 0), so the
    kernel's temporaries, ~170 bytes a value, stay one block's.  A column
    smaller than the table (a scalar, ``gamma1[:, None]``, ``x[None, :]``)
    is formatted once at its own shape and its cells are broadcast.  A
    full-size column whose distinct values (after the float64 cast) fit
    in 8192, such as the grid columns of ``sweep_single``'s rows or the
    Toeplitz and Hankel maps of ``twomap``, has each distinct value
    formatted once, and every block gathers its cells from those by
    value.  Any other full-size column is formatted in bulk, one block at
    a time, all such columns of a block in one ``_cells`` call; these are
    the k columns of the budget.  A full-size column that is a strided
    view, like ``twomap``'s gathered maps, is read a block at a time and
    never copied whole.  So no cell is made twice for one input element.
    The block size sets how often the kernel's ~100 numpy calls, each
    gather and the NUL drop pay their fixed cost; it changes no byte.

    Cells are byte rows, not strings.  ``_cells`` writes the repr of whole
    arrays of non-integral values with ``1e-6 < |x| < 1e16`` by a numpy
    kernel: it takes each value's exact decimal expansion from a Dekker
    product and checks each candidate digit string with one correctly
    rounded division (Clinger's fast path).  A 16-digit candidate that is
    an odd integer above 2**53 is not a double; it is certified instead by
    comparing its exact distance from the expansion with half an ulp.
    Integers, other magnitudes, non-finite values, powers of two, exact
    ties and batches of fewer than ``_KERNEL_MIN`` (200) values go to
    ``repr``: 0.03-0.6 % of the values of the 401 x 401 figure maps.
    Each block goes into one row buffer, allocated once per table, with a
    slot per column as wide as the column's widest cell in the block; the
    kernel and the gathers write their cells straight into the slots, the
    last comma of each row becomes a newline, and the buffer's NUL padding
    is dropped on the way to the file.

    A table may instead be ``(path, header, columns, make)``.  Its
    ``columns`` are arrays, the grid, whose broadcast shape is the
    table's; it has at most two axes, and a grid of fewer gains leading
    axes of one.  ``make(rows, cols)`` takes a slice of the table's
    leading axis and one of its second axis and returns the further
    columns of that part of the grid alone, each broadcasting to
    ``(rows, cols)``; its columns count towards k.  Each block of such a
    table spans whole leading rows, as many as fit in its 8192 // k rows,
    or, where one leading row is longer, 8192 // k rows of that row, and
    ``make`` is called once per block, for the block's part of the grid,
    by the process that writes it.  So no cell is made twice, in one
    process or in two, and a table's values never exist whole: a process
    holds one block's values.  A table of one block is made by one call
    and written as if given as arrays.  Every other table is planned in
    this process before any fork, so each value formatted once, a grid's
    included, is formatted here, and the children inherit its cells.  A
    grid column formatted once, such as ``x[None, :]`` of a table with
    several leading rows, still holds its cells: O(its length) memory.

    Every file is opened and gets its header, flushed, before any fork or
    call of ``make``: a path that cannot be written raises with no child
    started.  The blocks of all tables, taken in order, are cut into
    contiguous shares by :func:`_block_ranges`: one per CPU in
    ``os.sched_getaffinity(0)``, each of at least ``_RANGE_BLOCKS`` times
    8192 rows (16,384), so tables that small in all, a single CPU or a
    platform without ``os.fork`` give one share.  This process writes the
    first share and a forked child each further one; the child inherits
    the open files and leaves by ``os._exit``.  A table that a share holds
    from its first row is written straight into its file; the rows that a
    share boundary cuts off a table go to an unlinked temporary file,
    which this process appends in row order once the children before have
    finished.  A boundary inside a table given by ``make`` moves on to its
    next leading row, unless leading rows are longer than a block: then
    it stays where it falls, each process makes its own part of the row
    it cuts, and a single long row still spreads over the CPUs.  The
    bytes therefore do not depend on the CPU count, and there is no
    option to choose it.

    Every child is waited for, or killed and waited for, before this
    returns or raises.  A child that runs out of memory makes it raise
    :class:`MemoryError`, and one that fails otherwise or is killed
    :class:`OSError`, naming the files and rows the child wrote; the
    child writes nothing but the one line of an error other than
    :class:`MemoryError` to stderr.  A write that fails leaves every file
    with its header and the rows written before the failure, so a
    ``make`` that raises leaves its table's file with the header alone.
    """
    _keep_block_heap()
    paths, headers, plans, sizes, units = [], [], [], [], []
    for path, header, columns, *make in tables:
        n_rows, unit, step, plan = _plan(header, columns, *make)
        paths.append(path)
        headers.append(header)
        plans.append((unit, step, plan))
        sizes.append(n_rows)
        # a share boundary cuts a leading row only where blocks do
        units.append(unit if unit <= step else 1)
    firsts = np.cumsum([0, *sizes]).tolist()
    # the (table, start, stop) parts of the tables in each share
    first, *rest = [
        [(k, max(a - o, 0), min(b - o, n)) for k, (o, n) in enumerate(zip(firsts, sizes))
         if o < b and a < o + n]
        for a, b in _block_ranges(*sizes, units=units)
    ]
    files = []
    children = []  # (pid, file) of each forked share; pid None once reaped
    try:
        for path, header in zip(paths, headers):
            files.append(open(path, "wb"))
            files[-1].write((",".join(header) + "\n").encode())
            files[-1].flush()
        for share in rest:
            children.append(_fork_share(files, plans, share))
        _write_share(files, plans, first, None)
        for i, ((pid, tmp), share) in enumerate(zip(children, rest)):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children[i] = (None, tmp)
            if code:
                parts = ", ".join(f"{paths[k]} rows {a}-{b - 1}" for k, a, b in share)
                if code == errno.ENOMEM:
                    raise MemoryError(f"in the process writing {parts}")
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise OSError(f"the process writing {parts} failed ({how})")
            if tmp is not None:
                tmp.seek(0)
                shutil.copyfileobj(tmp, files[share[0][0]])
    finally:
        for pid, tmp in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            if tmp is not None:
                tmp.close()
        for fh in files:
            fh.close()


def write_csv(path: str | os.PathLike, header: Sequence[str], columns: Iterable,
              make=None) -> None:
    """Write broadcast columns as CSV rows under a header line.

    Rows follow the C order of the broadcast shape (last axis fastest), so
    columns shaped ``a[:, None]``, ``b[None, :]`` give every ``b`` for the
    first ``a``, then for the next.  With ``make``, a function of a slice
    of leading rows and one of the second axis, the rows' further columns
    are made a block at a time, each block at most ``_BLOCK_ROWS`` (8192)
    formatted cells.  This is
    :func:`write_csv_tables` of the one table, which says how the cells
    are made and written.
    """
    write_csv_tables([(path, header, columns, make)])
