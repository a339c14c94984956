"""The CSV writer: broadcast columns in, the bytes of a row-by-row
``format_number`` join out, for any table size and CPU count."""

import functools
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from chiral_diode import (
    Direction,
    TwoPhotonField,
    TwoPhotonIn,
    WorkingAreaCase,
    cli,
    io_utils,
    make_params,
    map_two_photon,
    sweep_single,
    write_map_csv,
    write_sweep_csv,
)
from chiral_diode.io_utils import format_number, write_csv
from chiral_diode.single_photon import SWEEP_HEADER, sweep_columns

BLOCK = io_utils._BLOCK_ROWS


def row_wise(header, rows) -> bytes:
    """Reference file: one ``format_number`` join per row."""
    lines = [",".join(header)] + [",".join(map(format_number, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def written(tmp_path, header, columns) -> bytes:
    path = tmp_path / "table.csv"
    write_csv(path, header, columns)
    return path.read_bytes()


def test_first_column_varies_slowest_under_broadcast(tmp_path):
    a = np.array([0.5, -1.25, 3.0])
    b = np.linspace(0.0, 1.0, 7)
    m = a[:, None] * np.exp(b)[None, :]
    rows = [(a[i], b[j], m[i, j]) for i in range(a.size) for j in range(b.size)]
    header = ("a", "b", "m")
    assert written(tmp_path, header, (a[:, None], b[None, :], m)) == row_wise(header, rows)


def test_scalar_column_repeats_on_every_row(tmp_path):
    b = np.array([0.1, 0.2, 0.3])
    rows = [(2.5, v) for v in b]
    assert written(tmp_path, ("s", "b"), (2.5, b)) == row_wise(("s", "b"), rows)


def test_special_floats(tmp_path):
    values = [1.0, -0.0, 0.0, -3.0, 1e15, 1e16, 2.5, 0.1 + 0.2, 1e-300,
              5e-324, np.inf, -np.inf, np.nan, -1.7976931348623157e308]
    data = written(tmp_path, ("v", "w"), (values, np.negative(values)))
    assert data == row_wise(("v", "w"), zip(values, np.negative(values)))
    lines = data.decode().splitlines()
    assert lines[1:3] == ["1,-1", "0,0"]
    assert lines[11:14] == ["inf,-inf", "-inf,inf", "nan,nan"]


def test_int_and_bool_columns(tmp_path):
    ints = np.arange(-3, 4)
    big = [2**40, -(2**52), 0, 7, 1, 2, 3]
    flags = np.array([True, False, True, True, False, False, True])
    data = written(tmp_path, ("i", "big", "flag"), (ints, big, flags))
    assert data == row_wise(("i", "big", "flag"), zip(ints, big, flags))
    assert data.decode().splitlines()[1] == "-3,1099511627776,1"


@pytest.mark.parametrize("columns", [
    (np.empty(0), np.empty(0)),
    (np.empty((0, 1)), np.arange(3.0)),
    (),
], ids=["empty_columns", "empty_broadcast", "no_columns"])
def test_empty_table_is_the_header_alone(tmp_path, columns):
    assert written(tmp_path, ("x", "y"), columns) == b"x,y\n"


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_tables_around_one_block(tmp_path, extra):
    n = io_utils._BLOCK_ROWS + extra
    x = np.linspace(-1.0, 1.0, n)
    rows = list(zip(np.arange(n), x, x**3))
    data = written(tmp_path, ("k", "x", "x3"), (np.arange(n), x, x**3))
    assert data == row_wise(("k", "x", "x3"), rows)
    assert data.count(b"\n") == n + 1


def test_several_blocks_of_a_broadcast_map(tmp_path):
    x = np.linspace(-2.0, 2.0, 41)
    m = np.cos(x[:, None] - x[None, :])
    rows = [(x[i], x[j], m[i, j]) for i in range(x.size) for j in range(x.size)]
    header = ("x1", "x2", "m")
    assert written(tmp_path, header, (x[:, None], x[None, :], m)) == row_wise(header, rows)


SPECIAL = np.array([0.0, -0.0, 1.0, -3.0, 1e15, -1e15, 1e16, -1e16, 9007199254740993.0,
                    2.0**60, 0.1 + 0.2, 1e-300, 5e-324, -5e-324, np.inf, -np.inf, np.nan,
                    -1.7976931348623157e308])


def random_column(rng, shape):
    """Random doubles over many decades, some replaced by the special values
    above or by small integers; now and then an int64 or bool column."""
    n = int(np.prod(shape))
    kind = rng.integers(8)
    if kind == 0:
        return rng.integers(-(2**62), 2**62, n).reshape(shape)
    if kind == 1:
        return (rng.random(n) < 0.5).reshape(shape)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    pick = rng.random(n) < 0.3
    a[pick] = rng.choice(SPECIAL, size=pick.sum())
    whole = rng.random(n) < 0.15
    a[whole] = rng.integers(-1000, 1000, whole.sum())
    return a.reshape(shape)


# column shapes of one table, from random sizes n, m and p: scalars,
# ``(n, 1)``, ``(1, m)``, full ``(n, m)`` and 3-D broadcasts
LAYOUTS = {
    "scalar": lambda n, m, p: [(), (n,), ()],
    "column": lambda n, m, p: [(n, 1), (n, m)],
    "row": lambda n, m, p: [(1, m), (n, m), ()],
    "map": lambda n, m, p: [(n, 1), (1, m), (n, m), (n, m)],
    "cube": lambda n, m, p: [(p, 1, 1), (1, n, 1), (1, 1, m), (n, m), (p, n, m)],
    "zero_rows": lambda n, m, p: [(0, 1), (1, m), (0, m)],
    "one_block": lambda n, m, p: [
        (16, 1), (1, io_utils._BLOCK_ROWS // 16), (16, io_utils._BLOCK_ROWS // 16)],
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_random_broadcast_layouts_match_the_row_wise_join(tmp_path, layout):
    rng = np.random.default_rng(list(layout.encode()))
    for _ in range(12):
        shapes = LAYOUTS[layout](*rng.integers(1, 60, 2), rng.integers(1, 5))
        columns = [random_column(rng, s) for s in shapes]
        header = [f"c{k}" for k in range(len(columns))]
        rows = zip(*(b.ravel() for b in np.broadcast_arrays(*columns)))
        assert written(tmp_path, header, columns) == row_wise(header, rows)


# The fast path of _cells, checked cell by cell against format_number

def assert_cells_are_format_number(values):
    """The cells of ``_cells``, the kernel's where it is certain and
    ``repr``'s elsewhere, their commas included, against one
    ``format_number`` join, 2**16 values at a time."""
    values = np.asarray(values, dtype=np.float64).ravel()
    for i in range(0, values.size, 2**16):
        chunk = values[i : i + 2**16]
        cells = io_utils._cells(chunk)
        want = "".join(format_number(v) + "," for v in chunk.tolist()).encode()
        if cells[cells != 0].tobytes() != want:
            got = [c[c != 0].tobytes().decode()[:-1] for c in cells]
            bad = [(v, g) for v, g in zip(chunk.tolist(), got) if g != format_number(v)]
            pytest.fail(f"{len(bad)} cells differ from format_number, e.g. {bad[:5]}")


def neighbours(values, steps=4):
    """Each value and its ``steps`` nearest doubles either way, both signs."""
    out = [np.asarray(values, dtype=np.float64)]
    for toward in (np.inf, -np.inf):
        v = out[0]
        for _ in range(steps):
            with np.errstate(over="ignore"):
                v = np.nextafter(v, toward)
            out.append(v)
    out = np.concatenate(out)
    return np.concatenate((out, -out))


def test_cells_of_random_bit_patterns():
    rng = np.random.default_rng(20240817)
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64)
    # the exponent field drawn from the binades around [1e-6, 1e16), where
    # the fast path works; sign and significand bits at random
    exponent = rng.integers(1001, 1079, bits.size, dtype=np.uint64)
    near = (bits & np.uint64(0x800FFFFFFFFFFFFF)) | (exponent << np.uint64(52))
    assert_cells_are_format_number(near.view(np.float64))
    anywhere = bits[: 2 * 10**5].view(np.float64)
    assert_cells_are_format_number(anywhere[np.isfinite(anywhere)])


def test_cells_at_the_fast_path_boundaries():
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-7, 18)])
    assert_cells_are_format_number(neighbours(powers_of_ten))
    powers_of_two = 2.0 ** np.arange(-40, 64)
    assert_cells_are_format_number(neighbours(powers_of_two, steps=2))
    assert_cells_are_format_number(neighbours([2.0**53, 2.0**54], steps=64))


def test_cells_of_16_and_17_digit_halfway_values():
    # integers near 2**49..2**53 plus eighths: exact decimals whose 16- or
    # 17-digit neighbours both read back, which repr rounds to even
    rng = np.random.default_rng(7)
    whole = np.concatenate([rng.integers(2**k, 2 ** (k + 1), 4000) for k in range(45, 53)])
    halves = whole + rng.integers(1, 8, whole.size) / 8.0
    assert_cells_are_format_number(np.concatenate((halves, -halves)))


def test_cells_of_special_values():
    subnormal = np.random.default_rng(3).integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                2.225073858507201e-308, 1.7976931348623157e308, 0.1 + 0.2, 1.5e-5]
    assert_cells_are_format_number(np.concatenate((neighbours(specials, 1), subnormal)))


@pytest.fixture
def to_repr(monkeypatch):
    """``to_repr()`` reads how many values the cells so far sent to
    ``_format``."""
    sent = []
    bulk = io_utils._format

    def counting(values):
        sent.append(np.size(values))
        return bulk(values)

    monkeypatch.setattr(io_utils, "_format", counting)
    return lambda: sum(sent)


def odd_16_digit_decimals(rng, n):
    """The doubles nearest odd 16-digit integers above 2**53 times 10**-k,
    k from 4 to 21, and their neighbours one ulp either way.  (With k below
    4 the doubles are multiples of 2**-3 to 2**-9, and up to 40 % of them
    lie halfway between two 16-digit decimals: true ties, left to repr.)"""
    digits = 2 * rng.integers(2**52, 5 * 10**15, n) + 1
    k = rng.integers(4, 22, n)
    v = np.array([float(f"{d}e-{j}") for d, j in zip(digits.tolist(), k.tolist())])
    return np.concatenate((v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)))


def test_16_digit_candidates_above_2_53_are_certified(to_repr):
    # the 16-digit candidate of each odd decimal lies above 2**53, where it
    # is not a double; uniform draws need 16 and 17 digits alike
    rng = np.random.default_rng(2**53)
    values = np.concatenate((odd_16_digit_decimals(rng, 20000), rng.random(20000),
                             rng.uniform(0.9007, 1.0, 20000)))
    assert_cells_are_format_number(values)
    assert to_repr() <= 0.01 * values.size, to_repr()


@pytest.mark.parametrize("n", [3, io_utils._KERNEL_MIN], ids=["repr", "kernel"])
def test_signaling_nan_cells_warn_nothing(n):
    bits = np.array([0x7FF0000000000001, 0xFFF0000000000001, 0x7FF4000000000000], np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = io_utils._cells(np.resize(bits, n).view(np.float64))
    assert cells[cells != 0].tobytes() == b"nan," * n


@pytest.fixture
def counts(monkeypatch):
    """The number of values given to ``_cells`` and to ``_format``, in this
    process (one CPU)."""
    cpus(monkeypatch, 1)
    counts = {"_cells": 0, "_format": 0}
    for name in counts:
        def counting(values, *args, bulk=getattr(io_utils, name), name=name):
            counts[name] += np.size(values)
            return bulk(values, *args)
        monkeypatch.setattr(io_utils, name, counting)
    return counts


def test_fig4_panels_take_the_fast_path(counts, tmp_path):
    # at most a hundredth of the values of a 401 x 401 fig4 panel go to repr
    gamma1 = np.linspace(0.0, 1.0, 401)[:, None]
    x = np.linspace(0.0, 4.0, 401)
    params = cli._reduced_params(1.0, 10.0, gamma1)
    for case in WorkingAreaCase:
        for incident in Direction:
            counts.update(_cells=0, _format=0)
            density = cli._separation_density(params, case, x, incident)
            write_csv(tmp_path / "panel.csv", cli._MAP_HEADER, (gamma1, x, density))
            assert counts["_cells"] == 401 + 401 + 401**2
            assert counts["_format"] <= 0.01 * counts["_cells"], (case, incident, counts)


@pytest.mark.parametrize("direction", Direction)
def test_single_sweep_takes_the_fast_path(counts, tmp_path, direction):
    # T, R and loss of a 401 x 401 sweep: at most a hundredth go to repr
    p = make_params(omega_a=0.3, kappa=1.3, U=0.0, gamma1=1.0, gamma2=0.0)
    columns = sweep_columns(p, np.linspace(-3.0, 3.0, 401), np.linspace(0.0, 1.0, 401), direction)
    write_csv(tmp_path / "single.csv", SWEEP_HEADER, columns)
    assert counts["_cells"] == 401 + 401 + 3 * 401**2
    assert counts["_format"] <= 0.01 * counts["_cells"], counts


@pytest.fixture
def formatted(monkeypatch, tmp_path):
    """The bulk ``_cells`` calls the writer makes, in this process and in
    the processes it forks: ``formatted()`` reads them back as a list of
    ``(size, pid)``.  Each call appends one line to an ``O_APPEND`` log."""
    log = tmp_path / "formatted.log"
    bulk = io_utils._cells

    def counting(values, *args):
        cells = bulk(values, *args)
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{np.size(values)} {os.getpid()}\n".encode())
        finally:
            os.close(fd)
        return cells

    monkeypatch.setattr(io_utils, "_cells", counting)
    log.touch()
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def total(formatted) -> int:
    return sum(size for size, _ in formatted())


def cpus(monkeypatch, n):
    """Make the writer see ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_each_input_value_is_formatted_once(tmp_path, formatted, monkeypatch):
    cpus(monkeypatch, 2)
    g = np.linspace(0.0, 1.0, 401)
    x = np.linspace(-5.0, 5.0, 401)
    m = np.cos(g[:, None] * x[None, :])
    data = written(tmp_path, ("g", "x", "m"), (g[:, None], x[None, :], m))
    assert total(formatted) == 401 + 401 + 401**2
    # the forked ranges format their own blocks
    assert len({pid for _, pid in formatted()}) > 1
    assert data.count(b"\n") == 401**2 + 1


@pytest.mark.parametrize("n_distinct, n_formatted", [
    (BLOCK, BLOCK),
    (BLOCK + 1, 3 * BLOCK + 7),
], ids=["one_block_gathered", "past_one_block_per_block"])
def test_distinct_values_around_one_block(tmp_path, formatted, n_distinct, n_formatted):
    # a full-size column is formatted by value only while its distinct
    # values fit in one block
    rng = np.random.default_rng(n_distinct)
    pool = rng.standard_normal(n_distinct)
    v = np.concatenate([pool, rng.choice(pool, 3 * BLOCK + 7 - n_distinct)])
    rng.shuffle(v)
    assert written(tmp_path, ("v",), (v,)) == row_wise(("v",), zip(v))
    assert total(formatted) == n_formatted


def test_distinct_values_past_one_block_in_the_last_block(tmp_path, formatted):
    v = np.resize(np.linspace(-1.0, 1.0, BLOCK), 3 * BLOCK + 5)
    v[-5:] = 2.5 + np.arange(5)
    assert written(tmp_path, ("v",), (v,)) == row_wise(("v",), zip(v))
    assert total(formatted) == v.size


def test_special_values_gathered_by_value(tmp_path, formatted):
    n = 2 * BLOCK + 3
    floats = np.resize(SPECIAL, n)
    ints = np.resize(np.array([-3, 0, 2**40, -(2**52), 2**62 + 1, 7]), n)
    flags = np.resize(np.array([True, False, False]), n)
    header = ("f", "i", "flag")
    data = written(tmp_path, header, (floats, ints, flags))
    assert data == row_wise(header, zip(floats, ints, flags))
    # -0.0 and 0.0 are one distinct value, written "0"
    assert total(formatted) == (SPECIAL.size - 1) + 6 + 2
    lines = data.decode().splitlines()
    assert [line.split(",")[0] for line in lines[1:3]] == ["0", "0"]
    assert [line.split(",")[0] for line in lines[15:18]] == ["inf", "-inf", "nan"]


def test_single_sweep_formats_each_grid_value_once(tmp_path, formatted, monkeypatch):
    cpus(monkeypatch, 2)
    p = make_params(omega_a=0.0, kappa=1.0, U=0.0, gamma1=0.7, gamma2=0.3)
    rows = sweep_single(p, np.linspace(-2.0, 2.0, 401), np.linspace(0.0, 1.0, 401))
    assert not rows.T[0].flags.contiguous
    path = tmp_path / "single.csv"
    write_sweep_csv(path, rows)
    assert path.read_bytes() == row_wise(SWEEP_HEADER, rows)
    # the two grid columns are gathered; T, R and loss are all distinct
    assert total(formatted) == 401 + 401 + 3 * 401**2
    assert len({pid for _, pid in formatted()}) > 1


@pytest.mark.parametrize("direction", Direction)
@pytest.mark.parametrize("gamma1_grid", [None, np.linspace(0.0, 1.0, 401)],
                         ids=["gamma1", "gamma1_grid"])
def test_single_cli_writes_the_public_sweep(tmp_path, formatted, monkeypatch, capsys,
                                            direction, gamma1_grid):
    # the broadcast columns the command writes give the bytes of the
    # transposed sweep_single rows, and each grid value is formatted once
    cpus(monkeypatch, 2)
    path = tmp_path / "cli.csv"
    argv = ["single", "--detuning=-2:2:401", "--kappa", "0.7", "--gamma1", "0.6",
            "--gamma2", "0.4", "--direction", direction.value, "-o", str(path)]
    if gamma1_grid is not None:
        argv.append("--gamma1-grid=0:1:401")
    assert cli.main(argv) == 0
    capsys.readouterr()
    by_cli = total(formatted)
    p = make_params(omega_a=0.0, kappa=0.7, U=0.0, gamma1=0.6, gamma2=0.4)
    rows = sweep_single(p, np.linspace(-2.0, 2.0, 401),
                        [0.6] if gamma1_grid is None else gamma1_grid, direction)
    write_sweep_csv(tmp_path / "library.csv", rows)
    assert path.read_bytes() == (tmp_path / "library.csv").read_bytes()
    assert by_cli == total(formatted) - by_cli
    if gamma1_grid is not None:
        assert by_cli == 401 + 401 + 3 * 401**2


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_single_cli_sweeps_a_gamma1_grid_past_one_block(tmp_path, monkeypatch, capsys, n_cpus):
    # one detuning row of BLOCK + 2 gamma1 values: a leading row longer
    # than a writer block
    cpus(monkeypatch, n_cpus)
    path = tmp_path / "cli.csv"
    n = BLOCK + 2
    assert cli.main(["single", "--detuning=0:0:1", f"--gamma1-grid=0:1:{n}",
                     "--kappa", "0.7", "--gamma1", "0.6", "--gamma2", "0.4", "-o", str(path)]) == 0
    capsys.readouterr()
    p = make_params(omega_a=0.0, kappa=0.7, U=0.0, gamma1=0.6, gamma2=0.4)
    write_sweep_csv(tmp_path / "library.csv", sweep_single(p, [0.0], np.linspace(0.0, 1.0, n)))
    assert path.read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_single_cli_formats_at_most_a_block_of_cells_per_call(tmp_path, monkeypatch, capsys,
                                                              formatted):
    # T, R and loss of a 401 x 401 sweep: whole detuning rows, as many as
    # fit in BLOCK cells, to each _cells call
    cpus(monkeypatch, 1)
    path = tmp_path / "cli.csv"
    argv = ["single", "--detuning=-2:2:401", "--gamma1-grid=0:1:401", "-o", str(path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    sizes = [size for size, _ in formatted()]
    assert max(sizes) <= BLOCK
    assert sum(sizes) == 401 + 401 + 3 * 401**2
    assert sizes.count(3 * (BLOCK // 3 // 401) * 401) == 401 // (BLOCK // 3 // 401)


@pytest.mark.parametrize("n_detunings", [1, 3])
def test_single_cli_gamma1_grid_one_past_the_cell_budget(tmp_path, monkeypatch, capsys,
                                                        formatted, n_detunings):
    # BLOCK // 3 + 1 gamma1 values: one more than a block of T, R and loss
    # holds, so each detuning row is made in two blocks
    cpus(monkeypatch, 3)
    n = BLOCK // 3 + 1
    path = tmp_path / "cli.csv"
    assert cli.main(["single", f"--detuning=-1:1:{n_detunings}", f"--gamma1-grid=0:1:{n}",
                     "--kappa", "0.7", "--gamma1", "0.6", "--gamma2", "0.4", "-o", str(path)]) == 0
    capsys.readouterr()
    # the grid's distinct values in one call, then every block
    assert sorted(size for size, _ in formatted()) == sorted(
        [n_detunings + n] + [3 * (n - 1), 3] * n_detunings)
    p = make_params(omega_a=0.0, kappa=0.7, U=0.0, gamma1=0.6, gamma2=0.4)
    rows = sweep_single(p, np.linspace(-1.0, 1.0, n_detunings), np.linspace(0.0, 1.0, n))
    write_sweep_csv(tmp_path / "library.csv", rows)
    assert path.read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_two_photon_map_is_gathered_by_value(tmp_path, formatted):
    p = make_params(omega_a=0.0, kappa=0.4, U=6.0, gamma1=0.7, gamma2=0.3)
    field = TwoPhotonField(p, TwoPhotonIn(Direction.LEFT_INCIDENT, 0.0, 2.0 * p.U))
    x = np.linspace(-5.0, 5.0, 401)
    maps = map_two_photon(field, x, ("tt", "rr", "rt"))
    path = tmp_path / "map.csv"
    write_map_csv(path, x, maps)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    rows = zip(x1.ravel(), x2.ravel(), *(m.ravel() for m in maps.values()))
    header = ("x1", "x2", "psi_tt_sq", "psi_rr_sq", "psi_rt_sq")
    assert path.read_bytes() == row_wise(header, rows)
    # Toeplitz tt and rr, Hankel rt: 401, 401 and 801 distinct values
    assert total(formatted) == 401 + 401 + 401 + 401 + 801


def test_toeplitz_column_past_one_block_is_formatted_per_block(tmp_path, formatted):
    # BLOCK + 1 distinct values, one more than a block gathers by value
    v = np.cos(np.linspace(0.0, 3.0, BLOCK + 1))
    i = np.arange(3)[:, None]
    j = np.arange(BLOCK - 1)[None, :]
    m = v[j - i + 2]
    rows = [(a, b, m[a, b]) for a in range(3) for b in range(BLOCK - 1)]
    data = written(tmp_path, ("i", "j", "m"), (i, j, m))
    assert data == row_wise(("i", "j", "m"), rows)
    assert total(formatted) == 3 + (BLOCK - 1) + m.size


# A large table is split into block ranges, one per CPU; every range but
# the first is written by a forked child.

RANGE = io_utils._RANGE_BLOCKS


def split_table(n_rows, gathered=True):
    """Header and columns of an ``n_rows`` table: an index and random
    doubles (both formatted per block) and, if ``gathered``, a column of
    300 values formatted by value."""
    rng = np.random.default_rng(n_rows)
    columns = [np.arange(n_rows),
               rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)]
    if gathered:
        columns.append(np.resize(np.linspace(-1.0, 1.0, 300), n_rows))
    return [f"c{k}" for k in range(len(columns))], columns


@functools.lru_cache(maxsize=None)
def split_reference(n_rows) -> bytes:
    header, columns = split_table(n_rows)
    return row_wise(header, zip(*columns))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children the writer forks."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("n_rows", [
    (2 * RANGE - 1) * BLOCK,
    2 * RANGE * BLOCK,
    (2 * RANGE + 1) * BLOCK,
    3 * RANGE * BLOCK - 5,
], ids=["2min-1_blocks", "2min_blocks", "2min+1_blocks", "3min_blocks_ragged"])
def test_split_bytes_equal_the_row_wise_join(tmp_path, monkeypatch, forks, n_cpus, n_rows):
    cpus(monkeypatch, n_cpus)
    n_blocks = -(-n_rows // BLOCK)
    n_ranges = max(1, min(n_cpus, n_blocks // RANGE))
    ranges = io_utils._block_ranges(n_rows)
    # contiguous whole-block ranges of at least RANGE blocks each
    assert len(ranges) == n_ranges
    assert ranges[0][0] == 0 and ranges[-1][1] == n_rows
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert all(start % BLOCK == 0 and -(-(stop - start) // BLOCK) >= RANGE
               for start, stop in ranges)
    header, columns = split_table(n_rows)
    assert written(tmp_path, header, columns) == split_reference(n_rows)
    assert len(forks) == n_ranges - 1
    assert_no_children()


@pytest.mark.parametrize("block_rows", [7, 1024, BLOCK])
def test_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, forks, block_rows):
    # a broadcast column, a gathered one (5 distinct values), two formatted
    # per block, a ragged last block and three forked ranges
    monkeypatch.setattr(io_utils, "_BLOCK_ROWS", block_rows)
    cpus(monkeypatch, 3)
    n, m = 13, -(-3 * RANGE * BLOCK // 13)
    rng = np.random.default_rng(5)
    columns = [np.linspace(0.0, 1.0, n)[:, None],
               np.resize(np.linspace(-2.0, 2.0, 5), (n, m)),
               np.arange(n * m).reshape(n, m),
               rng.standard_normal((n, m)) * 10.0 ** rng.integers(-20, 20, (n, m))]
    assert (n * m) % block_rows  # a ragged last block
    header = [f"c{k}" for k in range(len(columns))]
    data = written(tmp_path, header, columns)
    assert data == row_wise(header, zip(*(b.ravel() for b in np.broadcast_arrays(*columns))))
    assert len(forks) == 2
    assert_no_children()


def test_unwritable_path_forks_nothing(tmp_path, monkeypatch, forks):
    cpus(monkeypatch, 2)
    header, columns = split_table(2 * RANGE * BLOCK)
    with pytest.raises(IsADirectoryError):
        write_csv(tmp_path, header, columns)
    assert forks == []
    assert_no_children()


def failing_format(monkeypatch, fails):
    """Make ``_cells`` fail in the processes where ``fails(pid)`` holds:
    by raising, or in a child by a ``SIGKILL`` to itself."""
    bulk = io_utils._cells

    def format_or_fail(values, *args):
        how = fails(os.getpid())
        if how == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if how:
            raise ValueError("format failed on purpose")
        return bulk(values, *args)

    monkeypatch.setattr(io_utils, "_cells", format_or_fail)


def test_parent_error_mid_write_kills_and_reaps_every_child(tmp_path, monkeypatch, forks):
    cpus(monkeypatch, 3)
    parent = os.getpid()
    failing_format(monkeypatch, lambda pid: pid == parent)
    header, columns = split_table(3 * RANGE * BLOCK, gathered=False)
    with pytest.raises(ValueError, match="on purpose"):
        write_csv(tmp_path / "t.csv", header, columns)
    assert len(forks) == 2
    assert_no_children()


@pytest.mark.parametrize("how, status", [
    ("raise", r"exit status 1"),
    ("kill", rf"killed by signal {int(signal.SIGKILL)}"),
])
def test_child_failure_is_an_os_error(tmp_path, monkeypatch, forks, capfd, how, status):
    cpus(monkeypatch, 3)
    parent = os.getpid()
    failing_format(monkeypatch, lambda pid: pid != parent and how)
    n_rows = 3 * RANGE * BLOCK
    header, columns = split_table(n_rows, gathered=False)
    with pytest.raises(OSError, match=rf"rows {RANGE * BLOCK}-{2 * RANGE * BLOCK - 1} failed \({status}\)"):
        write_csv(tmp_path / "t.csv", header, columns)
    assert len(forks) == 2
    assert_no_children()
    if how == "raise":
        assert "ValueError: format failed on purpose" in capfd.readouterr().err


# Several tables in one call share the CPUs: their blocks, taken in order,
# are cut into one share per CPU.

TABLE_SETS = {
    # two CPUs cut at the start of the third table
    "cut_on_a_table_boundary": (2 * BLOCK, 2 * BLOCK, 2 * BLOCK, 2 * BLOCK),
    # two CPUs cut the second table after its first block
    "cut_inside_a_table": (BLOCK, 3 * BLOCK),
    # two CPUs cut the first table before its ragged last block
    "ragged_last_blocks": (2 * BLOCK + 5, 2 * BLOCK - 3, 7),
}
TWO_CPU_SHARES = {
    "cut_on_a_table_boundary": [(0, 4 * BLOCK), (4 * BLOCK, 8 * BLOCK)],
    "cut_inside_a_table": [(0, 2 * BLOCK), (2 * BLOCK, 4 * BLOCK)],
    "ragged_last_blocks": [(0, 2 * BLOCK), (2 * BLOCK, 4 * BLOCK + 9)],
}


def table_set(tmp_path, sizes, gathered=True):
    """``(path, header, columns)`` of tables of ``sizes`` rows, each with
    its own values."""
    tables = []
    for k, n_rows in enumerate(sizes):
        header, columns = split_table(n_rows, gathered)
        columns[0] = columns[0] + 10**6 * k
        tables.append((tmp_path / f"t{k}.csv", header, columns))
    return tables


@functools.lru_cache(maxsize=None)
def set_reference(sizes) -> list[bytes]:
    return [row_wise(header, zip(*columns))
            for _, header, columns in table_set(Path("."), sizes)]


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("name", TABLE_SETS)
def test_table_set_bytes_equal_the_row_wise_join(tmp_path, monkeypatch, forks, name, n_cpus):
    cpus(monkeypatch, n_cpus)
    sizes = TABLE_SETS[name]
    shares = io_utils._block_ranges(*sizes)
    if n_cpus == 2:
        assert shares == TWO_CPU_SHARES[name]
    # contiguous shares cut at block boundaries of the tables
    assert shares[0][0] == 0 and shares[-1][1] == sum(sizes)
    assert all(a[1] == b[0] for a, b in zip(shares, shares[1:]))
    firsts = np.cumsum((0, *sizes))
    for start, _ in shares:
        k = np.searchsorted(firsts, start, side="right") - 1
        assert (start - firsts[k]) % BLOCK == 0
    tables = table_set(tmp_path, sizes)
    io_utils.write_csv_tables(tables)
    assert [path.read_bytes() for path, _, _ in tables] == set_reference(sizes)
    # one fork per share after the first, not per table
    assert len(forks) == len(shares) - 1
    assert_no_children()


@pytest.mark.parametrize("sizes, n_forks", [
    ((2 * BLOCK,) * 4, 1),
    ((4000,) * 4, 0),
    ((401,) * 4, 0),
])
def test_table_set_forks_once_per_extra_share(tmp_path, monkeypatch, forks, sizes, n_forks):
    cpus(monkeypatch, 2)
    io_utils.write_csv_tables(table_set(tmp_path, sizes))
    assert len(forks) == n_forks
    assert_no_children()


def test_table_set_formats_each_value_once(tmp_path, monkeypatch, forks, formatted):
    # the gathered columns are formatted in the calling process, one
    # _cells call per table, before any fork
    cpus(monkeypatch, 3)
    sizes = TABLE_SETS["ragged_last_blocks"]
    io_utils.write_csv_tables(table_set(tmp_path, sizes))
    assert total(formatted) == sum(2 * n + min(n, 300) for n in sizes)
    once = [(size, pid) for size, pid in formatted() if size == 300]
    assert once == [(300, os.getpid())] * 2
    assert len(forks) == 1
    assert_no_children()


def test_unwritable_last_path_forks_nothing(tmp_path, monkeypatch, forks):
    cpus(monkeypatch, 2)
    tables = table_set(tmp_path, (2 * BLOCK,) * 4)
    tables[-1] = (tmp_path, *tables[-1][1:])
    with pytest.raises(IsADirectoryError):
        io_utils.write_csv_tables(tables)
    assert forks == []
    assert_no_children()


@pytest.mark.parametrize("sizes, rows", [
    ((2 * BLOCK,) * 4, [(2, 0, 2 * BLOCK - 1), (3, 0, 2 * BLOCK - 1)]),
    ((BLOCK, 3 * BLOCK), [(1, BLOCK, 3 * BLOCK - 1)]),
], ids=["whole_tables", "cut_off_part"])
def test_table_set_child_failure_is_an_os_error(tmp_path, monkeypatch, forks, sizes, rows):
    cpus(monkeypatch, 2)
    parent = os.getpid()
    failing_format(monkeypatch, lambda pid: pid != parent and "raise")
    parts = ", ".join(f"{tmp_path / f't{k}.csv'} rows {a}-{b}" for k, a, b in rows)
    with pytest.raises(OSError, match=re.escape(f"writing {parts} failed (exit status 1)")):
        io_utils.write_csv_tables(table_set(tmp_path, sizes, gathered=False))
    assert len(forks) == 1
    assert_no_children()


def test_pending_stdout_is_written_once(tmp_path):
    # stdout to a pipe is block-buffered (without PYTHONUNBUFFERED): the
    # line is still pending at the fork
    script = (
        "import os, sys, numpy as np\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from chiral_diode.io_utils import write_csv\n"
        "print('pending line')\n"
        "g = np.linspace(0.0, 1.0, 401)\n"
        "m = np.cos(g[:, None] * g[None, :])\n"
        "write_csv(sys.argv[1], ('g', 'x', 'm'), (g[:, None], g[None, :], m))\n"
    )
    src = str(Path(io_utils.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("PYTHONUNBUFFERED", None)
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "t.csv")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "pending line\n"
    assert (tmp_path / "t.csv").read_bytes().count(b"\n") == 401**2 + 1


# A table may give its 2-D grid as arrays and a function that makes its
# further columns for a slice of its leading rows and of its second axis:
# each block's part of the grid is made by the process that writes it.

def logged(log, k, unit, make):
    """``make`` that first appends ``"<k> <pid> <start> <stop>"`` to the
    file ``log``: the table rows ``[start, stop)`` of the slices of leading
    rows and of columns it is given, in a table of ``unit`` columns."""
    def made(rows, cols):
        start, stop = rows.start * unit + cols.start, (rows.stop - 1) * unit + cols.stop
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{k} {os.getpid()} {start} {stop}\n".encode())
        finally:
            os.close(fd)
        return make(rows, cols)

    return made


def deferred(tables, log):
    """``tables`` with the first column their grid, shaped ``(rows, 1)``,
    and the others made by a :func:`logged` function."""
    return [(path, header, (columns[0][:, None],),
             logged(log, k, 1, lambda rows, cols, columns=columns[1:]:
                    [c[:, None][rows, cols] for c in columns]))
            for k, (path, header, columns) in enumerate(tables)]


def calls(log):
    return sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())


def parts(sizes, shares):
    """``(table, start, stop)`` of each part of a table in a share."""
    firsts = np.cumsum((0, *sizes)).tolist()
    return [(k, max(lo, f) - f, min(hi, f + n) - f) for lo, hi in shares
            for k, (f, n) in enumerate(zip(firsts, sizes)) if max(lo, f) < min(hi, f + n)]


def assert_made_once_where_written(made, sizes, shares, pids):
    """Each row of each table is in one slice of ``made``, and the process
    that made it is the one of the share that holds it."""
    firsts = np.cumsum((0, *sizes))
    for k, n in enumerate(sizes):
        spans = [(a, b) for j, _, a, b in made if j == k]
        assert [a for a, _ in spans] == [0, *(b for _, b in spans[:-1])]
        assert spans[-1][1] == n
    for k, pid, a, b in made:
        i = next(i for i, (lo, hi) in enumerate(shares) if lo <= firsts[k] + a < hi)
        assert firsts[k] + b <= shares[i][1] and pid == pids[i]


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("name", TABLE_SETS)
def test_deferred_tables_are_made_where_they_are_written(tmp_path, monkeypatch, forks,
                                                         name, n_cpus):
    cpus(monkeypatch, n_cpus)
    sizes = TABLE_SETS[name]
    log = tmp_path / "made.log"
    tables = table_set(tmp_path, sizes)
    io_utils.write_csv_tables(deferred(tables, log))
    assert [path.read_bytes() for path, _, _ in tables] == set_reference(sizes)
    shares = io_utils._block_ranges(*sizes)
    assert_made_once_where_written(calls(log), sizes, shares, [os.getpid(), *forks])
    # a block at a time, BLOCK cells of the two made columns each, and of
    # the grid too where its values are more than a block: the last block
    # of a share or a table maybe short
    steps = [BLOCK // (2 + (n > BLOCK)) for n in sizes]
    assert all(b - a <= steps[k] for k, _, a, b in calls(log))
    assert len(calls(log)) == sum(-(-(b - a) // steps[k]) for k, a, b in parts(sizes, shares))
    assert len(forks) == len(shares) - 1
    assert_no_children()


def made_error(tmp_path, made, message):
    """A table whose ``make`` returns ``made`` raises a ValueError matching
    ``message``, and its file keeps the header alone."""
    path = tmp_path / "t.csv"
    table = (path, ("a", "b", "c"), (np.zeros((4, 1)), np.zeros(3)), lambda rows, cols: made)
    with pytest.raises(ValueError, match=message):
        io_utils.write_csv_tables([table])
    assert path.read_bytes() == b"a,b,c\n"


def test_deferred_table_of_another_shape_is_a_value_error(tmp_path, monkeypatch):
    cpus(monkeypatch, 1)
    made_error(tmp_path, (np.zeros((2, 4, 3)),),
               r"gave 1 columns broadcast to \(2, 4, 3\), not 1 of shape \(4, 3\)")


def test_deferred_table_of_more_columns_is_a_value_error(tmp_path, monkeypatch):
    cpus(monkeypatch, 1)
    made_error(tmp_path, (np.zeros((4, 1)), np.zeros(3)),
               r"gave 2 columns broadcast to \(4, 3\), not 1 of shape \(4, 3\)")


def test_deferred_table_over_a_grid_of_three_axes_is_a_value_error(tmp_path):
    path = tmp_path / "t.csv"
    table = (path, ("a", "b"), (np.zeros((2, 3, 4)),), lambda rows, cols: (np.zeros(1),))
    with pytest.raises(ValueError, match=r"at most 2 axes, got \(2, 3, 4\)"):
        io_utils.write_csv_tables([table])
    assert not path.exists()


def test_deferred_table_over_a_grid_of_scalars_is_one_row(tmp_path, monkeypatch):
    cpus(monkeypatch, 1)
    path = tmp_path / "t.csv"
    io_utils.write_csv(path, ("a", "b"), (np.float64(0.5),), lambda rows, cols: (np.full(1, 0.25),))
    assert path.read_bytes() == b"a,b\n0.5,0.25\n"


def test_arrays_and_deferred_tables_mix(tmp_path, monkeypatch, forks):
    cpus(monkeypatch, 2)
    sizes = (2 * BLOCK,) * 4
    tables = table_set(tmp_path, sizes)
    log = tmp_path / "made.log"
    mixed = [*tables[:1], *deferred(tables[1:], log)]
    io_utils.write_csv_tables(mixed)
    assert [path.read_bytes() for path, _, _ in tables] == set_reference(sizes)
    # the array table is no call; tables 1-3 are deferred tables 0-2
    assert sorted({(k, pid) for k, pid, *_ in calls(log)}) == [
        (0, os.getpid()), (1, forks[0]), (2, forks[0])]
    assert_no_children()


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("inner", [401, BLOCK])
def test_share_boundaries_fall_between_leading_rows(tmp_path, monkeypatch, forks, n_cpus,
                                                    inner):
    # leading rows of 401 table rows, or of one block: every block and
    # every share holds whole leading rows, each made once
    cpus(monkeypatch, n_cpus)
    lead = 3 * BLOCK // inner + 3
    log = tmp_path / "made.log"
    tables, deferred_tables = [], []
    for k in range(2):
        path, header = tmp_path / f"t{k}.csv", ("i", "j", "v")
        grid = (np.arange(lead)[:, None] + 10**6 * k, np.arange(inner))
        values = np.cos(np.arange(lead * inner) + k).reshape(lead, inner)
        tables.append((path, header, (*grid, values)))
        make = logged(log, k, inner, lambda rows, cols, v=values: [v[rows, cols]])
        deferred_tables.append((path, header, grid, make))
    io_utils.write_csv_tables(deferred_tables)
    for path, header, columns in tables:
        rows = zip(*(c.ravel() for c in np.broadcast_arrays(*columns)))
        assert path.read_bytes() == row_wise(header, rows)
    sizes = (lead * inner,) * 2
    shares = io_utils._block_ranges(*sizes, units=(inner, inner))
    assert all(a % inner == 0 for a, _ in shares)
    made = calls(log)
    assert_made_once_where_written(made, sizes, shares, [os.getpid(), *forks])
    assert all(b - a <= max(BLOCK // inner, 1) * inner for _, _, a, b in made)
    assert len(forks) == len(shares) - 1 == n_cpus - 1
    assert_no_children()


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("lead, inner", [(1, BLOCK + 5), (1, 5 * BLOCK + 1), (3, 2 * BLOCK + 7)])
def test_leading_row_longer_than_a_block_is_made_once_per_process(tmp_path, monkeypatch, forks,
                                                                 formatted, n_cpus, lead, inner):
    # a leading row past one block, as in `single` over one detuning: every
    # cell is made once, by the process that writes it, a block at a time,
    # and the share boundaries fall between blocks, as in a table of arrays
    cpus(monkeypatch, n_cpus)
    log = tmp_path / "made.log"
    path, header = tmp_path / "t.csv", ("i", "j", "v")
    grid = (np.arange(lead)[:, None], np.linspace(0.0, 1.0, inner))
    values = np.cos(np.arange(lead * inner)).reshape(lead, inner)
    make = logged(log, 0, inner, lambda rows, cols: [values[rows, cols]])
    io_utils.write_csv_tables([(path, header, grid, make)])
    rows = zip(*(c.ravel() for c in np.broadcast_arrays(*grid, values)))
    assert path.read_bytes() == row_wise(header, rows)
    shares = io_utils._block_ranges(lead * inner)
    assert len(forks) == len(shares) - 1 == min(n_cpus, -(-lead * inner // BLOCK) // 2) - 1
    assert_made_once_where_written(calls(log), (lead * inner,), shares, [os.getpid(), *forks])
    # each call makes part of one leading row; one row's x column is
    # formatted a block at a time too, so its blocks format two columns
    step = BLOCK // 2 if lead == 1 else BLOCK
    assert all(a // inner == (b - 1) // inner and b - a <= step for _, _, a, b in calls(log))
    assert max(size for size, _ in formatted()) <= BLOCK
    assert_no_children()


def test_long_leading_row_grows_memory_by_no_more_than_a_block(tmp_path, monkeypatch):
    # a 1 x n table: a scalar, a grid column of n distinct values and a
    # made column, all formatted a block at a time, so no cell is formatted
    # once and four times the row takes at most one block's cells more
    import tracemalloc

    cpus(monkeypatch, 1)

    def peak(n):
        x = np.linspace(0.0, 1.0, n)
        table = (tmp_path / "t.csv", ("a", "x", "v"), (np.zeros((1, 1)), x),
                 lambda rows, cols: (np.cos(x[cols]),))
        tracemalloc.start()
        try:
            io_utils.write_csv_tables([table])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100_000)
    small, large = peak(100_000), peak(400_000)
    assert large - small <= BLOCK * (io_utils._WIDTH + 1), (small, large)


def failing_make(tables, fails, error):
    """``tables`` deferred, each ``make`` raising ``error`` in the
    processes where ``fails(pid)`` holds."""
    def make(columns, rows, cols):
        if fails(os.getpid()):
            raise error
        return [c[:, None][rows, cols] for c in columns]

    return [(path, header, (columns[0][:, None],), functools.partial(make, columns[1:]))
            for path, header, columns in tables]


def test_child_out_of_memory_is_a_memory_error(tmp_path, monkeypatch, forks, capfd):
    cpus(monkeypatch, 2)
    parent = os.getpid()
    sizes = (2 * BLOCK,) * 4
    tables = table_set(tmp_path, sizes)
    parts = ", ".join(f"{tmp_path / f't{k}.csv'} rows 0-{2 * BLOCK - 1}" for k in (2, 3))
    with pytest.raises(MemoryError, match=re.escape(f"in the process writing {parts}")):
        io_utils.write_csv_tables(failing_make(tables, lambda pid: pid != parent,
                                               MemoryError("Unable to allocate")))
    assert len(forks) == 1
    assert_no_children()
    # nothing on stderr; the child's tables are left with their headers
    assert capfd.readouterr().err == ""
    written_ = [path.read_bytes() for path, _, _ in tables]
    assert written_[:2] == set_reference(sizes)[:2]
    assert written_[2:] == [b"c0,c1,c2\n"] * 2


def test_child_error_is_one_line_without_a_traceback(tmp_path, monkeypatch, forks, capfd):
    cpus(monkeypatch, 2)
    parent = os.getpid()
    tables = table_set(tmp_path, (2 * BLOCK,) * 4)
    with pytest.raises(OSError, match=r"failed \(exit status 1\)"):
        io_utils.write_csv_tables(failing_make(tables, lambda pid: pid != parent,
                                               ValueError("make failed on purpose")))
    assert len(forks) == 1
    assert_no_children()
    assert capfd.readouterr().err == "ValueError: make failed on purpose\n"


def test_caller_out_of_memory_kills_and_reaps_the_child(tmp_path, monkeypatch, forks, capfd):
    # the caller's own error is raised; the child, still writing, is killed
    cpus(monkeypatch, 3)
    parent = os.getpid()
    tables = table_set(tmp_path, (2 * BLOCK,) * 6)
    with pytest.raises(MemoryError, match="^Unable to allocate$"):
        io_utils.write_csv_tables(failing_make(tables, lambda pid: pid == parent,
                                               MemoryError("Unable to allocate")))
    assert len(forks) == 2
    assert_no_children()
    assert capfd.readouterr().err == ""
    assert tables[0][0].read_bytes() == b"c0,c1,c2\n"


def block_ranges_by_edges(*sizes):
    """:func:`io_utils._block_ranges` from the list of every block
    boundary of every table."""
    total = sum(sizes)
    n_blocks = -(-total // BLOCK)
    n = max(1, min(len(os.sched_getaffinity(0)), n_blocks // RANGE))
    firsts = np.cumsum((0, *sizes))
    edges = np.concatenate([np.arange(a, b, BLOCK) for a, b in zip(firsts, firsts[1:])]
                           + [[total]])
    cuts = edges[np.searchsorted(edges, np.arange(1, n) * n_blocks // n * BLOCK)]
    bounds = [0, *cuts.tolist(), total]
    return list(zip(bounds[:-1], bounds[1:]))


@pytest.mark.parametrize("n_cpus", [2, 3, 5, 8])
def test_block_ranges_cut_at_the_first_boundary_past_each_share(monkeypatch, n_cpus):
    cpus(monkeypatch, n_cpus)
    rng = np.random.default_rng(n_cpus)
    for _ in range(200):
        sizes = rng.integers(0, 6 * BLOCK, rng.integers(1, 7))
        sizes = tuple(int(n) for n in np.where(rng.random(sizes.size) < 0.2, 0, sizes))
        assert io_utils._block_ranges(*sizes) == block_ranges_by_edges(*sizes)


def test_block_ranges_of_huge_tables_allocate_no_edges(monkeypatch):
    import tracemalloc

    cpus(monkeypatch, 3)
    sizes = (200_000**2,) * 4
    tracemalloc.start()
    try:
        shares = io_utils._block_ranges(*sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert len(shares) == 3 and shares[-1][1] == sum(sizes)
    firsts = np.cumsum((0, *sizes))
    for a, _ in shares:
        k = np.searchsorted(firsts, a, side="right") - 1
        assert (a - firsts[k]) % BLOCK == 0
