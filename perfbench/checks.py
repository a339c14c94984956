"""Output checks: every file a workload writes is read back and verified.

Each check returns a list of error strings; an empty list means the output
is correct.  ``selftest`` corrupts copies of real outputs and confirms
that the matching check fires, so no check can pass vacuously.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from chiral_diode import make_params, two_photon
from chiral_diode.diode_analysis import FREE_PAIR_DENSITY
from chiral_diode.model import Direction, PhotonIn, TwoPhotonIn
from chiral_diode.single_photon import chiral_coeffs

SWEEP_HEADER = ("detuning_over_Gamma", "gamma1_over_Gamma", "T", "R", "loss")
WORKING_AREA_HEADER = ("gamma1_over_Gamma", "Gamma_abs_x", "branch", "diverges")
NULL_GATE = 1e-10 * FREE_PAIR_DENSITY
LATTICE_GATE = 0.02


class CheckError(Exception):
    """An output cannot be parsed as the format it claims."""


def read_table(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Header and numeric body of a CSV written by the package."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.endswith("\n"):
        raise CheckError(f"{path}: missing final newline")
    lines = text[:-1].split("\n")
    header = tuple(lines[0].split(","))
    body = lines[1:]
    commas = len(header) - 1
    if any(line.count(",") != commas for line in body):
        raise CheckError(f"{path}: a row does not have {len(header)} fields")
    if not body:
        return header, np.empty((0, len(header)))
    try:
        values = np.array(",".join(body).split(","), dtype=float)
    except ValueError as exc:
        raise CheckError(f"{path}: non-numeric field ({exc})") from None
    return header, values.reshape(len(body), len(header))


def check_table(path, header, n_rows=None, allow_inf=False):
    """Header, row count and finite values; returns (errors, body)."""
    try:
        got, body = read_table(path)
    except (OSError, CheckError) as exc:
        return [str(exc)], None
    errors = []
    if got != tuple(header):
        errors.append(f"{path}: header {got} != {tuple(header)}")
    if n_rows is not None and body.shape[0] != n_rows:
        errors.append(f"{path}: {body.shape[0]} rows, expected {n_rows}")
    bad = np.isnan(body) if allow_inf else ~np.isfinite(body)
    if bad.any():
        errors.append(f"{path}: {int(bad.sum())} non-finite values")
    return errors, body


def check_single(path, n_rows):
    """``single`` sweep: T + R + loss = 1 to 1e-12, with T and R in [0, 1]."""
    errors, body = check_table(path, SWEEP_HEADER, n_rows)
    if body is None or errors:
        return errors
    T, R, loss = body[:, 2], body[:, 3], body[:, 4]
    worst = float(np.max(np.abs(T + R + loss - 1.0), initial=0.0))
    if worst > 1e-12:
        errors.append(f"{path}: |T + R + loss - 1| reaches {worst:.3g}")
    for name, col in (("T", T), ("R", R)):
        if ((col < 0.0) | (col > 1.0)).any():
            errors.append(f"{path}: {name} leaves [0, 1]")
    return errors


def check_working_area_single(path, kappa, gamma1_grid):
    """Closed-form curve over Gamma = 1: one row per grid value in
    [(kappa + 1)/4, 1]; ``inf`` exactly on the ``diverges`` rows."""
    grid = np.asarray(gamma1_grid, dtype=float)
    keep = grid[(grid >= 0.25 * (kappa + 1.0) - 1e-12) & (grid <= 1.0 + 1e-12)]
    errors, body = check_table(path, WORKING_AREA_HEADER, keep.size, allow_inf=True)
    if body is None or errors:
        return errors
    if not np.array_equal(body[:, 0], keep):
        errors.append(f"{path}: gamma1 column differs from the kept grid values")
    diverges = body[:, 3] == 1.0
    if not np.array_equal(np.isinf(body[:, 1]), diverges):
        errors.append(f"{path}: inf appears outside the diverges rows (or is missing there)")
    if np.isinf(np.delete(body, 1, axis=1)).any():
        errors.append(f"{path}: inf outside the Gamma_abs_x column")
    return errors


def two_res_points(path):
    """(errors, points) of a two-photon-resonance working-area CSV."""
    errors, body = check_table(path, WORKING_AREA_HEADER)
    if body is None:
        return errors, np.empty((0, 4))
    return errors, body


def check_working_area_two(path, omega_a, kappa, U):
    """Every two-photon-resonance point re-nulls the transmitted pair
    density below ``1e-10 * FREE_PAIR_DENSITY``; the curve is not empty."""
    errors, body = two_res_points(path)
    if errors:
        return errors
    if body.shape[0] == 0:
        return [f"{path}: empty curve at kappa={kappa}, U={U}"]
    if body[:, 3].any():
        errors.append(f"{path}: diverges flag set on an exact solution")
    pair = TwoPhotonIn(Direction.LEFT_INCIDENT, omega_a, omega_a + 2.0 * U)
    worst = 0.0
    for g1, gx, _, _ in body:
        field = two_photon.TwoPhotonField(make_params(omega_a, kappa, U, g1, 1.0 - g1), pair)
        worst = max(worst, float(np.abs(field.psi_tt(-0.5 * gx, 0.5 * gx)) ** 2))
    if not worst < NULL_GATE:
        errors.append(f"{path}: null density {worst:.3g} >= {NULL_GATE:.3g}")
    return errors


def check_same_zero_set(path_plus, path_minus):
    """The zero set is invariant under U -> -U (both tangent conditions are)."""
    e1, plus = two_res_points(path_plus)
    e2, minus = two_res_points(path_minus)
    if e1 or e2:
        return e1 + e2
    a = plus[np.lexsort((plus[:, 1], plus[:, 0])), :2]
    b = minus[np.lexsort((minus[:, 1], minus[:, 0])), :2]
    if a.shape != b.shape:
        return [f"zero set at -U has {b.shape[0]} points, at +U {a.shape[0]}"]
    dev = float(np.max(np.abs(a - b), initial=0.0))
    return [] if dev < 1e-8 else [f"zero sets at +U and -U differ by {dev:.3g}"]


def _density_errors(label, got, want, scale):
    tol = 1e-12 * np.abs(want) + 1e-14 * scale
    bad = np.abs(got - want) > tol
    if bad.any():
        k = int(np.argmax(np.abs(got - want) - tol))
        return [f"{label}: {int(bad.sum())} sampled densities differ "
                f"(e.g. {got[k]!r} vs {want[k]!r})"]
    return []


def check_map_csv(path, field, x, channels, convention, samples):
    """``twomap --format csv``: N*N rows in (x1, x2) order, non-negative
    densities that match ``TwoPhotonField.densities`` at sampled points."""
    header = ("x1", "x2") + tuple(f"psi_{ch}_sq" for ch in channels)
    errors, body = check_table(path, header, x.size**2)
    if body is None or errors:
        return errors
    if (body[:, 2:] < 0.0).any():
        errors.append(f"{path}: negative density")
    i, j = samples
    rows = body[i * x.size + j]
    if not (np.array_equal(rows[:, 0], x[i]) and np.array_equal(rows[:, 1], x[j])):
        errors.append(f"{path}: coordinates out of grid order")
    want = field.densities(x[i], x[j], channels, convention)
    scale = float(body[:, 2:].max(initial=0.0))
    for c, ch in enumerate(channels):
        errors += _density_errors(f"{path} {ch}", rows[:, 2 + c], want[ch], scale)
    return errors


def check_map_file(path, x, field, channel, convention, samples):
    """A binary map read back: N x N with the grid's x-range, finite,
    non-negative, and equal to ``TwoPhotonField.densities`` at the sampled
    grid points."""
    try:
        matrix, header_range = two_photon.read_map_binary(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable map ({exc})"]
    if matrix.shape != (x.size, x.size):
        return [f"{path}: shape {matrix.shape}, expected {(x.size, x.size)}"]
    errors = []
    x_range = np.array([x[0], x[-1], x[0], x[-1]], dtype=np.float32)
    if not np.array_equal(np.asarray(header_range, dtype=np.float32), x_range):
        errors.append(f"{path}: header x-range {header_range} != {tuple(x_range)}")
    if not np.isfinite(matrix).all():
        errors.append(f"{path}: non-finite density")
    if (matrix < 0.0).any():
        errors.append(f"{path}: negative density")
    i, j = samples
    want = field.densities(x[i], x[j], (channel,), convention)[channel]
    return errors + _density_errors(str(path), matrix[i, j], want, float(matrix.max(initial=0.0)))


def check_verify_report(path):
    """``verify`` report: ``all_pass`` and every check passed."""
    try:
        rep = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable report ({exc})"]
    errors = []
    if rep.get("all_pass") is not True:
        errors.append(f"{path}: all_pass is {rep.get('all_pass')!r}")
    checks = rep.get("checks") or []
    if not checks:
        errors.append(f"{path}: no checks")
    failed = [c.get("name") for c in checks if c.get("pass") is not True]
    if failed:
        errors.append(f"{path}: failed checks {failed}")
    return errors


def check_lattice_single(res, params, direction):
    """Lattice T and R within the acceptance gate of the closed forms."""
    ref = chiral_coeffs(params, PhotonIn(direction, params.omega_a))
    dev = max(abs(res.T - ref.T), abs(res.R - ref.R))
    errors = []
    if not res.converged:
        errors.append("lattice_transmission: not converged")
    if not dev < LATTICE_GATE:
        errors.append(f"lattice_transmission: |dT|,|dR| = {dev:.3g} >= {LATTICE_GATE}")
    return errors


def check_lattice_two(res, params):
    """Two-excitation run: converged, bound-state decay rate kappa + Gamma
    within 10 %, bunched at zero separation."""
    linewidth = params.kappa + params.Gamma
    errors = []
    if not res.converged:
        errors.append("lattice_two_photon: not converged")
    rel = abs(res.decay_fit(3.0 / linewidth) - linewidth) / linewidth
    if not rel < 0.10:
        errors.append(f"lattice_two_photon: decay rate off by {rel:.3g}")
    bunching = res.bunching_ratio(3.0 / linewidth)
    if not bunching > 5.0:
        errors.append(f"lattice_two_photon: bunching ratio {bunching:.3g} <= 5")
    return errors


# ---------------------------------------------------------------------------
# self-test: every check must be able to fail


def corrupt_leading_digit(src, dst, column: int) -> None:
    """Copy a CSV, changing the leading digit of one field in a middle row."""
    lines = Path(src).read_text(encoding="utf-8").split("\n")
    row = 1 + (len(lines) - 2) // 2
    fields = lines[row].split(",")
    text = fields[column]
    k = next(i for i, ch in enumerate(text) if ch.isdigit())
    fields[column] = text[:k] + str((int(text[k]) + 5) % 10) + text[k + 1:]
    lines[row] = ",".join(fields)
    Path(dst).write_text("\n".join(lines), encoding="utf-8")


def drop_last_row(src, dst) -> None:
    lines = Path(src).read_text(encoding="utf-8").split("\n")
    Path(dst).write_text("\n".join(lines[:-2] + [""]), encoding="utf-8")


def flip_all_pass(src, dst) -> None:
    rep = json.loads(Path(src).read_text(encoding="utf-8"))
    rep["all_pass"] = not rep["all_pass"]
    Path(dst).write_text(json.dumps(rep), encoding="utf-8")


def wrong_sampled_density(src, dst, n: int, i: int, j: int) -> None:
    """Copy a binary map, changing the density at grid point (i, j).  The
    payload is the last 8*n*n bytes whatever the header's size."""
    shutil.copyfile(src, dst)
    offset = Path(dst).stat().st_size - 8 * n * n + 8 * (i * n + j)
    with open(dst, "r+b") as fh:
        fh.seek(offset)
        value = np.frombuffer(fh.read(8), dtype="<f8")[0]
        fh.seek(offset)
        fh.write(np.array([value * 1.5 + 1e-3], dtype="<f8").tobytes())


def selftest(cases) -> list[dict]:
    """Run each (name, src, dst, corrupt, check) case: ``corrupt(src, dst)``
    writes a damaged copy, and ``check(dst)`` must report errors on it."""
    results = []
    for name, src, dst, corrupt, check in cases:
        try:
            corrupt(src, dst)
            caught = bool(check(dst))
        except Exception as exc:  # a crash in the self-test is a miss, reported
            results.append({"name": name, "caught": False, "error": repr(exc)})
            continue
        results.append({"name": name, "caught": caught})
    return results
