"""The three workloads: their inputs, drawn from the seed, and their operations.

Every pass of a run repeats the same operations on the same inputs, so the
files of any two passes must be byte-identical.  An operation is one
``chiral_diode.cli.main`` invocation or one public-function call; its
duration is what ``wall_s`` sums.  Checks run after the timed part.

Why these workloads:

* ``reproduce`` is every text output a user asks for (figures, sweep,
  working areas, CSV map at the default 401 grid): per-point Python loops
  and the CSV writer carry it, and no lattice runs.
* ``maps`` writes large binary density maps, one channel per call, for both
  tunings and both incidence sides, and reads each back: the dense
  broadcast kernel carries it, with the separable channels (tt, rr) timed
  apart from the mixed one (rt).
* ``oracle`` is the certification path: ``verify --suite analytic`` plus
  one single-excitation lattice run at the package's default geometry and
  one two-excitation run.  The full ``verify --suite all
  --two-photon-lattice`` takes about 90 s, too long to repeat within a run,
  so the two-excitation run uses the default geometry cut to 361 sites.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import chiral_diode.cli as cli
import chiral_diode.verification.lattice as lattice
from chiral_diode import make_params, two_photon
from chiral_diode.model import Direction, TwoPhotonIn

from . import checks

WORKLOADS = ("reproduce", "maps", "oracle")
FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9")
GRID = 401
MAP_POINTS = 2001
DENSITY_SAMPLES = 64
# works both before and after the default changes from "printed"
CONVENTION = "reconstructed"
DIRECTIONS = {"left": Direction.LEFT_INCIDENT, "right": Direction.RIGHT_INCIDENT}
TWO_PHOTON_SITES = 361
TWO_PHOTON_ABSORBER = 20


@dataclass
class Op:
    """One timed operation.

    ``run(opdir)`` is timed and returns a value; ``after(value, opdir, full)``
    is not timed and returns error strings: with ``full`` False it only
    looks at the exit status, with ``full`` True it checks every output.
    ``known_defect`` names the cause of a failure the program is known to
    have; such an operation is reported on its own, not in ``failed``.
    """

    name: str
    run: Callable[[Path], object]
    after: Callable[[object, Path, bool], list]
    known_defect: str | None = None


def opdir_name(name: str) -> str:
    """Directory (under the pass's output directory) of an operation."""
    return re.sub(r"[^A-Za-z0-9+.-]+", "_", name)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _u(rng, lo, hi) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


def call_cli(argv: list[str]) -> int:
    """``cli.main`` with its standard output (paths, reports) discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cli_op(name, argv_of, check, known_defect=None) -> Op:
    """An operation that runs ``cli.main(argv_of(opdir))``."""

    def after(rc, opdir, full):
        if rc != 0:
            return [f"{name}: exit code {rc}"]
        return check(opdir) if full else []

    return Op(name, lambda opdir: call_cli(argv_of(opdir)), after, known_defect)


def _grid_text(lo, hi, n) -> str:
    return f"{lo!r}:{hi!r}:{n}"


def _pair(params, resonance: str, direction: str) -> TwoPhotonIn:
    w1 = params.omega_a
    w2 = w1 if resonance == "single-photon" else w1 + 2.0 * params.U
    return TwoPhotonIn(DIRECTIONS[direction], w1, w2)


def _samples(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.integers(0, n, DENSITY_SAMPLES), rng.integers(0, n, DENSITY_SAMPLES)


def _param_flags(p) -> list[str]:
    return [
        f"--omega-a={p['omega_a']!r}", f"--kappa={p['kappa']!r}", f"--U={p['U']!r}",
        f"--gamma1={p['gamma1']!r}",
    ]


# ---------------------------------------------------------------------------
# reproduce


def _figure_tables(fig: str, n: int):
    """(panel, header, rows) of each plain table a figure writes; the
    working-area tables of fig6 have checks of their own."""
    line = ("gamma1_over_Gamma", "Gamma_x", "density")
    curve = ("gamma1_over_Gamma", "psi_tt_sq", "psi_tt_tilde_sq")
    if fig == "fig2":
        return [(p, ("gamma1_over_Gamma", "detuning_over_Gamma", col), 5 * n)
                for p, col in (("a", "T"), ("b", "R"))]
    if fig == "fig3":
        return [(p, ("gamma1_over_Gamma", "T_left", "T_right", "R"), n) for p in "abcd"]
    if fig in ("fig4", "fig7"):
        return [(p, line, n * n) for p in "abcd"]
    if fig in ("fig5", "fig8"):
        return [(p, curve, n) for p in "abcd"]
    if fig == "fig9":
        return [(p, curve, n) for p in "ab"]
    return []


def _check_figure(fig: str, n: int, opdir: Path) -> list:
    errors = []
    try:
        manifest = json.loads((opdir / f"{fig}_manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{fig}: unreadable manifest ({exc})"]
    names = sorted(e["file"] for e in manifest.get("files", []))
    written = sorted(p.name for p in opdir.glob("*.csv"))
    if manifest.get("grid_points") != n or names != written:
        errors.append(f"{fig}: manifest lists {names} at grid {manifest.get('grid_points')}, "
                      f"directory holds {written}")
    for panel, header, rows in _figure_tables(fig, n):
        errors += checks.check_table(opdir / f"{fig}{panel}.csv", header, rows)[0]
    if fig == "fig6":
        errors += checks.check_working_area_single(opdir / "fig6a.csv", 1.0, np.linspace(0, 1, n))
        errors += checks.check_working_area_two(opdir / "fig6b.csv", 0.0, 0.4, 10.0)
    return errors


def reproduce_ops(seed: int) -> tuple[list[Op], list]:
    rng = _rng(seed, "reproduce")
    ops = []
    for fig in FIGURES:
        ops.append(_cli_op(
            f"reproduce {fig}",
            lambda d, fig=fig: ["reproduce", fig, "--grid", str(GRID), "--outdir", str(d)],
            lambda d, fig=fig: _check_figure(fig, GRID, d),
        ))

    half = _u(rng, 2.0, 6.0)
    # gamma1 = 1 (gamma2 = 0) makes Gamma exactly 1, the top of the gamma1 grid
    single = {"omega_a": _u(rng, -1, 1), "kappa": _u(rng, 0.05, 3.0), "U": 0.0, "gamma1": 1.0}
    direction = str(rng.choice(["left", "right"]))
    ops.append(_cli_op(
        "single",
        lambda d: ["single", *_param_flags(single), f"--detuning={_grid_text(-half, half, GRID)}",
                   "--gamma1-grid=0:1:401", "--direction", direction, "--format", "csv",
                   "-o", str(d / "single.csv")],
        lambda d: checks.check_single(d / "single.csv", GRID * GRID),
    ))

    wa1 = {"omega_a": 0.0, "kappa": _u(rng, 0.0, 1.5), "U": 10.0, "gamma1": 1.0}
    ops.append(_cli_op(
        "working-area single-photon-resonance",
        lambda d: ["working-area", "--case", "single-photon-resonance", *_param_flags(wa1),
                   "--gamma1-grid=0:1:401", "--format", "csv", "-o", str(d / "wa.csv")],
        lambda d: checks.check_working_area_single(d / "wa.csv", wa1["kappa"],
                                                   np.linspace(0, 1, GRID)),
    ))

    wa2 = {"omega_a": _u(rng, -1, 1), "kappa": _u(rng, 0.0, 0.8), "U": _u(rng, 4.0, 15.0),
           "gamma1": 1.0}
    plus = "working-area two-photon-resonance +U"

    def two_res_argv(d, sign):
        p = dict(wa2, U=sign * wa2["U"])
        return ["working-area", "--case", "two-photon-resonance", *_param_flags(p),
                "--gx-ceiling=20.0", "--format", "csv", "-o", str(d / "wa.csv")]

    ops.append(_cli_op(
        plus,
        lambda d: two_res_argv(d, 1.0),
        lambda d: checks.check_working_area_two(d / "wa.csv", wa2["omega_a"], wa2["kappa"],
                                                wa2["U"]),
    ))
    ops.append(_cli_op(
        "working-area two-photon-resonance -U",
        lambda d: two_res_argv(d, -1.0),
        lambda d: checks.check_working_area_two(d / "wa.csv", wa2["omega_a"], wa2["kappa"],
                                                -wa2["U"])
        + checks.check_same_zero_set(d.parent / opdir_name(plus) / "wa.csv", d / "wa.csv"),
        known_defect="working_area_two_res enumerates tangent branches for U > 0 only, "
        "so U < 0 yields an empty curve (ROADMAP item 4)",
    ))

    tm = {"omega_a": _u(rng, -1, 1), "kappa": _u(rng, 0.2, 2.0), "U": _u(rng, 2.0, 15.0),
          "gamma1": _u(rng, 0.3, 1.0)}
    resonance = str(rng.choice(["single-photon", "two-photon"]))
    tm_dir = str(rng.choice(["left", "right"]))
    x = np.linspace(-5.0, 5.0, GRID)
    samples = _samples(rng, GRID)
    channels = ("tt", "rr", "rt")

    def map_check(d):
        params = make_params(tm["omega_a"], tm["kappa"], tm["U"], tm["gamma1"], 1 - tm["gamma1"])
        fld = two_photon.TwoPhotonField(params, _pair(params, resonance, tm_dir))
        return checks.check_map_csv(d / "map.csv", fld, x, channels, CONVENTION, samples)

    ops.append(_cli_op(
        "twomap csv tt,rr,rt",
        lambda d: ["twomap", *_param_flags(tm), "--resonance", resonance, "--direction", tm_dir,
                   "--x=-5:5:401", "--channels", ",".join(channels), "--convention", CONVENTION,
                   "--format", "csv", "-o", str(d / "map.csv")],
        map_check,
    ))

    selftests = [
        ("corrupted byte (single sweep T)", "single", "single.csv",
         lambda src, dst: checks.corrupt_leading_digit(src, dst, 2),
         lambda path: checks.check_single(path, GRID * GRID)),
        ("dropped row (fig3a)", "reproduce fig3", "fig3a.csv", checks.drop_last_row,
         lambda path: checks.check_table(path, _figure_tables("fig3", GRID)[0][1], GRID)[0]),
    ]
    return ops, selftests


# ---------------------------------------------------------------------------
# maps


def maps_ops(seed: int) -> tuple[list[Op], list]:
    rng = _rng(seed, "maps")
    p = {"omega_a": 0.0, "kappa": _u(rng, 0.2, 2.0), "U": _u(rng, 2.0, 15.0),
         "gamma1": _u(rng, 0.3, 1.0)}
    half = _u(rng, 4.0, 8.0)
    x = np.linspace(-half, half, MAP_POINTS)
    samples = _samples(rng, MAP_POINTS)
    params = make_params(p["omega_a"], p["kappa"], p["U"], p["gamma1"], 1.0 - p["gamma1"])
    ops = []
    for resonance in ("single-photon", "two-photon"):
        for direction in ("left", "right"):
            for ch in ("tt", "rr", "rt"):
                name = f"twomap binary {resonance} {direction} {ch}"

                def run(d, resonance=resonance, direction=direction, ch=ch):
                    rc = call_cli([
                        "twomap", *_param_flags(p), "--resonance", resonance,
                        "--direction", direction, f"--x={_grid_text(-half, half, MAP_POINTS)}",
                        "--channels", ch, "--convention", CONVENTION, "--format", "binary",
                        "-o", str(d / "map.bin"),
                    ])
                    if rc == 0:
                        two_photon.read_map_binary(d / "map.bin")
                    return rc

                def after(rc, d, full, name=name, resonance=resonance,
                          direction=direction, ch=ch):
                    if rc != 0:
                        return [f"{name}: exit code {rc}"]
                    if not full:
                        return []
                    fld = two_photon.TwoPhotonField(params, _pair(params, resonance, direction))
                    return checks.check_map_file(d / "map.bin", x, fld, ch, CONVENTION, samples)

                ops.append(Op(name, run, after))

    fld = two_photon.TwoPhotonField(params, _pair(params, "single-photon", "left"))
    i, j = int(samples[0][0]), int(samples[1][0])
    selftests = [
        ("wrong sampled density (binary map)", ops[0].name, "map.bin",
         lambda src, dst: checks.wrong_sampled_density(src, dst, MAP_POINTS, i, j),
         lambda path: checks.check_map_file(path, x, fld, "tt", CONVENTION, samples)),
        ("dropped row (binary map)", ops[0].name, "map.bin",
         lambda src, dst: Path(dst).write_bytes(Path(src).read_bytes()[:-8 * MAP_POINTS]),
         lambda path: checks.check_map_file(path, x, fld, "tt", CONVENTION, samples)),
    ]
    return ops, selftests


# ---------------------------------------------------------------------------
# oracle


def _write_record(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def oracle_ops(seed: int) -> tuple[list[Op], list]:
    rng = _rng(seed, "oracle")

    def verify_after(rc, d, full):
        errors = [] if rc == 0 else [f"verify analytic: exit code {rc}"]
        # exit code 2 is a failed verification, whose report names the cause
        if rc == 2 or (rc == 0 and full):
            errors += checks.check_verify_report(d / "verify_report.json")
        return errors

    ops = [Op(
        "verify analytic",
        lambda d: call_cli(["verify", "--suite", "analytic", "--seed", str(seed),
                            "--draws", "200", "-o", str(d / "verify_report.json")]),
        verify_after,
    )]

    g1 = _u(rng, 0.0, 1.0)
    single = make_params(0.0, round(float(10 ** rng.uniform(-2, 2)), 6), 0.0, g1, 1.0 - g1)
    direction = DIRECTIONS[str(rng.choice(["left", "right"]))]

    def run_single(d):
        return lattice.lattice_transmission(lattice.default_single_spec(), single, 0.0, direction)

    def after_single(res, d, full):
        _write_record(d / "lattice.json", {"T": res.T, "R": res.R, "T_raw": res.T_raw,
                                           "R_raw": res.R_raw, "converged": res.converged})
        return checks.check_lattice_single(res, single, direction)

    ops.append(Op("lattice_transmission", run_single, after_single))

    # at kappa = Gamma the plane part of the transmitted pair vanishes on
    # resonance, so the profile is the pure bound state the checks fit
    pair_params = make_params(0.0, 1.0, _u(rng, 6.0, 15.0), 1.0, 0.0)
    spec = dataclasses.replace(lattice.default_two_photon_spec(), n_sites=TWO_PHOTON_SITES,
                               absorber_width=TWO_PHOTON_ABSORBER)
    pair = TwoPhotonIn(Direction.LEFT_INCIDENT, 0.0, 0.0)

    def after_pair(res, d, full):
        _write_record(d / "lattice_two_photon.json", {
            "density": res.density.tolist(), "transmitted_norm": res.transmitted_norm,
            "converged": res.converged})
        return checks.check_lattice_two(res, pair_params)

    ops.append(Op("lattice_two_photon",
                  lambda d: lattice.lattice_two_photon(spec, pair_params, pair), after_pair))

    selftests = [
        ("flipped all_pass (verify report)", "verify analytic", "verify_report.json",
         checks.flip_all_pass, checks.check_verify_report),
    ]
    return ops, selftests


# workload -> builder of (operations, self-tests); a self-test is
# (name, source operation, file, corrupt(src, dst), check(path) -> errors)
BUILDERS = {"reproduce": reproduce_ops, "maps": maps_ops, "oracle": oracle_ops}
