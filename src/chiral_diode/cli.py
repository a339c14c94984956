"""Command-line front end: sweeps, maps, working areas, verification, figures.

Subcommands
-----------
``single``
    Single-photon transmission/reflection sweep over detuning (and
    optionally over the coupling asymmetry), written as CSV or JSON.
``twomap``
    Two-photon output density on a square coordinate grid, written as
    CSV, JSON, or the compact one-channel binary map format.
``working-area``
    Diode working-area curves (separation vs. coupling asymmetry) for
    either incident-pair tuning.
``verify``
    Run the verification suites and emit a JSON report; the process exits
    0 only if every gated check passes.
``reproduce``
    Regenerate the reference data sets (``fig2`` .. ``fig9``) with their
    published parameter values baked in, one CSV per panel plus a JSON
    manifest describing each file.

Conventions shared by all subcommands: grids are written ``lo:hi:count``
with both endpoints included; ``--config file.json`` supplies defaults
for any long option (command-line flags win); data files contain no
timestamps, so identical invocations produce byte-identical output.
Exit codes: 0 success, 1 invalid arguments or configuration (or out of
memory), 2 verification failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .diode_analysis import (
    WorkingAreaCase,
    working_area_single_res,
    working_area_two_res,
    write_working_area_csv,
)
from .io_utils import write_csv
from .model import (
    Direction,
    ModelParams,
    PhotonIn,
    TwoPhotonIn,
    make_params,
)
from .single_photon import SWEEP_HEADER, chiral_coeffs, sweep_single, write_sweep_csv
from .two_photon import (
    TwoPhotonField,
    map_two_photon,
    write_map_binary,
    write_map_csv,
)
from .verification import VERIFY_SUITES, verify_all

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFY = 2
EXIT_IO = 3

_DIRECTIONS = {
    "left": Direction.LEFT_INCIDENT,
    "right": Direction.RIGHT_INCIDENT,
}

_CASES = {
    "single-photon-resonance": WorkingAreaCase.SINGLE_PHOTON_RESONANCE,
    "two-photon-resonance": WorkingAreaCase.TWO_PHOTON_RESONANCE,
}


class CliError(Exception):
    """Invalid arguments or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise instead of exiting 2.

    Also widens argparse's negative-number detection so grid values such
    as ``-4:4:401`` are read as option values, not unknown flags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+[\d.:eE+-]*$")

    def error(self, message):  # noqa: A002 - argparse API
        raise CliError(message)


# ---------------------------------------------------------------------------
# shared argument plumbing


def _parse_grid(text, name: str) -> np.ndarray:
    """Inclusive ``lo:hi:count`` grid specification."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise CliError(f"{name}: expected lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliError(f"{name}: {exc}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise CliError(f"{name}: endpoints must be finite, got {text!r}")
    if count < 1:
        raise CliError(f"{name}: count must be >= 1, got {count}")
    return np.linspace(lo, hi, count)


def _float(value, name: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise CliError(f"{name}: expected a number, got {value!r}") from None
    if not np.isfinite(x):
        raise CliError(f"{name}: expected a finite number, got {value!r}")
    return x


def _int(value, name: str) -> int:
    message = f"{name}: expected an integer, got {value!r}"
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        raise CliError(message) from None
    if isinstance(value, float) and n != value:
        raise CliError(message)
    return n


def _params_from_args(args) -> ModelParams:
    """Model parameters from the common flags.

    When ``--gamma2`` is omitted it defaults to ``1 - gamma1`` (total
    coupling 1, the reduced-unit convention of the data sets) as long as
    ``gamma1 <= 1``, and to 0 otherwise.
    """
    gamma1 = _float(args.gamma1, "gamma1")
    if args.gamma2 is None:
        gamma2 = 1.0 - gamma1 if gamma1 <= 1.0 else 0.0
    else:
        gamma2 = _float(args.gamma2, "gamma2")
    try:
        return make_params(
            omega_a=_float(args.omega_a, "omega-a"),
            kappa=_float(args.kappa, "kappa"),
            U=_float(args.U, "U"),
            gamma1=gamma1,
            gamma2=gamma2,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _resonant_frequencies(params: ModelParams, case: WorkingAreaCase) -> tuple[float, float]:
    """Incident pair frequencies for the named tuning.

    Single-photon resonance puts both photons on the cavity line; the
    two-photon tuning splits them as (omega_a, omega_a + 2U) so the pair
    energy matches the Kerr-shifted two-photon transition.
    """
    if case is WorkingAreaCase.SINGLE_PHOTON_RESONANCE:
        return params.omega_a, params.omega_a
    return params.omega_a, params.omega_a + 2.0 * params.U


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_cli_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise CliError(f"config {path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise CliError(f"config {path}: root must be a JSON object")
    return data


def _apply_config(args, defaults: dict) -> None:
    """Fill unset options from the config file, then from built-in defaults.

    Every option is declared with default ``None`` so that an explicit
    command-line flag always wins; config keys use the option's long name
    with underscores.  Unknown keys are rejected with a field-level
    message rather than silently ignored.
    """
    config = _load_cli_config(args.config) if args.config is not None else {}
    unknown = set(config) - set(defaults)
    if unknown:
        raise CliError(
            f"config: unknown keys for '{args.command}': {sorted(unknown)}"
        )
    for dest, fallback in defaults.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, config.get(dest, fallback))


# ---------------------------------------------------------------------------
# single


_SINGLE_DEFAULTS = {
    "omega_a": 0.0,
    "kappa": 1.0,
    "U": 0.0,
    "gamma1": 1.0,
    "gamma2": None,
    "detuning": "-4:4:401",
    "gamma1_grid": None,
    "direction": "left",
    "output": "single_sweep.csv",
    "format": "csv",
}


def _cmd_single(args) -> int:
    _apply_config(args, _SINGLE_DEFAULTS)
    params = _params_from_args(args)
    detuning = _parse_grid(args.detuning, "detuning")
    if args.gamma1_grid is None:
        gamma1_grid: Sequence[float] = [params.gamma1]
    else:
        gamma1_grid = list(_parse_grid(args.gamma1_grid, "gamma1-grid"))
    if args.direction not in _DIRECTIONS:
        raise CliError(f"direction: expected left or right, got {args.direction!r}")
    try:
        rows = sweep_single(params, detuning, gamma1_grid, _DIRECTIONS[args.direction])
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.format == "csv":
        write_sweep_csv(args.output, rows)
    elif args.format == "json":
        _write_json(args.output, {"header": list(SWEEP_HEADER), "rows": rows.tolist()})
    else:
        raise CliError(f"format: expected csv or json, got {args.format!r}")
    print(args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# twomap


_TWOMAP_DEFAULTS = {
    "omega_a": 0.0,
    "kappa": 1.0,
    "U": 10.0,
    "gamma1": 1.0,
    "gamma2": None,
    "resonance": "single-photon",
    "omega1": None,
    "omega2": None,
    "direction": "left",
    "x": "-5:5:401",
    "channels": "tt",
    "convention": "reconstructed",
    "output": None,
    "format": "csv",
}

_MAP_EXTENSIONS = {"csv": "csv", "json": "json", "binary": "bin"}


def _cmd_twomap(args) -> int:
    _apply_config(args, _TWOMAP_DEFAULTS)
    params = _params_from_args(args)
    if (args.omega1 is None) != (args.omega2 is None):
        raise CliError("omega1/omega2: give both explicit frequencies or neither")
    if args.omega1 is not None:
        w1 = _float(args.omega1, "omega1")
        w2 = _float(args.omega2, "omega2")
    else:
        case = {
            "single-photon": WorkingAreaCase.SINGLE_PHOTON_RESONANCE,
            "two-photon": WorkingAreaCase.TWO_PHOTON_RESONANCE,
        }.get(args.resonance)
        if case is None:
            raise CliError(
                f"resonance: expected single-photon or two-photon, got {args.resonance!r}"
            )
        w1, w2 = _resonant_frequencies(params, case)
    if args.direction not in _DIRECTIONS:
        raise CliError(f"direction: expected left or right, got {args.direction!r}")
    channels = tuple(c.strip() for c in str(args.channels).split(",") if c.strip())
    bad = [c for c in channels if c not in ("tt", "rr", "rt")]
    if bad or not channels:
        raise CliError(f"channels: expected a comma list from tt,rr,rt, got {args.channels!r}")
    if args.format not in _MAP_EXTENSIONS:
        raise CliError(f"format: expected csv, json, or binary, got {args.format!r}")
    if args.format == "binary" and len(channels) > 1:
        raise CliError(f"channels: a binary map holds one channel, got {args.channels!r}")
    x = _parse_grid(args.x, "x")

    incoming = TwoPhotonIn(_DIRECTIONS[args.direction], w1, w2)
    field = TwoPhotonField(params, incoming)
    try:
        maps = map_two_photon(field, x, channels, args.convention)
    except ValueError as exc:
        raise CliError(str(exc)) from None

    output = args.output or f"two_photon_map.{_MAP_EXTENSIONS[args.format]}"
    if args.format == "csv":
        write_map_csv(output, x, maps)
    elif args.format == "json":
        _write_json(
            output,
            {
                "x_grid": x.tolist(),
                "channels": {ch: maps[ch].tolist() for ch in channels},
            },
        )
    else:
        write_map_binary(output, x, maps[channels[0]])
    print(output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# working-area


_WORKING_AREA_DEFAULTS = {
    "omega_a": 0.0,
    "kappa": 1.0,
    "U": 10.0,
    "gamma1": 1.0,
    "gamma2": None,
    "case": "single-photon-resonance",
    "gamma1_grid": "0:1:401",
    "gx_ceiling": 20.0,
    "output": "working_area.csv",
    "format": "csv",
}


def _cmd_working_area(args) -> int:
    _apply_config(args, _WORKING_AREA_DEFAULTS)
    params = _params_from_args(args)
    case = _CASES.get(args.case)
    if case is None:
        raise CliError(
            f"case: expected one of {sorted(_CASES)}, got {args.case!r}"
        )
    if case is WorkingAreaCase.SINGLE_PHOTON_RESONANCE:
        grid = _parse_grid(args.gamma1_grid, "gamma1-grid")
        curve = working_area_single_res(params, grid)
    else:
        curve = working_area_two_res(params, gx_ceiling=_float(args.gx_ceiling, "gx-ceiling"))
    if args.format == "csv":
        write_working_area_csv(args.output, curve)
    elif args.format == "json":
        points = []
        for p in curve.points:
            d = dataclasses.asdict(p)
            if not np.isfinite(d["Gamma_abs_x"]):
                # keep the JSON strictly standard: divergences carry null
                d["Gamma_abs_x"] = None
            points.append(d)
        _write_json(args.output, {"case": curve.case.value, "points": points})
    else:
        raise CliError(f"format: expected csv or json, got {args.format!r}")
    print(args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


_VERIFY_DEFAULTS = {
    "suite": "all",
    "skip_lattice": False,
    "two_photon_lattice": False,
    "draws": 300,
    "seed": 20240817,
    "output": None,
}


def _cmd_verify(args) -> int:
    _apply_config(args, _VERIFY_DEFAULTS)
    if args.suite not in VERIFY_SUITES:
        raise CliError(f"suite: expected one of {VERIFY_SUITES}, got {args.suite!r}")
    draws, seed = _int(args.draws, "draws"), _int(args.seed, "seed")
    if draws < 1:
        raise CliError(f"draws: must be >= 1, got {draws}")
    if seed < 0:
        raise CliError(f"seed: must be >= 0, got {seed}")
    report = verify_all(
        include_lattice=not args.skip_lattice,
        include_two_photon_lattice=bool(args.two_photon_lattice),
        n_draws=draws,
        seed=seed,
        suite=args.suite,
    )
    text = report.as_json_text()
    print(text)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return EXIT_OK if report.all_pass else EXIT_VERIFY


# ---------------------------------------------------------------------------
# reproduce

_REPRODUCE_DEFAULTS = {
    "grid": 401,
    "outdir": ".",
}

_FIG2_GAMMA1_SERIES = (0.0, 0.25, 0.5, 0.75, 1.0)


def _reduced_params(kappa, U, gamma1) -> ModelParams:
    """Parameters in reduced units: Gamma = 1, omega_a = 0 (rates may be
    arrays)."""
    return make_params(omega_a=0.0, kappa=kappa, U=U, gamma1=gamma1, gamma2=1.0 - gamma1)


def _panel(outdir: Path, fig: str, panel: str, params: dict, write: Callable, *data) -> dict:
    """Write panel ``<fig><panel>.csv`` with ``write(path, *data)`` and
    return its manifest entry."""
    name = f"{fig}{panel}.csv"
    write(outdir / name, *data)
    return {"file": name, "panel": panel, "params": params}


def _fig2(n: int, outdir: Path) -> list[dict]:
    detuning = np.linspace(-4.0, 4.0, n)
    gamma1 = np.array(_FIG2_GAMMA1_SERIES)[:, None]
    p = _reduced_params(1.0, 0.0, gamma1)
    c = chiral_coeffs(p, PhotonIn(Direction.LEFT_INCIDENT, p.omega_a + detuning))
    return [
        _panel(
            outdir, "fig2", panel,
            {
                "kappa_over_Gamma": 1.0,
                "quantity": f"left-incident {column} vs detuning",
                "gamma1_over_Gamma_series": list(_FIG2_GAMMA1_SERIES),
            },
            write_csv,
            ("gamma1_over_Gamma", "detuning_over_Gamma", column),
            (gamma1, detuning, values),
        )
        for panel, column, values in (("a", "T", c.T), ("b", "R", c.R))
    ]


_FIG3_HEADER = ("gamma1_over_Gamma", "T_left", "T_right", "R")


def _fig3(n: int, outdir: Path) -> list[dict]:
    panels = [
        ("a", np.linspace(0.0, 1.0, n), lambda g1: 1.0, {"kappa_over_Gamma": 1.0}),
        ("b", np.linspace(0.0, 1.0, n), lambda g1: 0.01, {"kappa_over_Gamma": 0.01}),
        ("c", np.linspace(0.0, 1.0, n), lambda g1: 100.0, {"kappa_over_Gamma": 100.0}),
        (
            "d",
            np.linspace(0.5, 1.0, n),
            lambda g1: 2.0 * g1 - 1.0,
            {"kappa_over_Gamma": "gamma1 - gamma2 (blocking family)"},
        ),
    ]
    entries = []
    for panel, grid, kappa_of_g1, note in panels:
        p = _reduced_params(kappa_of_g1(grid), 0.0, grid)
        left = chiral_coeffs(p, PhotonIn(Direction.LEFT_INCIDENT, p.omega_a))
        right = chiral_coeffs(p, PhotonIn(Direction.RIGHT_INCIDENT, p.omega_a))
        params = {"detuning": 0.0, "quantity": "T and R vs gamma1/Gamma, both incidences", **note}
        entries.append(
            _panel(
                outdir, "fig3", panel, params,
                write_csv, _FIG3_HEADER, (grid, left.T, right.T, left.R),
            )
        )
    return entries


def _separation_density(
    params: ModelParams, case: WorkingAreaCase, x: np.ndarray, incident: Direction
) -> np.ndarray:
    """|psi_tt|^2 against photon separation in the transmitted region.

    In the transmitted region the density depends on the coordinates only
    through the separation, so the cut is taken one unit downstream of
    the coupling point on the exit side.  Array rates in ``params``
    broadcast against ``x``.
    """
    w1, w2 = _resonant_frequencies(params, case)
    field = TwoPhotonField(params, TwoPhotonIn(incident, w1, w2))
    sign = 1.0 if incident is Direction.LEFT_INCIDENT else -1.0
    x1 = np.full_like(x, sign)
    x2 = sign * (1.0 + x)
    return field.densities(x1, x2, ("tt",))["tt"]


_MAP_HEADER = ("gamma1_over_Gamma", "Gamma_x", "density")
_CASE_LABEL = {
    WorkingAreaCase.SINGLE_PHOTON_RESONANCE: "single-photon resonance",
    WorkingAreaCase.TWO_PHOTON_RESONANCE: "two-photon resonance",
}


def _density_maps(
    fig: str, n: int, outdir: Path, kappa: float, x_max: float
) -> list[dict]:
    """Four panels: both tunings x both incidences, over (gamma1, separation)."""
    gamma1_grid = np.linspace(0.0, 1.0, n)[:, None]
    x_grid = np.linspace(0.0, x_max, n)
    params = _reduced_params(kappa, 10.0, gamma1_grid)
    panels = [
        ("a", WorkingAreaCase.SINGLE_PHOTON_RESONANCE, Direction.LEFT_INCIDENT),
        ("b", WorkingAreaCase.SINGLE_PHOTON_RESONANCE, Direction.RIGHT_INCIDENT),
        ("c", WorkingAreaCase.TWO_PHOTON_RESONANCE, Direction.LEFT_INCIDENT),
        ("d", WorkingAreaCase.TWO_PHOTON_RESONANCE, Direction.RIGHT_INCIDENT),
    ]
    return [
        _panel(
            outdir, fig, panel,
            {
                "kappa_over_Gamma": kappa,
                "U_over_Gamma": 10.0,
                "tuning": _CASE_LABEL[case],
                "incident": "left" if incident is Direction.LEFT_INCIDENT else "right",
                "Gamma_x_max": x_max,
            },
            write_csv,
            _MAP_HEADER,
            (gamma1_grid, x_grid, _separation_density(params, case, x_grid, incident)),
        )
        for panel, case, incident in panels
    ]


_CURVE_HEADER = ("gamma1_over_Gamma", "psi_tt_sq", "psi_tt_tilde_sq")


def _density_curves(
    fig: str, n: int, outdir: Path, kappa: float,
    panels: Sequence[tuple[str, WorkingAreaCase, float]],
) -> list[dict]:
    gamma1_grid = np.linspace(0.0, 1.0, n)
    params = _reduced_params(kappa, 10.0, gamma1_grid)
    return [
        _panel(
            outdir, fig, panel,
            {
                "kappa_over_Gamma": kappa,
                "U_over_Gamma": 10.0,
                "tuning": _CASE_LABEL[case],
                "Gamma_x": gx,
            },
            write_csv,
            _CURVE_HEADER,
            (
                gamma1_grid,
                _separation_density(params, case, np.array([gx]), Direction.LEFT_INCIDENT),
                _separation_density(params, case, np.array([gx]), Direction.RIGHT_INCIDENT),
            ),
        )
        for panel, case, gx in panels
    ]


def _fig6(n: int, outdir: Path) -> list[dict]:
    single = working_area_single_res(
        _reduced_params(1.0, 10.0, 1.0), np.linspace(0.0, 1.0, n)
    )
    two = working_area_two_res(_reduced_params(0.4, 10.0, 1.0))
    return [
        _panel(
            outdir, "fig6", "a",
            {
                "kappa_over_Gamma": 1.0,
                "tuning": _CASE_LABEL[WorkingAreaCase.SINGLE_PHOTON_RESONANCE],
                "curve": "strong-Kerr null separation vs gamma1/Gamma",
            },
            write_working_area_csv, single,
        ),
        _panel(
            outdir, "fig6", "b",
            {
                "kappa_over_Gamma": 0.4,
                "U_over_Gamma": 10.0,
                "tuning": _CASE_LABEL[WorkingAreaCase.TWO_PHOTON_RESONANCE],
                "curve": "exact null separation vs gamma1/Gamma, all branches",
            },
            write_working_area_csv, two,
        ),
    ]


_SPR = WorkingAreaCase.SINGLE_PHOTON_RESONANCE
_TPR = WorkingAreaCase.TWO_PHOTON_RESONANCE

_FIGURES: dict[str, Callable[[int, Path], list[dict]]] = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": partial(_density_maps, "fig4", kappa=1.0, x_max=4.0),
    "fig5": partial(
        _density_curves, "fig5", kappa=1.0,
        panels=[("a", _SPR, 0.0), ("b", _SPR, 2.0), ("c", _TPR, 0.0), ("d", _TPR, 1.9)],
    ),
    "fig6": _fig6,
    "fig7": partial(_density_maps, "fig7", kappa=0.01, x_max=10.0),
    "fig8": partial(
        _density_curves, "fig8", kappa=0.01,
        panels=[("a", _SPR, 0.0), ("b", _SPR, 5.0), ("c", _TPR, 0.15), ("d", _TPR, 10.0)],
    ),
    "fig9": partial(
        _density_curves, "fig9", kappa=100.0, panels=[("a", _SPR, 0.0), ("b", _SPR, 5.0)]
    ),
}


def _cmd_reproduce(args) -> int:
    _apply_config(args, _REPRODUCE_DEFAULTS)
    if args.figure not in _FIGURES:
        raise CliError(f"figure: expected one of {sorted(_FIGURES)}, got {args.figure!r}")
    n = _int(args.grid, "grid")
    if n < 2:
        raise CliError(f"grid: need at least 2 points, got {n}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = _FIGURES[args.figure](n, outdir)
    manifest = {"figure": args.figure, "grid_points": n, "files": entries}
    manifest_name = f"{args.figure}_manifest.json"
    _write_json(outdir / manifest_name, manifest)
    for entry in entries:
        print(os.path.join(args.outdir, entry["file"]))
    print(os.path.join(args.outdir, manifest_name))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--omega-a", dest="omega_a", type=float, help="cavity frequency (default 0)")
    sub.add_argument("--kappa", type=float, help="cavity loss rate")
    sub.add_argument("--U", type=float, help="Kerr interaction strength")
    sub.add_argument("--gamma1", type=float, help="coupling to right-movers")
    sub.add_argument(
        "--gamma2",
        type=float,
        help="coupling to left-movers (default 1 - gamma1 when gamma1 <= 1, else 0)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="chiral-diode",
        description="Photon transport through a chirally coupled dissipative Kerr cavity.",
    )
    parser.add_argument(
        "--config",
        help="JSON file of option defaults for the chosen subcommand (flags win)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("single", help="single-photon transmission/reflection sweep")
    _add_param_flags(p)
    p.add_argument("--detuning", help="detuning grid lo:hi:count (default -4:4:401)")
    p.add_argument(
        "--gamma1-grid",
        dest="gamma1_grid",
        help="optional gamma1 grid lo:hi:count; sweeps asymmetry at fixed total coupling",
    )
    p.add_argument("--direction", choices=sorted(_DIRECTIONS), help="incidence side (default left)")
    p.add_argument("-o", "--output", help="output path (default single_sweep.csv)")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    p.set_defaults(func=_cmd_single)

    p = sub.add_parser("twomap", help="two-photon output density map")
    _add_param_flags(p)
    p.add_argument(
        "--resonance",
        choices=("single-photon", "two-photon"),
        help="incident pair tuning (default single-photon)",
    )
    p.add_argument("--omega1", type=float, help="explicit first incident frequency")
    p.add_argument("--omega2", type=float, help="explicit second incident frequency")
    p.add_argument("--direction", choices=sorted(_DIRECTIONS), help="incidence side (default left)")
    p.add_argument("--x", help="coordinate grid lo:hi:count (default -5:5:401)")
    p.add_argument("--channels", help="comma list from tt,rr,rt (default tt)")
    p.add_argument(
        "--convention",
        choices=("printed", "reconstructed"),
        help="mixed-channel phase convention: reconstructed (default, certified) "
        "or printed (published form, not certified)",
    )
    p.add_argument("-o", "--output", help="output path (default two_photon_map.<ext>)")
    p.add_argument("--format", choices=("csv", "json", "binary"), help="output format (default csv)")
    p.set_defaults(func=_cmd_twomap)

    p = sub.add_parser("working-area", help="diode working-area curves")
    _add_param_flags(p)
    p.add_argument(
        "--case",
        choices=sorted(_CASES),
        help="incident pair tuning (default single-photon-resonance)",
    )
    p.add_argument(
        "--gamma1-grid",
        dest="gamma1_grid",
        help="gamma1 grid lo:hi:count for the single-photon-resonance curve (default 0:1:401)",
    )
    p.add_argument(
        "--gx-ceiling",
        dest="gx_ceiling",
        type=float,
        help="largest Gamma|x| kept by the two-photon-resonance solver (default 20)",
    )
    p.add_argument("-o", "--output", help="output path (default working_area.csv)")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    p.set_defaults(func=_cmd_working_area)

    p = sub.add_parser("verify", help="run verification suites, emit a JSON report")
    p.add_argument(
        "--suite",
        choices=VERIFY_SUITES,
        help="residual: field-equation checks only; analytic: adds closed-form and "
        "working-area checks; all: adds the lattice cross-checks (default all)",
    )
    p.add_argument(
        "--skip-lattice",
        dest="skip_lattice",
        action="store_true",
        default=None,
        help="skip the lattice cross-checks within the 'all' suite",
    )
    p.add_argument(
        "--two-photon-lattice",
        dest="two_photon_lattice",
        action="store_true",
        default=None,
        help="also run the two-excitation lattice checks (slow)",
    )
    p.add_argument(
        "--draws",
        type=int,
        help="random draws for the residual suite and the closed-form checks (default 300)",
    )
    p.add_argument("--seed", type=int, help="base seed (default 20240817)")
    p.add_argument("-o", "--output", help="also write the JSON report to this path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reproduce", help="regenerate a reference data set (fig2..fig9)")
    p.add_argument("figure", help="figure id, fig2 through fig9")
    p.add_argument("--grid", type=int, help="points per grid axis (default 401)")
    p.add_argument("--outdir", help="output directory (default .)")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory ({exc}); a smaller grid needs less", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
