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

Each subcommand declares its options once, in one table of ``_Option``
entries (flags, default, parser, help).  An option's value comes from its
flag, else from the ``--config file.json`` key of the same name (long
option name with underscores), else from its default, and is then checked
by the option's one parser, so flags and config values are validated
alike and fail with the same ``error: <option>: ...`` message.
Conventions shared by all subcommands: grids are written ``lo:hi:count``
with both endpoints included; data files contain no timestamps, so
identical invocations produce byte-identical output.
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
from typing import Callable, NamedTuple, Sequence

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
# option parsers: ``parse(value, name)`` checks a flag string or a JSON
# config value and returns what the command uses


def _parse_grid(text, name: str) -> np.ndarray:
    """Inclusive ``lo:hi:count`` grid specification."""
    parts = text.split(":") if isinstance(text, str) else ()
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
        if isinstance(value, bool):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise CliError(f"{name}: expected a number, got {value!r}") from None
    if not np.isfinite(x):
        raise CliError(f"{name}: expected a finite number, got {value!r}")
    return x


def _int(value, name: str, *, lo: int) -> int:
    """An integer of at least ``lo``; a float config value must be whole."""
    message = f"{name}: expected an integer, got {value!r}"
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        raise CliError(message) from None
    if isinstance(value, bool) or (isinstance(value, float) and n != value):
        raise CliError(message)
    if n < lo:
        raise CliError(f"{name}: must be >= {lo}, got {n}")
    return n


def _path(value, name: str) -> str:
    if not isinstance(value, str):
        raise CliError(f"{name}: expected a path string, got {value!r}")
    return value


def _channels(value, name: str) -> tuple[str, ...]:
    """Comma list of exit channels."""
    parts = value.split(",") if isinstance(value, str) else ()
    channels = tuple(c.strip() for c in parts if c.strip())
    if not channels or any(c not in ("tt", "rr", "rt") for c in channels):
        raise CliError(f"{name}: expected a comma list from tt,rr,rt, got {value!r}")
    if len(set(channels)) < len(channels):
        raise CliError(f"{name}: each channel may appear once, got {value!r}")
    return channels


class _Choice(dict):
    """Parser of an option that names one of the keys; returns its value."""

    def __call__(self, value, name: str):
        if isinstance(value, str) and value in self:
            return self[value]
        raise CliError(f"{name}: expected one of {', '.join(self)}, got {value!r}")


def _names(*names: str) -> _Choice:
    return _Choice(zip(names, names))


class _Option(NamedTuple):
    """One option of a subcommand.

    ``flags`` are the space-separated option strings (a bare name is a
    positional).  Messages call the option by its last flag without
    dashes; its config key and attribute are that name with underscores.
    A ``None`` default means "unset" and skips the parser.
    """

    flags: str
    default: object
    parse: Callable
    help: str

    @property
    def name(self) -> str:
        return self.flags.split()[-1].lstrip("-")

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


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


def _apply_config(args) -> None:
    """Resolve each option of the subcommand: flag, then config, then
    default, then the option's parser.

    Flags are declared with default ``None`` so an explicit flag always
    wins.  A config ``null`` leaves an option whose default is ``None``
    unset; any other option's parser rejects it.  Unknown config keys are
    rejected with a field-level message rather than silently ignored.
    """
    config = _load_cli_config(args.config) if args.config is not None else {}
    unknown = set(config) - {o.dest for o in args.options if o.flags.startswith("-")}
    if unknown:
        raise CliError(
            f"config: unknown keys for '{args.command}': {sorted(unknown)}"
        )
    for opt in args.options:
        value = getattr(args, opt.dest)
        if value is None:
            value = config.get(opt.dest, opt.default)
        if value is not None or opt.default is not None:
            value = opt.parse(value, opt.name)
        setattr(args, opt.dest, value)


# ---------------------------------------------------------------------------
# shared model parameters


def _param_options(U: float) -> tuple[_Option, ...]:
    """The model-parameter options of ``single``, ``twomap`` and
    ``working-area``; only the Kerr default differs between them."""
    return (
        _Option("--omega-a", 0.0, _float, "cavity frequency"),
        _Option("--kappa", 1.0, _float, "cavity loss rate"),
        _Option("--U", U, _float, "Kerr interaction strength"),
        _Option("--gamma1", 1.0, _float, "coupling to right-movers"),
        _Option(
            "--gamma2", None, _float,
            "coupling to left-movers (default 1 - gamma1 when gamma1 <= 1, else 0)",
        ),
    )


def _params_from_args(args) -> ModelParams:
    """Model parameters from the common options.

    When ``--gamma2`` is omitted it defaults to ``1 - gamma1`` (total
    coupling 1, the reduced-unit convention of the data sets) as long as
    ``gamma1 <= 1``, and to 0 otherwise.
    """
    gamma2 = args.gamma2
    if gamma2 is None:
        gamma2 = 1.0 - args.gamma1 if args.gamma1 <= 1.0 else 0.0
    try:
        return make_params(
            omega_a=args.omega_a, kappa=args.kappa, U=args.U, gamma1=args.gamma1, gamma2=gamma2
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_DIRECTION = _Choice({d.value: d for d in Direction})


# ---------------------------------------------------------------------------
# single


_SINGLE = (
    *_param_options(U=0.0),
    _Option("--detuning", "-4:4:401", _parse_grid, "detuning grid lo:hi:count"),
    _Option(
        "--gamma1-grid", None, _parse_grid,
        "optional gamma1 grid lo:hi:count; sweeps asymmetry at fixed total coupling",
    ),
    _Option("--direction", "left", _DIRECTION, "incidence side"),
    _Option("-o --output", "single_sweep.csv", _path, "output path"),
    _Option("--format", "csv", _names("csv", "json"), "output format"),
)


def _cmd_single(args) -> int:
    params = _params_from_args(args)
    if args.gamma1_grid is None:
        gamma1_grid: Sequence[float] = [params.gamma1]
    else:
        gamma1_grid = list(args.gamma1_grid)
    try:
        rows = sweep_single(params, args.detuning, gamma1_grid, args.direction)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.format == "csv":
        write_sweep_csv(args.output, rows)
    else:
        _write_json(args.output, {"header": list(SWEEP_HEADER), "rows": rows.tolist()})
    print(args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# twomap


_TWOMAP = (
    *_param_options(U=10.0),
    _Option(
        "--resonance", "single-photon",
        _Choice({
            "single-photon": WorkingAreaCase.SINGLE_PHOTON_RESONANCE,
            "two-photon": WorkingAreaCase.TWO_PHOTON_RESONANCE,
        }),
        "incident pair tuning",
    ),
    _Option("--omega1", None, _float, "explicit first incident frequency"),
    _Option("--omega2", None, _float, "explicit second incident frequency"),
    _Option("--direction", "left", _DIRECTION, "incidence side"),
    _Option("--x", "-5:5:401", _parse_grid, "coordinate grid lo:hi:count"),
    _Option("--channels", "tt", _channels, "comma list from tt,rr,rt"),
    _Option(
        "--convention", "reconstructed", _names("printed", "reconstructed"),
        "mixed-channel phase convention: reconstructed (certified) "
        "or printed (published form, not certified)",
    ),
    _Option("-o --output", None, _path, "output path (default two_photon_map.<ext>)"),
    _Option("--format", "csv", _names("csv", "json", "binary"), "output format"),
)


def _cmd_twomap(args) -> int:
    params = _params_from_args(args)
    if (args.omega1 is None) != (args.omega2 is None):
        raise CliError("omega1/omega2: give both explicit frequencies or neither")
    if args.omega1 is None:
        incoming = args.resonance.incoming(params, args.direction)
    else:
        incoming = TwoPhotonIn(args.direction, args.omega1, args.omega2)
    channels = args.channels
    if args.format == "binary" and len(channels) > 1:
        raise CliError(f"channels: a binary map holds one channel, got {','.join(channels)!r}")

    field = TwoPhotonField(params, incoming)
    maps = map_two_photon(field, args.x, channels, args.convention)

    extension = "bin" if args.format == "binary" else args.format
    output = f"two_photon_map.{extension}" if args.output is None else args.output
    if args.format == "csv":
        write_map_csv(output, args.x, maps)
    elif args.format == "json":
        _write_json(
            output,
            {
                "x_grid": args.x.tolist(),
                "channels": {ch: maps[ch].tolist() for ch in channels},
            },
        )
    else:
        write_map_binary(output, args.x, maps[channels[0]])
    print(output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# working-area


_WORKING_AREA = (
    *_param_options(U=10.0),
    _Option(
        "--case", WorkingAreaCase.SINGLE_PHOTON_RESONANCE.value,
        _Choice({c.value: c for c in WorkingAreaCase}), "incident pair tuning",
    ),
    _Option(
        "--gamma1-grid", "0:1:401", _parse_grid,
        "gamma1 grid lo:hi:count for the single-photon-resonance curve",
    ),
    _Option(
        "--gx-ceiling", 20.0, _float,
        "largest Gamma|x| kept by the two-photon-resonance solver",
    ),
    _Option("-o --output", "working_area.csv", _path, "output path"),
    _Option("--format", "csv", _names("csv", "json"), "output format"),
)


def _cmd_working_area(args) -> int:
    params = _params_from_args(args)
    if args.case is WorkingAreaCase.SINGLE_PHOTON_RESONANCE:
        curve = working_area_single_res(params, args.gamma1_grid)
    else:
        curve = working_area_two_res(params, gx_ceiling=args.gx_ceiling)
    if args.format == "csv":
        write_working_area_csv(args.output, curve)
    else:
        points = []
        for p in curve.points:
            d = dataclasses.asdict(p)
            if not np.isfinite(d["Gamma_abs_x"]):
                # keep the JSON strictly standard: divergences carry null
                d["Gamma_abs_x"] = None
            points.append(d)
        _write_json(args.output, {"case": curve.case.value, "points": points})
    print(args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


_VERIFY = (
    _Option(
        "--suite", "lattice", _names(*VERIFY_SUITES),
        "each suite adds checks to the one before: residual: field-equation "
        "checks; analytic: closed-form and working-area checks; lattice: "
        "single-excitation lattice checks; all: two-excitation lattice checks",
    ),
    _Option(
        "--draws", 300, partial(_int, lo=1),
        "random draws for the residual suite and the closed-form checks",
    ),
    _Option("--seed", 20240817, partial(_int, lo=0), "base seed"),
    _Option("-o --output", None, _path, "also write the JSON report to this path"),
)


def _cmd_verify(args) -> int:
    report = verify_all(suite=args.suite, n_draws=args.draws, seed=args.seed)
    text = report.as_json_text()
    print(text)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return EXIT_OK if report.all_pass else EXIT_VERIFY


# ---------------------------------------------------------------------------
# reproduce


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
    field = TwoPhotonField(params, case.incoming(params, incident))
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


_REPRODUCE = (
    _Option("figure", None, _names(*_FIGURES), "figure id, fig2 through fig9"),
    _Option("--grid", 401, partial(_int, lo=2), "points per grid axis"),
    _Option("--outdir", ".", _path, "output directory"),
)


def _cmd_reproduce(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = _FIGURES[args.figure](args.grid, outdir)
    manifest = {"figure": args.figure, "grid_points": args.grid, "files": entries}
    manifest_name = f"{args.figure}_manifest.json"
    _write_json(outdir / manifest_name, manifest)
    for entry in entries:
        print(os.path.join(args.outdir, entry["file"]))
    print(os.path.join(args.outdir, manifest_name))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


_SUBCOMMANDS = (
    ("single", "single-photon transmission/reflection sweep", _SINGLE, _cmd_single),
    ("twomap", "two-photon output density map", _TWOMAP, _cmd_twomap),
    ("working-area", "diode working-area curves", _WORKING_AREA, _cmd_working_area),
    ("verify", "run verification suites, emit a JSON report", _VERIFY, _cmd_verify),
    ("reproduce", "regenerate a reference data set (fig2..fig9)", _REPRODUCE, _cmd_reproduce),
)


def build_parser() -> _Parser:
    """Parser whose subcommand options all take their value as a string
    and default to ``None``; ``_apply_config`` fills in and checks the
    values."""
    parser = _Parser(
        prog="chiral-diode",
        description="Photon transport through a chirally coupled dissipative Kerr cavity.",
    )
    parser.add_argument(
        "--config",
        help="JSON file of option defaults for the chosen subcommand (flags win)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, summary, options, func in _SUBCOMMANDS:
        p = sub.add_parser(command, help=summary)
        for opt in options:
            help_text = opt.help if opt.default is None else f"{opt.help} (default {opt.default})"
            metavar = None
            if isinstance(opt.parse, _Choice) and opt.flags.startswith("-"):
                metavar = "{" + ",".join(opt.parse) + "}"
            p.add_argument(*opt.flags.split(), metavar=metavar, help=help_text)
        p.set_defaults(func=func, options=options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
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
