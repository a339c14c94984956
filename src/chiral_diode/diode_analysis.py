"""Working areas of the two-photon optical diode.

A working area is the locus in the (coupling asymmetry, photon separation)
plane where the transmitted two-photon density vanishes for one incidence
direction while staying finite for the other.  Two closed-form cases are
covered:

* single-photon resonance (both photons at the cavity frequency), where
  the curve ``|x| = (2/(kappa+Gamma)) ln[4 gamma1^2 / (Gamma+kappa-2
  gamma1)^2]`` becomes exact in the strong-Kerr limit and holds on
  ``(kappa+Gamma)/4 <= gamma1 <= Gamma``;
* two-photon resonance (one photon at the cavity frequency, the other
  shifted by twice the Kerr constant), where exact zeros at finite Kerr
  strength require simultaneously ``|x| = (2/(kappa+Gamma)) ln[2 gamma1^2
  / ((2 gamma1 - kappa - Gamma)(kappa + Gamma))]`` and ``tan(U |x|) =
  (Gamma + kappa - 2 gamma1)/(4U)``, solved in one walk over the
  separation on ``gamma1 > (kappa+Gamma)/2``.

A direct numerical scan of the density minima provides the
independent cross-check, and a scalar contrast summarizes the
transmitted-density asymmetry between the two incidence directions.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .io_utils import write_csv
from .model import Direction, ModelParams, TwoPhotonIn
from .two_photon import TwoPhotonField

__all__ = [
    "WorkingAreaCase",
    "WorkingAreaCurve",
    "ZeroScanResult",
    "working_area_single_res",
    "working_area_two_res",
    "numeric_zero_scan",
    "nonreciprocity_contrast",
    "write_working_area_csv",
    "WORKING_AREA_HEADER",
]

# free two-photon density scale: |symmetrized plane wave|^2 at coincidence
FREE_PAIR_DENSITY = 1.0 / (2.0 * np.pi**2)

_DIVERGE_TOL = 1e-12
# two-photon-resonance root finding: walk steps per half-period pi/|U| of
# the tangent condition, walked this many nodes at a time
_TWO_RES_SCAN_POINTS = 80
_TWO_RES_CHUNK_NODES = 2**16


class WorkingAreaCase(enum.Enum):
    """Incident-pair tuning for which a working area is computed."""

    SINGLE_PHOTON_RESONANCE = "single-photon-resonance"
    TWO_PHOTON_RESONANCE = "two-photon-resonance"

    def incoming(
        self, params: ModelParams, direction: Direction = Direction.LEFT_INCIDENT
    ) -> TwoPhotonIn:
        """The incident pair of this tuning.

        Single-photon resonance puts both photons on the cavity line; the
        two-photon tuning splits them as (omega_a, omega_a + 2U) so the
        pair energy matches the Kerr-shifted two-photon transition.
        """
        w2 = params.omega_a
        if self is WorkingAreaCase.TWO_PHOTON_RESONANCE:
            w2 = params.omega_a + 2.0 * params.U
        return TwoPhotonIn(direction, params.omega_a, w2)


WORKING_AREA_HEADER = ("gamma1_over_Gamma", "Gamma_abs_x", "branch", "diverges")


@dataclass(frozen=True, eq=False)
class WorkingAreaCurve:
    """A working-area locus with the parameters that produced it: one
    numpy array per column of ``WORKING_AREA_HEADER``, in reduced units.
    ``branch`` (int) is the two-photon-resonance solver's tangent branch,
    0 on the single-photon-resonance curve; ``diverges`` (bool) marks rows
    whose separation grows without bound, where ``Gamma_abs_x`` is inf.
    ``empty`` is None, or on a curve without rows the solver's reason."""

    case: WorkingAreaCase
    params: ModelParams
    gamma1_over_Gamma: np.ndarray
    Gamma_abs_x: np.ndarray
    branch: np.ndarray
    diverges: np.ndarray
    empty: str | None = None

    def columns(self) -> tuple[np.ndarray, ...]:
        """The columns in the order of ``WORKING_AREA_HEADER``."""
        return self.gamma1_over_Gamma, self.Gamma_abs_x, self.branch, self.diverges

    def __len__(self) -> int:
        return self.gamma1_over_Gamma.size


def _empty_curve(case: WorkingAreaCase, params: ModelParams, why: str) -> WorkingAreaCurve:
    return WorkingAreaCurve(
        case, params, np.empty(0), np.empty(0), np.empty(0, int), np.empty(0, bool), why
    )


def working_area_single_res(params: ModelParams, gamma1_grid: Sequence[float]) -> WorkingAreaCurve:
    """Tabulate the strong-Kerr working area at single-photon resonance.

    ``gamma1_grid`` holds absolute gamma1 values; gamma2 is implied by the
    fixed total coupling of ``params``.  Grid values outside
    ``[(kappa+Gamma)/4, Gamma]`` are omitted and the rest evaluated in one
    broadcast; at the pole ``gamma1 = (kappa+Gamma)/2`` the row is kept
    with ``diverges`` set.  When no grid value is left, ``empty`` says
    whether the interval is empty (kappa > 3 Gamma) or the grid misses it.
    """
    G = params.Gamma
    s = params.kappa + G
    lo = 0.25 * s
    case = WorkingAreaCase.SINGLE_PHOTON_RESONANCE
    grid = np.asarray(gamma1_grid, dtype=float)
    g1 = grid[(grid >= lo - 1e-12 * G) & (grid <= G + 1e-12 * G)]
    if not g1.size:
        span = f"[(kappa + Gamma)/4, Gamma] = [{lo:g}, {G:g}]"
        if lo > G:
            return _empty_curve(case, params, f"no gamma1 lies in {span} once kappa > 3 Gamma")
        ends = f"[{grid.min():g}, {grid.max():g}]" if grid.size else "[]"
        return _empty_curve(case, params, f"the gamma1 grid {ends} has no point in {span}")
    diverges = np.abs(s - 2.0 * g1) < _DIVERGE_TOL * G
    with np.errstate(divide="ignore"):
        gx = (2.0 * G / s) * np.log(4.0 * (g1 / G) ** 2 / ((s - 2.0 * g1) / G) ** 2)
    # a negative separation only comes from rounding right at the lower edge
    gx = np.where(diverges, np.inf, np.maximum(gx, 0.0))
    return WorkingAreaCurve(case, params, g1 / G, gx, np.zeros(g1.size, int), diverges)


def _bisect(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of ``f`` in the brackets ``[lo, hi]``, all refined at once.

    ``f`` maps an array of points, one per bracket, to its values there,
    and changes sign across every bracket.  Each bracket is halved until
    no midpoint lies strictly inside it, so its ends are adjacent floats.
    """
    sign_lo = np.sign(f(lo))
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return mid
        up = np.sign(f(mid)) == sign_lo
        lo = np.where(inside & up, mid, lo)
        hi = np.where(inside & ~up, mid, hi)


def working_area_two_res(
    params: ModelParams,
    gx_ceiling: float = 20.0,
) -> WorkingAreaCurve:
    """Exact finite-Kerr working area at two-photon resonance.

    Walks the separation ``|x|`` from ``x_min``, where the separation
    condition puts gamma1 at Gamma, up to ``gx_ceiling / Gamma``, in
    ``_TWO_RES_SCAN_POINTS`` steps per half-period ``pi/|U|``.  At each
    node the separation condition gives gamma1 in closed form, and the
    tangent condition holds where the phase ``|U x| - arctan((kappa +
    Gamma - 2 gamma1)/(4|U|))`` is a multiple ``branch`` of pi.  Every
    sign change of its sine, and every node where it is zero, is a root;
    each bracket is bisected down to adjacent floats in ``x``, so a root
    is exact to rounding.  The nodes do not depend on the ceiling, which
    only cuts the walk short.  It holds ``_TWO_RES_CHUNK_NODES`` nodes at a
    time, so its memory does not grow with ``|U| gx_ceiling``.  The rows are
    exact zeros of the transmitted density, ordered by (branch, gamma1).

    The curve is empty, and ``empty`` says why, when the domain
    ``(kappa+Gamma)/2 < gamma1 <= Gamma`` is empty (kappa >= Gamma), for
    a linear cavity (U = 0), or when no null lies below the ceiling.
    Attractive and repulsive Kerr (U < 0 and U > 0) share one zero set.
    A walk of 2**53 steps or more, which float64 cannot count, raises
    :class:`ValueError`.
    """
    G = params.Gamma
    s = params.kappa + G
    case = WorkingAreaCase.TWO_PHOTON_RESONANCE
    # both conditions are invariant under U -> -U, so |U| gives the zero
    # set for either sign
    U = abs(params.U)
    if s >= 2.0 * G:
        return _empty_curve(case, params, f"no gamma1 lies in ((kappa + Gamma)/2, Gamma] = "
                                          f"({s / 2:g}, {G:g}] once kappa >= Gamma")
    if U == 0.0:
        return _empty_curve(case, params, "a linear cavity (U = 0) has no two-photon bound state")
    below = f"no null has Gamma|x| <= gx_ceiling {gx_ceiling:g}"
    x_cap = gx_ceiling / G
    # the separation |x| = (2/s) ln[2 gamma1^2 / ((2 gamma1 - s) s)] at gamma1 = Gamma
    x_min = (2.0 / s) * math.log(2.0 / ((2.0 - s / G) * (s / G)))
    if not x_min < x_cap:
        return _empty_curve(case, params, below)
    h = math.pi / (_TWO_RES_SCAN_POINTS * U)
    # (x_cap - x_min) / h, without dividing by an h that rounds to 0
    steps = (x_cap - x_min) * _TWO_RES_SCAN_POINTS * U / math.pi
    if not steps < 2.0**53:
        raise ValueError(f"{steps:.3g} scan steps lie below gx_ceiling {gx_ceiling:g} "
                         f"at |U| = {U:g}, more than float64 counts (2**53)")
    n = math.ceil(steps)

    def gamma1(x: np.ndarray) -> np.ndarray:
        # the separation condition solved for gamma1 without cancellation;
        # at gamma1 = s (kappa = 0) the radicand can round below 0
        return s / (1.0 + np.sqrt(np.maximum(1.0 - 2.0 * np.exp(-0.5 * s * x), 0.0)))

    def phase(x: np.ndarray) -> np.ndarray:
        return U * x - np.arctan((s - 2.0 * gamma1(x)) / (4.0 * U))

    # every node that is an exact zero, then every sign change, bisected;
    # each chunk of nodes starts at the last node of the one before, so a
    # sign change across the boundary is found and a zero counted once
    zeros, brackets = [], []
    x_last = v_last = np.empty(0)
    for start in range(0, n, _TWO_RES_CHUNK_NODES):
        x = x_min + h * np.arange(start, min(start + _TWO_RES_CHUNK_NODES, n))
        # steps may round up past an integer, and so x past x_cap
        x = np.append(x[x < x_cap], [x_cap] if start + _TWO_RES_CHUNK_NODES >= n else [])
        vals = np.sin(phase(x))
        zeros.append(x[vals == 0.0])
        x, vals = np.concatenate((x_last, x)), np.concatenate((v_last, vals))
        i = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        brackets.append((x[i], x[i + 1]))
        x_last, v_last = x[-1:], vals[-1:]
    lo, hi = np.concatenate(brackets, axis=1)
    roots = np.concatenate(zeros + [_bisect(lambda x: np.sin(phase(x)), lo, hi)])
    g1 = gamma1(roots)
    branch = np.rint(phase(roots) / math.pi).astype(int)
    order = np.lexsort((g1, branch))
    return WorkingAreaCurve(case, params, g1[order] / G, G * roots[order], branch[order],
                            np.zeros(order.size, bool), None if order.size else below)


@dataclass(frozen=True)
class ZeroScanResult:
    """Minima of the transmitted pair density found by direct scanning.

    ``points`` holds (gamma1/Gamma, Gamma*|x|) for every refined local
    minimum whose density is below the scan's threshold.
    ``degenerate_gamma1`` lists couplings at which the transmitted
    amplitude vanishes identically (linear cavity with the plane part
    nulled), where minima are meaningless.
    """

    points: tuple[tuple[float, float], ...]
    degenerate_gamma1: tuple[float, ...] = field(default=())

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def numeric_zero_scan(
    params: ModelParams,
    incoming: TwoPhotonIn,
    gamma1_grid: Sequence[float],
    x_grid: Sequence[float],
    threshold: float = 1e-8,
) -> ZeroScanResult:
    """Locate near-zeros of |psi_tt|^2 by grid scan plus local refinement.

    For each absolute gamma1 value (gamma2 keeps the total coupling of
    ``params`` fixed) the density is sampled at pair center zero over the
    separations in ``x_grid`` (all couplings in one broadcast).  Every
    interior local minimum ``xs[j + 1]`` is then refined in its bracket
    ``[xs[j], xs[j + 2]]`` by ``_bisect`` on the sign of the central
    difference ``density(x + h) - density(x - h)``, with ``h`` a millionth
    of the bracket: all minima at once, over one field holding each
    minimum's coupling, and both points of a difference in one
    evaluation.  Minima below ``threshold`` times the free pair density
    1/(2 pi^2) are reported in reduced units.

    The difference changes sign on the minimum itself, so bisection
    places it to adjacent floats in ``x``.  A search that compares
    density values, such as golden section, cannot place a minimum that
    is not an exact zero closer than about sqrt(eps) relative, where the
    density is flat to rounding: 2e-9 at the ``verify`` parameters,
    against 3e-11 by bisection.

    ``threshold`` is relative to the free pair density so the criterion
    does not depend on the wavefunction normalization convention.
    """
    G = params.Gamma
    xs = np.asarray(sorted(float(v) for v in x_grid))
    if xs.size < 3:
        raise ValueError("x_grid needs at least 3 points for minimum bracketing")
    gamma1 = np.asarray(gamma1_grid, dtype=float)
    # every coupling sampled in one broadcast: rows gamma1, columns separation
    grid = TwoPhotonField(params.at_gamma1(gamma1[:, None]), incoming)
    vals = np.abs(grid.psi_tt(-0.5 * xs, 0.5 * xs)) ** 2
    dark = ((np.abs(grid.coeffs.D) == 0.0) & (np.abs(grid.t_k1 * grid.t_k2) < 1e-14))[:, 0]
    interior = (vals[:, 1:-1] <= vals[:, :-2]) & (vals[:, 1:-1] <= vals[:, 2:])
    # the minimum at xs[j + 1], bracketed by its neighbours
    row, j = np.nonzero(interior & ~dark[:, None])
    fld = TwoPhotonField(params.at_gamma1(gamma1[row]), incoming)
    h = 1e-6 * (xs[j + 2] - xs[j])

    def density(x: np.ndarray) -> np.ndarray:
        return np.abs(fld.psi_tt(-0.5 * x, 0.5 * x)) ** 2

    def rising(x: np.ndarray) -> np.ndarray:
        # a level difference counts as falling: at x = 0, where the density
        # is even in x, a bracket's lower end reads exactly level
        up, down = density(np.stack((x + h, x - h)))
        return np.where(up > down, 1.0, -1.0)

    x = _bisect(rising, xs[j], xs[j + 2])
    found = density(x) < threshold * FREE_PAIR_DENSITY
    pts = zip((gamma1[row[found]] / G).tolist(), (G * x[found]).tolist())
    return ZeroScanResult(tuple(pts), tuple((gamma1[dark] / G).tolist()))


def nonreciprocity_contrast(
    params: ModelParams,
    omega_k1: float,
    omega_k2: float,
    x1: float | np.ndarray,
    x2: float | np.ndarray,
) -> float | np.ndarray:
    """Directional contrast of the transmitted pair density.

    Returns ``(|psi_tt|^2 - |psi~_tt|^2) / (|psi_tt|^2 + |psi~_tt|^2)``
    comparing left and right incidence at the same coordinates (the
    transmitted density depends only on the photon separation, so mirrored
    and identical coordinates give the same value).  A vanishing
    denominator yields 0.  Ranges over [-1, 1]; -1 means the left-incident
    pair is fully blocked while the right-incident one passes.  Array
    coordinates broadcast; scalar ones give a float.
    """
    left = TwoPhotonField(params, TwoPhotonIn(Direction.LEFT_INCIDENT, omega_k1, omega_k2))
    right = TwoPhotonField(params, TwoPhotonIn(Direction.RIGHT_INCIDENT, omega_k1, omega_k2))
    a = np.abs(left.psi_tt(x1, x2)) ** 2
    b = np.abs(right.psi_tt(x1, x2)) ** 2
    total = a + b
    contrast = np.divide(a - b, total, out=np.zeros_like(total), where=total != 0.0)
    return float(contrast) if contrast.ndim == 0 else contrast


def write_working_area_csv(path: str | os.PathLike, curve: WorkingAreaCurve) -> None:
    """Write a working-area curve's columns as CSV rows under
    ``WORKING_AREA_HEADER``: ``branch`` and ``diverges`` as integers
    (0/1), and the ``Gamma_abs_x`` of a diverging row as ``inf``."""
    write_csv(path, WORKING_AREA_HEADER, curve.columns())
