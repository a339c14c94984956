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
  (Gamma + kappa - 2 gamma1)/(4U)``, solved per tangent branch on
  ``gamma1 > (kappa+Gamma)/2``.

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
    "WorkingAreaPoint",
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
# two-photon-resonance root finding: scan points per tangent branch
_TWO_RES_SCAN_POINTS = 80
# golden-section search of the null scan: the golden-ratio conjugate, and
# the relative width at which a search stops
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_GOLDEN_XTOL = 1e-12


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


@dataclass(frozen=True)
class WorkingAreaPoint:
    """One point of a working-area curve, in reduced units.

    ``branch`` is the tangent-branch index for the two-photon-resonance
    solver and 0 for the closed-form single-photon-resonance curve.
    ``diverges`` marks couplings where the separation grows without bound;
    there ``Gamma_abs_x`` is ``inf``.
    """

    gamma1_over_Gamma: float
    Gamma_abs_x: float
    branch: int = 0
    diverges: bool = False


@dataclass(frozen=True)
class WorkingAreaCurve:
    """A working-area locus with the parameters that produced it."""

    case: WorkingAreaCase
    params: ModelParams
    points: tuple[WorkingAreaPoint, ...]

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def _single_res_gx(params: ModelParams, g1: float) -> float:
    """Gamma*|x| of the strong-Kerr single-photon-resonance curve."""
    s = params.kappa + params.Gamma
    return (2.0 * params.Gamma / s) * math.log(4.0 * g1**2 / (s - 2.0 * g1) ** 2)


def working_area_single_res(params: ModelParams, gamma1_grid: Sequence[float]) -> WorkingAreaCurve:
    """Tabulate the strong-Kerr working area at single-photon resonance.

    ``gamma1_grid`` holds absolute gamma1 values; gamma2 is implied by the
    fixed total coupling of ``params``.  Grid values outside
    ``[(kappa+Gamma)/4, Gamma]`` are omitted; at the pole ``gamma1 =
    (kappa+Gamma)/2`` the point is kept with the ``diverges`` flag set.
    """
    G = params.Gamma
    s = params.kappa + G
    lo = 0.25 * s
    pts = []
    for g1 in gamma1_grid:
        g1 = float(g1)
        if g1 < lo - 1e-12 * G or g1 > G + 1e-12 * G:
            continue
        if abs(s - 2.0 * g1) < _DIVERGE_TOL * G:
            pts.append(WorkingAreaPoint(g1 / G, math.inf, 0, True))
            continue
        gx = _single_res_gx(params, g1)
        if gx < 0.0:
            # only possible from rounding right at the lower edge
            gx = 0.0
        pts.append(WorkingAreaPoint(g1 / G, gx, 0, False))
    return WorkingAreaCurve(WorkingAreaCase.SINGLE_PHOTON_RESONANCE, params, tuple(pts))


def _two_res_x(params: ModelParams, g1: float | np.ndarray) -> float | np.ndarray:
    """|x|(gamma1) of the two-photon-resonance separation condition; a
    gamma1 array gives an array."""
    s = params.kappa + params.Gamma
    return (2.0 / s) * np.log(2.0 * g1**2 / ((2.0 * g1 - s) * s))


def _two_res_g1_at_x(params: ModelParams, x: float) -> float:
    """Inverse of :func:`_two_res_x` on the branch gamma1 in (s/2, s)."""
    s = params.kappa + params.Gamma
    E = math.exp(0.5 * s * x)
    return 0.5 * s * (E - math.sqrt(E * (E - 2.0)))


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

    Substitutes the separation condition into the tangent condition and
    root-finds the mismatch over gamma1 on every tangent branch ``n``
    (``|U x|`` restricted to ``(n pi - pi/2, n pi + pi/2)``), up to
    separations ``Gamma |x| <= gx_ceiling``.  Each branch is scanned for
    sign changes, and every bracket is bisected down to adjacent floats in
    gamma1, so a root is exact to rounding.  The returned points are exact
    zeros of the transmitted density, sorted by (branch, gamma1).

    The curve is empty when the domain ``(kappa+Gamma)/2 < gamma1 <=
    Gamma`` is empty (kappa >= Gamma), for a linear cavity (U = 0), or when
    no branch meets it below the ceiling.  Attractive and repulsive Kerr
    (U < 0 and U > 0) share one zero set.
    """
    G = params.Gamma
    s = params.kappa + G
    # both conditions are invariant under U -> -U, so the branches of |U|
    # give the zero set for either sign
    U = abs(params.U)
    if s >= 2.0 * G or U == 0.0:
        return WorkingAreaCurve(WorkingAreaCase.TWO_PHOTON_RESONANCE, params, ())
    x_cap = gx_ceiling / G

    def mismatch(g1: np.ndarray, n: np.ndarray) -> np.ndarray:
        return U * _two_res_x(params, g1) - n * math.pi - np.arctan((s - 2.0 * g1) / (4.0 * U))

    branches, grids = [], []
    n = 0
    while n * math.pi - 0.5 * math.pi <= U * x_cap:
        # gamma1 window where the separation lies in this branch's interval
        x_hi = min((n * math.pi + 0.5 * math.pi + 0.5) / U, x_cap)
        x_lo = max((n * math.pi - 0.5 * math.pi - 0.5) / U, _two_res_x(params, G))
        if x_hi > x_lo:
            g_lo = _two_res_g1_at_x(params, x_hi)
            g_hi = min(_two_res_g1_at_x(params, x_lo), G)
            if g_hi > g_lo:
                branches.append(n)
                grids.append(np.linspace(g_lo, g_hi, _TWO_RES_SCAN_POINTS))
        n += 1
    grid = np.reshape(grids, (-1, _TWO_RES_SCAN_POINTS))
    branch = np.array(branches, dtype=int)[:, None]
    vals = mismatch(grid, branch)
    # a grid node that is an exact zero, then every sign change, bisected
    b0, i0 = np.nonzero(vals[:, :-1] == 0.0)
    b, i = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    roots = _bisect(lambda g: mismatch(g, branch[b, 0]), grid[b, i], grid[b, i + 1])
    g1 = np.concatenate((grid[b0, i0], roots))
    n_of_root = np.concatenate((branch[b0, 0], branch[b, 0]))
    gx = G * _two_res_x(params, g1)
    keep = gx <= gx_ceiling + 1e-9
    pts = sorted(
        (WorkingAreaPoint(float(r) / G, float(x), int(k), False)
         for r, x, k in zip(g1[keep], gx[keep], n_of_root[keep])),
        key=lambda p: (p.branch, p.gamma1_over_Gamma),
    )
    return WorkingAreaCurve(WorkingAreaCase.TWO_PHOTON_RESONANCE, params, tuple(pts))


@dataclass(frozen=True)
class ZeroScanResult:
    """Minima of the transmitted pair density found by direct scanning.

    ``points`` holds (gamma1/Gamma, Gamma*|x|) for every refined local
    minimum whose density is below ``threshold`` times the free pair
    density.  ``degenerate_gamma1`` lists couplings at which the
    transmitted amplitude vanishes identically (linear cavity with the
    plane part nulled), where minima are meaningless.
    """

    points: tuple[tuple[float, float], ...]
    threshold: float
    degenerate_gamma1: tuple[float, ...] = field(default=())

    @property
    def degenerate_full_null(self) -> bool:
        return bool(self.degenerate_gamma1)

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def _golden_minimize(
    f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minima of ``f`` in the brackets ``a < b < c``, all refined at once.

    ``f`` maps an array of points, one per bracket, to its values there.
    Golden-section search: each bracket ``[x0, x3]`` holds two probes
    ``x1 < x2`` and loses the part beyond the worse probe, until
    ``|x3 - x0| <= _GOLDEN_XTOL (|x1| + |x2|)``.  Returns the better
    final probe of each bracket and its value.
    """
    r, q = _GOLDEN, 1.0 - _GOLDEN
    # the first new probe goes into the wider half of the bracket
    wide = np.abs(c - b) > np.abs(b - a)
    x1 = np.where(wide, b, b - q * (b - a))
    x2 = np.where(wide, b + q * (c - b), b)
    state = np.array([a, x1, x2, c, f(x1), f(x2)])
    while True:
        x0, x1, x2, x3, f1, f2 = state
        live = np.abs(x3 - x0) > _GOLDEN_XTOL * (np.abs(x1) + np.abs(x2))
        if not live.any():
            break
        # f2 < f1: keep [x1, x3] and probe right of x2; else keep [x0, x2]
        # and probe left of x1
        right = f2 < f1
        probe = np.where(right, r * x2 + q * x3, r * x1 + q * x0)
        fp = f(probe)
        stepped = np.where(right, [x1, x2, probe, x3, f2, fp], [x0, probe, x1, x2, fp, f1])
        state = np.where(live, stepped, state)
    x0, x1, x2, x3, f1, f2 = state
    first = f1 < f2
    return np.where(first, x1, x2), np.where(first, f1, f2)


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
    interior local minimum, bracketed by its two grid neighbours, is then
    refined by golden-section search to a relative width of 1e-12, all
    minima at once over one field holding each minimum's coupling.  Minima
    below ``threshold`` times the free pair density 1/(2 pi^2) are
    reported in reduced units.

    ``threshold`` is relative to the free pair density so the criterion
    does not depend on the wavefunction normalization convention.
    """
    G = params.Gamma
    xs = np.asarray(sorted(float(v) for v in x_grid))
    if xs.size < 3:
        raise ValueError("x_grid needs at least 3 points for minimum bracketing")
    cutoff = threshold * FREE_PAIR_DENSITY
    gamma1 = np.asarray(gamma1_grid, dtype=float)
    # every coupling sampled in one broadcast: rows gamma1, columns separation
    grid = TwoPhotonField(params.at_gamma1(gamma1[:, None]), incoming)
    vals = np.abs(grid.psi_tt(-0.5 * xs, 0.5 * xs)) ** 2
    dark = ((np.abs(grid.coeffs.D) == 0.0) & (np.abs(grid.t_k1 * grid.t_k2) < 1e-14))[:, 0]
    interior = (vals[:, 1:-1] <= vals[:, :-2]) & (vals[:, 1:-1] <= vals[:, 2:])
    # the minimum at xs[j + 1], bracketed by its neighbours
    row, j = np.nonzero(interior & ~dark[:, None])
    pts: list[tuple[float, float]] = []
    if row.size:
        fld = TwoPhotonField(params.at_gamma1(gamma1[row]), incoming)
        x, dens = _golden_minimize(
            lambda x: np.abs(fld.psi_tt(-0.5 * x, 0.5 * x)) ** 2, xs[j], xs[j + 1], xs[j + 2]
        )
        found = dens < cutoff
        pts = [(g1 / G, G * xm) for g1, xm in zip(gamma1[row[found]].tolist(), x[found].tolist())]
    degenerate = tuple(g1 / G for g1 in gamma1[dark].tolist())
    return ZeroScanResult(tuple(pts), threshold, degenerate)


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


WORKING_AREA_HEADER = ("gamma1_over_Gamma", "Gamma_abs_x", "branch", "diverges")


def write_working_area_csv(path: str | os.PathLike, curve: WorkingAreaCurve) -> None:
    """Emit a working-area curve as CSV rows gamma1/Gamma, Gamma|x|,
    branch, diverges (0/1); diverging points carry ``inf``."""
    table = [(p.gamma1_over_Gamma, p.Gamma_abs_x, p.branch, p.diverges) for p in curve]
    write_csv(path, WORKING_AREA_HEADER, np.reshape(table, (-1, len(WORKING_AREA_HEADER))).T)
