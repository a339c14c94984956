"""Field-equation residual checks for the closed-form amplitudes.

The scattering amplitudes are exact solutions of the stationary coupled
waveguide-cavity equations.  This module re-evaluates those equations off
the coupling lines (transport residuals, with analytic derivatives of the
closed-form exponentials) and the discontinuity relations on them
(one-sided limits taken from the exact region forms), and reports the
largest violation per relation, the single-photon one as a backward error.
Every quantity is computed from the model coefficients alone, so a
corrupted coefficient injected through the override arguments must light
up at least one residual; that sensitivity is itself part of the
verification suite.

Residual names
--------------
Single photon: ``cavity_equation`` (the cavity stationarity relation,
with the cavity amplitude taken from the transmission jump).

Two photon, off the lines x1=0, x2=0: ``ae_transport``,
``aa_stationarity``, ``oa_transport``.  On the lines: ``ee_jump_x1``,
``oe_jump_even_arg``, ``ae_jump``.

``ee_jump_x1`` is read at the offset x2 and at |x2|: the bound term,
and with it the coefficient D, enters the jump only at a positive
offset, so every point reads D.

Only relations that a wrong coefficient can violate are kept.  The pair
amplitudes ``phi_ee``, ``phi_oe`` and ``phi_oo`` are sums of exponentials
of total momentum ``omega``, so their transport equations hold for any
coefficients and would read exactly 0.  ``phi_ee`` is exchange symmetric,
so its jump across x2 = 0 is the same relation as ``ee_jump_x1``, the
jump across x1 = 0; that one residual covers both lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..model import Direction, ModelParams, TwoPhotonIn
from ..single_photon import even_mode_t
from ..two_photon import BoundStateCoeffs, EvenOddField

__all__ = [
    "ResidualReport",
    "single_residual",
    "two_photon_residual",
    "residual_suite",
    "random_model_draws",
]

_LINE_TOL = 1e-9


@dataclass(frozen=True)
class ResidualReport:
    """Largest residual per relation; ``max_residual`` is nan if any of them
    is nan or if there is none, so that either fails a gate."""

    residuals: Mapping[str, float]

    @property
    def max_residual(self) -> float:
        return float(np.max([*self.residuals.values()])) if self.residuals else np.nan


def single_residual(params: ModelParams, omega_k, t_override=None) -> ResidualReport:
    """Residual of the single-photon even-mode equations.

    The cavity amplitude is defined through the transmission jump, so the
    one relation left to check is the cavity stationarity relation with
    the coupling-point field value ``(1 + t)/2``.  The relation R is
    linear in t, with slope R' = i(omega_a - omega - i kappa/2)/sqrt(Gamma)
    + sqrt(Gamma)/2, so it is reported as the backward error
    |R| / (|R'| max(|t|, |1 - t|)), whose rounding floor is a few eps at
    any rates; |R| alone grows as eps kappa/sqrt(Gamma).  ``omega_k``
    broadcasts against array-valued rates in ``params``, and the residual
    is the largest over all of them.  Passing ``t_override`` (a scalar or
    an array of the broadcast shape) replaces the closed-form transmission
    amplitude, which must break the cavity relation; this provides the
    sensitivity self-test.
    """
    G = params.Gamma
    t = even_mode_t(params, omega_k) if t_override is None else np.asarray(t_override, complex)
    sq = np.sqrt(G)
    detuning = params.omega_a - omega_k - 0.5j * params.kappa
    cavity = detuning * 1j * (t - 1.0) / sq + sq * 0.5 * (1.0 + t)
    slope = 1j * detuning / sq + 0.5 * sq
    eta = np.abs(cavity) / (np.abs(slope) * np.maximum(np.abs(t), np.abs(1.0 - t)))
    return ResidualReport({"cavity_equation": float(np.max(eta))})


def two_photon_residual(
    params: ModelParams,
    incoming: TwoPhotonIn,
    sample_points,
    coeffs_override: BoundStateCoeffs | None = None,
    t_override: tuple[complex, complex] | None = None,
) -> ResidualReport:
    """Residuals of the two-photon even/odd equations and jump relations.

    ``sample_points`` is a sequence of (x1, x2) pairs, or an (n, 2) array,
    strictly off the coupling lines x1=0 and x2=0; their first coordinates
    feed the transport residuals, and their second coordinates serve as
    the along-line offsets for the jump relations.  Derivatives are
    analytic (the amplitudes are piecewise exponentials), one-sided limits
    come from exact region forms, and the coupling-point field values use
    the midpoint step convention.

    The points broadcast against array-valued rates in ``params`` and
    frequencies in ``incoming``: n points with n-element arrays pair up
    elementwise, so one call checks n independent draws.  Each residual
    is the largest over every point.

    ``coeffs_override``/``t_override`` inject corrupted coefficients
    (scalars or arrays of the broadcast shape) for sensitivity self-tests.
    """
    pts = np.asarray(sample_points, dtype=float)
    if pts.size == 0:
        raise ValueError("need at least one sample point")
    x1, x2 = pts.T
    # no relation evaluates a pair amplitude at (x1, x2) jointly, so the
    # coincidence line x1 = x2 is a valid sample
    on_line = np.minimum(np.abs(x1), np.abs(x2)) < _LINE_TOL
    if on_line.any():
        raise ValueError(
            f"sample point ({x1[on_line][0]}, {x2[on_line][0]}) lies on a coupling "
            "line x1=0 or x2=0; derivative checks need off-line points"
        )
    if incoming.direction is not Direction.LEFT_INCIDENT:
        raise ValueError("residuals are checked in the left-incidence frame; "
                         "mirror parameters for right incidence")

    f = EvenOddField(params, incoming, coeffs=coeffs_override, t_k=t_override)
    c = f.coeffs
    G = params.Gamma
    om = incoming.omega
    om_a, kappa, U = params.omega_a, params.kappa, params.U
    sqG = np.sqrt(G)

    def ee_jump_x1(x):
        return (f.phi_ee(0.0, x, side1=+1) - f.phi_ee(0.0, x, side1=-1)
                + 1j * np.sqrt(G / 2.0) * f.phi_ae(x))

    res = {
        # transport off the lines, at x1
        "ae_transport": -1j * f.d_phi_ae(x1) + (om_a - om - 0.5j * kappa) * f.phi_ae(x1)
        + np.sqrt(G / 2.0) * (f.phi_ee(0.0, x1) + f.phi_ee(x1, 0.0)),
        "aa_stationarity": (2.0 * om_a - om + 2.0 * U - 1j * kappa) * c.phi_aa
        + np.sqrt(2.0 * G) * f.phi_ae(0.0),
        "oa_transport": -1j * f.d_phi_oa(x1) + (om_a - om - 0.5j * kappa) * f.phi_oa(x1)
        + sqG * f.phi_oe(x1, 0.0),
        # discontinuity relations, offsets on the lines taken from x2; the
        # bound term, and so D, enters the jump only past the cavity, so
        # it is also taken at |x2|
        "ee_jump_x1": np.stack(np.broadcast_arrays(ee_jump_x1(x2), ee_jump_x1(np.abs(x2)))),
        "oe_jump_even_arg": f.phi_oe(x2, 0.0, side2=+1) - f.phi_oe(x2, 0.0, side2=-1)
        + 1j * sqG * f.phi_oa(x2),
        "ae_jump": f.phi_ae(0.0, side=+1) - f.phi_ae(0.0, side=-1)
        + 1j * np.sqrt(2.0 * G) * c.phi_aa,
    }
    return ResidualReport({name: float(np.max(np.abs(value))) for name, value in res.items()})


def random_model_draws(
    rng: np.random.Generator, n_draws: int
) -> tuple[ModelParams, TwoPhotonIn, np.ndarray]:
    """``n_draws`` random parameter sets, incident pairs and off-line
    sample points, stacked.

    Covers lossless (kappa=0) and linear (U=0) edges with finite
    probability, detunings up to a few linewidths, and coordinates within
    a few decay lengths of the cavity; no point lies within 1e-3 of the
    lines x1 = 0, x2 = 0 or x1 = x2.  Each field takes one call to the
    generator, apart from redrawing the points near those lines, so the
    same seed and count give the same draws.  Returns
    one ``ModelParams`` with array rates, one left-incident
    ``TwoPhotonIn`` with array frequencies and the (n_draws, 2) array of
    sample points.  ``n_draws`` must be >= 1: an empty sample would
    report every maximum as 0.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    g1, g2 = rng.uniform(0.0, 1.5, (2, n_draws))
    g1[g1 + g2 == 0.0] = 1.0
    # kappa and U are each 0 on 15 % of draws
    zero = rng.uniform(size=(2, n_draws)) < 0.15
    kappa, U = np.where(zero, 0.0, rng.uniform(0.0, [[2.0], [20.0]], (2, n_draws)))
    om_a = rng.uniform(-1.0, 1.0, n_draws)
    w1, w2 = om_a + rng.uniform(-3.0, 3.0, (2, n_draws))
    points = np.empty((n_draws, 2))
    near = np.ones(n_draws, dtype=bool)
    while near.any():
        points[near] = rng.uniform(-4.0, 4.0, (np.count_nonzero(near), 2))
        x1, x2 = points.T
        near = np.min(np.abs([x1, x2, x1 - x2]), axis=0) <= 1e-3
    pair = TwoPhotonIn(Direction.LEFT_INCIDENT, w1, w2)
    return ModelParams(om_a, kappa, U, g1, g2), pair, points


def residual_suite(n_draws: int = 1000, seed: int = 20240817) -> ResidualReport:
    """Largest residual of both equation systems over random draws.

    Deterministic for a fixed seed.  All draws are checked in one
    broadcast call per equation system; the single-photon relations are
    reported with a ``single_`` prefix.
    """
    params, incoming, points = random_model_draws(np.random.default_rng(seed), n_draws)
    single = single_residual(params, incoming.omega_k1)
    pair = two_photon_residual(params, incoming, points)
    named = {"single_" + name: value for name, value in single.residuals.items()}
    return ResidualReport({**named, **pair.residuals})
