"""Closed-form single-photon scattering through the chirally coupled cavity.

A photon incident from the left (right-moving) sees transmission amplitude

    t_left(omega_k) = (Delta + i (kappa - (gamma1 - gamma2))/2)
                      / (Delta + i (kappa + Gamma)/2),

with ``Delta = omega_k - omega_a``; from the right the sign of
``gamma1 - gamma2`` flips.  Both directions share the reflection amplitude

    r(omega_k) = -i sqrt(gamma1 gamma2) / (Delta + i (kappa + Gamma)/2).

On resonance the transmission vanishes exactly when the dissipation matches
the coupling asymmetry, ``kappa = |gamma1 - gamma2| != 0``, which is the
single-photon diode condition: one incidence direction is blocked while the
other still transmits.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .io_utils import write_csv
from .model import Direction, ModelParams, PhotonIn

__all__ = [
    "ScatterCoeffs",
    "DiodeClass",
    "even_mode_t",
    "chiral_coeffs",
    "diode_condition",
    "sweep_columns",
    "sweep_table",
    "sweep_single",
    "write_sweep_csv",
]

# Tolerance for classifying the resonant transmission null, relative to Gamma.
DIODE_TOL = 1e-12


@dataclass(frozen=True)
class ScatterCoeffs:
    """Complex amplitudes and probabilities for one photon, or for a grid
    of them when the inputs are arrays.

    ``T + R <= 1`` whenever ``kappa >= 0``; the deficit ``loss`` is the
    probability of dissipation into the cavity environment and is computed
    here, once, as ``1 - T - R``.
    """

    t: complex | np.ndarray
    r: complex | np.ndarray
    T: float | np.ndarray
    R: float | np.ndarray
    loss: float | np.ndarray

    @classmethod
    def from_amplitudes(cls, t, r) -> "ScatterCoeffs":
        T = abs(t) ** 2
        R = abs(r) ** 2
        return cls(t=t, r=r, T=T, R=R, loss=1.0 - T - R)


class DiodeClass(enum.Enum):
    """Resonant transmission-null classification."""

    BLOCKS_LEFT_INCIDENT = "blocks-left-incident"
    BLOCKS_RIGHT_INCIDENT = "blocks-right-incident"
    NO_BLOCK = "no-block"


def as_python_complex(value):
    """A 0-d result as a Python ``complex``; arrays pass through unchanged.

    Every kernel ends here, so scalar inputs keep giving plain Python
    numbers: callers doing scalar arithmetic with them (complex division
    in particular) and numpy's in-place reuse of a large temporary
    multiplied by them behave exactly as for a Python ``complex``.
    """
    return complex(value) if np.ndim(value) == 0 else value


def even_mode_t(params: ModelParams, omega_k):
    """Transmission amplitude of the even (coupled) waveguide mode.

    Like every kernel here it broadcasts ``omega_k`` against the rates of
    ``params``; scalar inputs give a scalar.
    """
    delta = np.asarray(omega_k, dtype=float) - params.omega_a
    t = (delta + 0.5j * (params.kappa - params.Gamma)) / (
        delta + 0.5j * (params.kappa + params.Gamma)
    )
    return as_python_complex(t)


def transmission_amplitude(params: ModelParams, omega_k, direction: Direction):
    """Direction-resolved transmission amplitude."""
    delta = np.asarray(omega_k, dtype=float) - params.omega_a
    asym = params.gamma1 - params.gamma2
    if direction is Direction.RIGHT_INCIDENT:
        asym = -asym
    t = (delta + 0.5j * (params.kappa - asym)) / (
        delta + 0.5j * (params.kappa + params.Gamma)
    )
    return as_python_complex(t)


def reflection_amplitude(params: ModelParams, omega_k):
    """Reflection amplitude, identical for both incidence directions."""
    delta = np.asarray(omega_k, dtype=float) - params.omega_a
    G = params.Gamma
    r = -1j * G * np.sqrt((params.gamma1 / G) * (params.gamma2 / G)) / (
        delta + 0.5j * (params.kappa + G)
    )
    return as_python_complex(r)


def chiral_coeffs(params: ModelParams, photon: PhotonIn) -> ScatterCoeffs:
    """Transmission/reflection amplitudes and probabilities of one photon,
    broadcast over array-valued rates and frequencies."""
    t = transmission_amplitude(params, photon.omega_k, photon.direction)
    r = reflection_amplitude(params, photon.omega_k)
    return ScatterCoeffs.from_amplitudes(t, r)


def diode_condition(params: ModelParams) -> DiodeClass:
    """Classify the on-resonance (omega_k = omega_a) transmission null.

    The left-incident photon is blocked iff ``kappa = gamma1 - gamma2 != 0``
    and the right-incident one iff ``kappa = gamma2 - gamma1 != 0``, each
    tested to an absolute tolerance of ``1e-12 * Gamma``.  It classifies
    one parameter point; array-valued rates raise ``ValueError``.
    """
    if any(np.ndim(v) for v in (params.kappa, params.gamma1, params.gamma2)):
        raise ValueError("diode_condition classifies one parameter point, got array-valued rates")
    asym = params.gamma1 - params.gamma2
    tol = DIODE_TOL * params.Gamma
    if abs(asym) <= tol:
        return DiodeClass.NO_BLOCK
    if abs(params.kappa - asym) <= tol:
        return DiodeClass.BLOCKS_LEFT_INCIDENT
    if abs(params.kappa + asym) <= tol:
        return DiodeClass.BLOCKS_RIGHT_INCIDENT
    return DiodeClass.NO_BLOCK


def sweep_table(
    params: ModelParams,
    detuning_grid: Sequence[float],
    gamma1_grid: Sequence[float],
    direction: Direction = Direction.LEFT_INCIDENT,
):
    """:func:`sweep_columns` a block of the grid at a time, as ``(grid,
    make)``: the grid columns (Delta/Gamma, gamma1/Gamma), shaped
    (len(detuning_grid), 1) and (1, len(gamma1_grid)), and a function
    ``make(rows, cols)`` that returns the T, R and loss columns of the
    detuning rows ``rows`` and the gamma1 columns ``cols`` (two slices).
    Every rate and frequency is checked here."""
    delta = np.asarray(detuning_grid, dtype=float)[:, None]
    gamma1 = np.asarray(gamma1_grid, dtype=float)[None, :]
    params.at_gamma1(gamma1)
    photon = PhotonIn(direction, params.omega_a + delta)

    def make(rows, cols):
        swept = params.at_gamma1(gamma1[:, cols])
        c = chiral_coeffs(swept, PhotonIn(direction, photon.omega_k[rows]))
        return c.T, c.R, c.loss

    G = params.Gamma
    return (delta / G, gamma1 / G), make


def sweep_columns(
    params: ModelParams,
    detuning_grid: Sequence[float],
    gamma1_grid: Sequence[float],
    direction: Direction = Direction.LEFT_INCIDENT,
) -> tuple[np.ndarray, ...]:
    """The columns (Delta/Gamma, gamma1/Gamma, T, R, loss) of
    :func:`sweep_single` as broadcast arrays from one :func:`chiral_coeffs`
    call: shapes (len(detuning_grid), 1), (1, len(gamma1_grid)), and the
    full grid for T, R and loss."""
    grid, make = sweep_table(params, detuning_grid, gamma1_grid, direction)
    return (*grid, *make(slice(None), slice(None)))


def sweep_single(
    params: ModelParams,
    detuning_grid: Sequence[float],
    gamma1_grid: Sequence[float],
    direction: Direction = Direction.LEFT_INCIDENT,
) -> np.ndarray:
    """Tabulate (Delta/Gamma, gamma1/Gamma, T, R, loss) over a product grid.

    ``gamma1_grid`` holds absolute gamma1 values; for each one gamma2 is
    chosen to keep the total coupling Gamma of ``params`` fixed, matching
    the convention of sweeping the asymmetry at constant Gamma.  The grid
    is evaluated in one broadcast (:func:`sweep_columns`); rows are ordered
    with detuning as the outer loop and gamma1 as the inner loop.

    Returns
    -------
    numpy.ndarray
        Shape (len(detuning_grid) * len(gamma1_grid), 5).
    """
    columns = sweep_columns(params, detuning_grid, gamma1_grid, direction)
    rows = np.empty((*np.broadcast_shapes(*(c.shape for c in columns)), 5))
    for i, column in enumerate(columns):
        rows[..., i] = column
    return rows.reshape(-1, 5)


SWEEP_HEADER = ("detuning_over_Gamma", "gamma1_over_Gamma", "T", "R", "loss")


def write_sweep_csv(path: str | os.PathLike, rows: Sequence[Sequence[float]]) -> None:
    """Emit sweep rows (as from :func:`sweep_single`) with the canonical
    header and digit-exact floats."""
    write_csv(path, SWEEP_HEADER, np.asarray(rows).T)
