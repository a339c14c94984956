"""Parameter records and unit conventions shared by all other modules.

The physical system is a one-dimensional waveguide whose right-moving and
left-moving photons couple with strengths ``gamma1`` and ``gamma2`` to a
single lossy cavity mode (frequency ``omega_a``, decay rate ``kappa``) that
carries a Kerr photon-photon interaction of strength ``U``.

Conventions
-----------
* The group velocity is fixed to 1, so frequencies and wavenumbers
  coincide and positions carry units of inverse rate.
* All rates are in one common unit; the natural normalization is the total
  coupling ``Gamma = gamma1 + gamma2``, and tabulated outputs report
  ``gamma1/Gamma``, ``Gamma*x`` and detunings divided by ``Gamma``.
* Every rate and frequency may be a float or a numpy array; the closed
  forms broadcast, so one record evaluates a whole parameter grid.
* Only detunings ``omega_k - omega_a`` enter any observable, so ``omega_a``
  may be set to 0 without loss of generality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Direction",
    "ModelParams",
    "PhotonIn",
    "TwoPhotonIn",
    "make_params",
]


class Direction(enum.Enum):
    """Side from which the photons enter the waveguide."""

    LEFT_INCIDENT = "left"  # photons travel to the right (+x)
    RIGHT_INCIDENT = "right"  # photons travel to the left (-x)


def _first(value, bad):
    """First element of ``value`` where the same-shaped mask ``bad`` holds;
    a scalar is the 0-d case."""
    return np.asarray(value)[bad][0].item()


def _require_finite(name: str, value) -> None:
    finite = np.isfinite(value)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {_first(value, ~finite)!r}")


@dataclass(frozen=True)
class ModelParams:
    """Validated, immutable set of system parameters.

    Every rate may be a float or a numpy array; the arrays must broadcast
    together and every element is validated, so one record can describe a
    whole parameter grid.

    Attributes
    ----------
    omega_a : float or ndarray
        Cavity resonance frequency.
    kappa : float or ndarray
        Cavity dissipation rate, must be >= 0.
    U : float or ndarray
        Kerr interaction strength (any sign).
    gamma1 : float or ndarray
        Coupling rate of right-moving photons, must be >= 0.
    gamma2 : float or ndarray
        Coupling rate of left-moving photons, must be >= 0.
    """

    omega_a: float | np.ndarray
    kappa: float | np.ndarray
    U: float | np.ndarray
    gamma1: float | np.ndarray
    gamma2: float | np.ndarray

    def __post_init__(self) -> None:
        # The operators act elementwise on arrays, so one pass decides
        # validity: the sum of all fields is finite unless some element is
        # (or the sum overflows).  Only a failing pass scans field by field
        # for the message that names the offending value.
        k, g1, g2 = self.kappa, self.gamma1, self.gamma2
        total = self.omega_a + k + self.U + g1 + g2
        signs = (k >= 0) & (g1 >= 0) & (g2 >= 0) & (g1 + g2 > 0)
        if not (np.isfinite(total) & signs).all():
            self._raise_first_invalid()

    def _raise_first_invalid(self) -> None:
        for name in ("omega_a", "kappa", "U", "gamma1", "gamma2"):
            _require_finite(name, getattr(self, name))
        for name in ("kappa", "gamma1", "gamma2"):
            value = getattr(self, name)
            negative = np.less(value, 0)
            if negative.any():
                raise ValueError(f"{name} must be >= 0, got {_first(value, negative)}")
        g1, g2 = np.broadcast_arrays(self.gamma1, self.gamma2)
        bad = g1 + g2 <= 0
        if bad.any():
            raise ValueError(
                "gamma1 + gamma2 must be > 0 so the coupling unit Gamma "
                f"is well defined, got gamma1={g1[bad][0]}, gamma2={g2[bad][0]}"
            )

    @property
    def Gamma(self) -> float:
        """Total coupling rate ``gamma1 + gamma2``."""
        return self.gamma1 + self.gamma2

    def at_gamma1(self, gamma1) -> "ModelParams":
        """Same parameters with ``gamma1`` replaced (an array sweeps it) and
        ``gamma2 = Gamma - gamma1``, keeping the total coupling fixed."""
        G = self.Gamma
        g1 = np.asarray(gamma1)
        outside = ~((0.0 <= g1) & (g1 <= G))
        if outside.any():
            raise ValueError(f"gamma1 grid value {_first(g1, outside)} outside [0, Gamma={G}]")
        return ModelParams(self.omega_a, self.kappa, self.U, gamma1, G - gamma1)

    def swapped(self) -> "ModelParams":
        """Same parameters with the two chiral couplings interchanged."""
        return ModelParams(self.omega_a, self.kappa, self.U, self.gamma2, self.gamma1)


@dataclass(frozen=True)
class PhotonIn:
    """Single incident photon: direction of incidence and frequency.

    ``omega_k`` may be a numpy array of frequencies, each one validated.
    """

    direction: Direction
    omega_k: float | np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.direction, Direction):
            raise ValueError(f"direction must be a Direction, got {self.direction!r}")
        _require_finite("omega_k", self.omega_k)


@dataclass(frozen=True)
class TwoPhotonIn:
    """Two incident photons from the same side.

    The two frequencies are stored canonically with ``omega_k1 <= omega_k2``;
    every scattering amplitude is symmetric under their exchange.  Like
    ``PhotonIn.omega_k`` they may be numpy arrays, each element validated
    and the pair ordered elementwise, so one record describes many pairs;
    scalar inputs are stored as Python floats.
    """

    direction: Direction
    omega_k1: float | np.ndarray
    omega_k2: float | np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.direction, Direction):
            raise ValueError(f"direction must be a Direction, got {self.direction!r}")
        _require_finite("omega_k1", self.omega_k1)
        _require_finite("omega_k2", self.omega_k2)
        w1 = np.minimum(self.omega_k1, self.omega_k2)
        w2 = np.maximum(self.omega_k1, self.omega_k2)
        if np.ndim(w1) == 0:
            w1, w2 = float(w1), float(w2)
        object.__setattr__(self, "omega_k1", w1)
        object.__setattr__(self, "omega_k2", w2)

    @property
    def omega(self) -> float | np.ndarray:
        """Total frequency of the photon pair."""
        return self.omega_k1 + self.omega_k2


def make_params(
    omega_a: float,
    kappa: float,
    U: float,
    gamma1: float,
    gamma2: float,
) -> ModelParams:
    """Build a validated :class:`ModelParams`.

    Raises
    ------
    ValueError
        If a rate is negative, a value is not finite, or both couplings
        vanish (the coupling unit Gamma would be undefined).
    """
    return ModelParams(omega_a, kappa, U, gamma1, gamma2)

