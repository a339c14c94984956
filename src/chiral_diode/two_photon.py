"""Two-photon scattering state of the chirally coupled Kerr cavity.

The outgoing two-photon state splits into three channels: both photons
transmitted (``psi_tt``), both reflected (``psi_rr``), and one of each
(``psi_rt``).  Every channel is the sum of

* a plane-wave part built from products of single-photon amplitudes, and
* a bound part ``D * exp(i omega x_c) * exp([i(omega - 2 omega_a) -
  (kappa + Gamma)] |x| / 2)`` that decays exponentially in the photon
  separation ``x = x2 - x1`` (for ``psi_rt`` the roles of the separation
  and the pair center ``x_c = (x1 + x2)/2`` are interchanged), weighted by
  direction-dependent coupling ratios.

Coordinates are physical positions with the cavity at the origin.  For
``psi_rt`` the first argument is the photon leaving on the right of the
cavity (moving in +x) and the second the photon leaving on the left; which
of the two is the transmitted one depends on the incidence direction.

The bound part originates from the two photons jointly occupying the
nonlinear cavity; its strength ``D`` is proportional to the Kerr constant
``U`` and vanishes for a linear cavity.

The same state expressed in the even/odd mode basis (the combination of
right- and left-movers that does or does not couple to the cavity) is
evaluated by :class:`EvenOddField`; those amplitudes are piecewise
exponentials with known jump relations at the coupling point and feed the
independent residual checks in :mod:`chiral_diode.verification`.

Two conventions are provided for the mixed channel ``psi_rt``:

* ``"reconstructed"`` (default, certified): plane part obtained by
  transforming the even/odd solution back to the chiral basis, ``1/(2 pi)``
  times the two momentum pairings each carrying its own amplitude product;
* ``"printed"`` (published form, not certified): plane part written as
  ``1/(4 pi)`` times the symmetrized incident envelope, with transmission
  and reflection factors averaged over both pairings.

The two differ (the printed form is not consistent with the even/odd
solution); verification reports the gap.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .io_utils import write_csv
from .model import Direction, ModelParams, TwoPhotonIn, _first
from .single_photon import (
    as_python_complex,
    even_mode_t,
    reflection_amplitude,
    transmission_amplitude,
)

__all__ = [
    "BoundStateCoeffs",
    "TwoPhotonField",
    "EvenOddField",
    "bound_coeffs",
    "bound_asymptote",
    "map_two_photon",
    "write_map_csv",
    "write_map_binary",
    "read_map_binary",
    "MAP_MAGIC",
]


def _step(x, side=None):
    """Unit step with the midpoint value 1/2 at the discontinuity, or,
    given ``side`` (+1 or -1), the one-sided value from that side."""
    x = np.asarray(x)
    if side is not None:
        x = np.sign(x) + np.asarray(side) * (x == 0)
    return np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5))


@dataclass(frozen=True)
class BoundStateCoeffs:
    """Constants governing the cavity-mediated two-photon bound state.

    ``m_a1``/``m_a2`` weigh the incoming waveguide-plus-cavity amplitude,
    ``beta_ki = m_ai * t_ki`` the outgoing one, ``chi`` the extra outgoing
    wave at the complex momentum ``rho = omega - omega_a + i(kappa+Gamma)/2``
    generated by the Kerr interaction, and ``D = sqrt(Gamma/2) chi / i`` the
    resulting bound-state strength in the waveguide channels.  ``phi_aa`` is
    the doubly occupied cavity amplitude and ``sigma_ki = m_ai / sqrt(2)``
    the odd-mode-plus-cavity weights.
    """

    m_a1: complex
    m_a2: complex
    chi: complex
    rho: complex
    D: complex
    beta_k1: complex
    beta_k2: complex
    sigma_k1: complex
    sigma_k2: complex
    phi_aa: complex


def bound_coeffs(params: ModelParams, incoming: TwoPhotonIn) -> BoundStateCoeffs:
    """Evaluate the bound-state constants for one incident photon pair.

    Array-valued rates in ``params`` give arrays of constants of their
    broadcast shape.

    All denominators carry the strictly positive imaginary part
    ``(kappa + Gamma)/2``, so every field is finite.  ``chi`` and ``D`` are
    proportional to ``U`` and vanish exactly for a linear cavity.
    """
    G = params.Gamma
    eta = 0.5 * (params.kappa + G)
    w1, w2 = incoming.omega_k1, incoming.omega_k2
    omega = incoming.omega

    # each m pairs with the opposite photon's detuning
    m_a1 = np.sqrt(G) / (2.0 * np.pi * (w2 - params.omega_a + 1j * eta))
    m_a2 = np.sqrt(G) / (2.0 * np.pi * (w1 - params.omega_a + 1j * eta))
    pair_pole = params.omega_a - 0.5 * omega + params.U - 1j * eta
    chi = 1j * 4.0 * np.pi * np.sqrt(G) * params.U * m_a1 * m_a2 / pair_pole
    rho = omega - params.omega_a + 1j * eta
    D = np.sqrt(G / 2.0) * chi / 1j
    t1 = even_mode_t(params, w1)
    t2 = even_mode_t(params, w2)
    phi_aa = -np.sqrt(G) * (m_a1 + m_a2) / (np.sqrt(2.0) * pair_pole)
    coeffs = dict(
        m_a1=m_a1,
        m_a2=m_a2,
        chi=chi,
        rho=rho,
        D=D,
        beta_k1=m_a1 * t1,
        beta_k2=m_a2 * t2,
        sigma_k1=m_a1 / np.sqrt(2.0),
        sigma_k2=m_a2 / np.sqrt(2.0),
        phi_aa=phi_aa,
    )
    return BoundStateCoeffs(**{k: as_python_complex(v) for k, v in coeffs.items()})


class TwoPhotonField:
    """Evaluator of the outgoing two-photon wavefunctions.

    Immutable after construction; all point evaluations are pure, accept
    scalars or numpy arrays, and broadcast, against each other and against
    array-valued rates in ``params`` (one field then covers a parameter
    grid).  Amplitude products and the bound-state constants are cached
    once per (params, incoming) pair so dense maps cost one vectorized
    expression per channel.
    """

    def __init__(self, params: ModelParams, incoming: TwoPhotonIn):
        self.params = params
        self.incoming = incoming
        self.coeffs = bound_coeffs(params, incoming)

        G = params.Gamma
        w1, w2 = incoming.omega_k1, incoming.omega_k2
        d = incoming.direction
        self._k1, self._k2 = w1, w2
        self._omega = incoming.omega
        self._decay = 1j * (self._omega - 2.0 * params.omega_a) - (params.kappa + G)
        self.t_k1 = transmission_amplitude(params, w1, d)
        self.t_k2 = transmission_amplitude(params, w2, d)
        self.r_k1 = reflection_amplitude(params, w1)
        self.r_k2 = reflection_amplitude(params, w2)

        g_near = params.gamma1 if d is Direction.LEFT_INCIDENT else params.gamma2
        g_far = params.gamma2 if d is Direction.LEFT_INCIDENT else params.gamma1
        # rates over Gamma before any product, so no rate scale overflows
        near, far = g_near / G, g_far / G
        self._w_tt = near**2
        self._w_rr = near * far
        self._w_rt = np.sqrt(2.0 * near**3 * far)
        # incident photons move in +x (left incidence) or -x direction
        self._sgn = 1.0 if d is Direction.LEFT_INCIDENT else -1.0
        # mixed channel: amplitude products for photon 1 resp. photon 2
        # exiting on the right of the cavity
        if d is Direction.LEFT_INCIDENT:
            self._pair_1 = self.t_k1 * self.r_k2
            self._pair_2 = self.t_k2 * self.r_k1
        else:
            self._pair_1 = self.r_k1 * self.t_k2
            self._pair_2 = self.r_k2 * self.t_k1

    # -- building blocks -------------------------------------------------

    def incident_envelope(self, x1, x2):
        """Symmetrized free two-photon plane wave, norm 1/(2 sqrt2 pi)."""
        k1, k2 = self._k1, self._k2
        return (np.exp(1j * (k1 * x1 + k2 * x2)) + np.exp(1j * (k1 * x2 + k2 * x1))) / (
            2.0 * np.sqrt(2.0) * np.pi
        )

    def _bound_separation(self, x1, x2):
        """Bound factor decaying in the separation |x2 - x1|."""
        xc = 0.5 * (np.asarray(x1) + np.asarray(x2))
        sep = np.abs(np.asarray(x2) - np.asarray(x1))
        return self.coeffs.D * np.exp(1j * self._sgn * self._omega * xc) * np.exp(
            0.5 * self._decay * sep
        )

    # -- channels --------------------------------------------------------

    def psi_tt(self, x1, x2):
        """Both photons transmitted."""
        s = self._sgn
        plane = self.incident_envelope(s * np.asarray(x1), s * np.asarray(x2))
        return plane * self.t_k1 * self.t_k2 + self._w_tt * self._bound_separation(x1, x2)

    def psi_rr(self, x1, x2):
        """Both photons reflected."""
        s = self._sgn
        plane = self.incident_envelope(-s * np.asarray(x1), -s * np.asarray(x2))
        return plane * self.r_k1 * self.r_k2 + self._w_rr * self._bound_separation(-np.asarray(x1), -np.asarray(x2))

    def psi_rt(self, x1, x2, convention: str = "reconstructed"):
        """One photon exits right of the cavity (at ``x1``, moving in +x),
        the other exits left (at ``x2``, moving in -x).

        For left incidence the right-exit photon is the transmitted one,
        for right incidence the reflected one.  The bound factor decays in
        the pair center here because the two photons leave the cavity in
        opposite directions.  See the module docstring for the two
        plane-part conventions.
        """
        x1 = np.asarray(x1)
        x2 = np.asarray(x2)
        k1, k2 = self._k1, self._k2
        if convention == "printed":
            plane = (
                self.incident_envelope(x1, -x2)
                * (self._pair_1 + self._pair_2)
                / (4.0 * np.pi)
            )
        elif convention == "reconstructed":
            plane = (
                self._pair_1 * np.exp(1j * (k1 * x1 - k2 * x2))
                + self._pair_2 * np.exp(1j * (k2 * x1 - k1 * x2))
            ) / (2.0 * np.pi)
        else:
            raise ValueError(f"unknown psi_rt convention {convention!r}")
        xc = 0.5 * (x1 + x2)
        bound = self.coeffs.D * np.exp(0.5j * self._omega * (x1 - x2)) * np.exp(
            self._decay * np.abs(xc)
        )
        return plane + self._w_rt * bound

    def densities(self, x1, x2, channels=("tt",), convention: str = "reconstructed"):
        """|psi|^2 for the requested channels, as a dict keyed by channel."""
        out = {}
        for ch in channels:
            if ch == "tt":
                out[ch] = np.abs(self.psi_tt(x1, x2)) ** 2
            elif ch == "rr":
                out[ch] = np.abs(self.psi_rr(x1, x2)) ** 2
            elif ch == "rt":
                out[ch] = np.abs(self.psi_rt(x1, x2, convention)) ** 2
            else:
                raise ValueError(f"unknown channel {ch!r}")
        return out


# -- even/odd mode basis -------------------------------------------------


class EvenOddField:
    """Region-resolved evaluators for the even/odd-basis amplitudes.

    Every amplitude is a piecewise sum of exponentials; each evaluator
    takes optional side arguments (+1 or -1) that select the closed form of
    the region approached from that side, which gives exact one-sided
    limits on the discontinuity lines and exact analytic derivatives off
    them.  With sides omitted, step functions use the midpoint rule.

    ``coeffs`` may be injected to probe sensitivity of downstream checks;
    by default they are computed from (params, incoming).
    """

    def __init__(
        self,
        params: ModelParams,
        incoming: TwoPhotonIn,
        coeffs: BoundStateCoeffs | None = None,
        t_k: tuple[complex, complex] | None = None,
    ):
        if incoming.direction is not Direction.LEFT_INCIDENT:
            raise ValueError(
                "even/odd amplitudes are defined for left incidence; mirror "
                "the problem (swap gamma1/gamma2, negate coordinates) for "
                "right incidence"
            )
        self.params = params
        self.incoming = incoming
        self.coeffs = bound_coeffs(params, incoming) if coeffs is None else coeffs
        w1, w2 = incoming.omega_k1, incoming.omega_k2
        if t_k is None:
            t_k = (even_mode_t(params, w1), even_mode_t(params, w2))
        self.t_k1, self.t_k2 = t_k
        self._k = (w1, w2)
        c = self.coeffs
        # (amplitude, wavenumber) terms of phi_ae before and after the
        # cavity, and of phi_oa
        self._ae_before = ((c.m_a1, w1), (c.m_a2, w2))
        self._ae_after = ((c.beta_k1, w1), (c.beta_k2, w2), (c.chi, c.rho))
        self._oa = ((c.sigma_k1, w1), (c.sigma_k2, w2))
        self._omega = incoming.omega
        self._decay = 1j * (self._omega - 2.0 * params.omega_a) - (
            params.kappa + params.Gamma
        )

    # single-photon even/odd mode functions ------------------------------

    def mode_even(self, ki: int, x, side=None):
        """phi_e for photon ki: incident plus transmitted plane wave."""
        k = self._k[ki - 1]
        t = self.t_k1 if ki == 1 else self.t_k2
        x = np.asarray(x, dtype=float)
        pos = _step(x, side)
        return ((1.0 - pos) + t * pos) * np.exp(1j * k * x) / np.sqrt(2.0 * np.pi)

    def mode_odd(self, ki: int, x):
        """phi_o for photon ki: free plane wave."""
        k = self._k[ki - 1]
        return np.exp(1j * k * np.asarray(x, dtype=float)) / np.sqrt(2.0 * np.pi)

    # pair amplitudes ----------------------------------------------------

    def _bound_support(self, x1, x2, side1=None, side2=None):
        """Indicator of the doubly transmitted region, midpoint valued.

        The bound term lives where both photons have passed the cavity:
        theta(x2 - x1) theta(x1) + theta(x1 - x2) theta(x2).
        """
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        return _step(x2 - x1) * _step(x1, side1) + _step(x1 - x2) * _step(x2, side2)

    def bound_term(self, x1, x2, side1=None, side2=None):
        """Kerr-induced bound contribution to phi_ee."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        xc = 0.5 * (x1 + x2)
        sep = np.abs(x2 - x1)
        return (
            self._bound_support(x1, x2, side1, side2)
            * self.coeffs.D
            * np.exp(1j * self._omega * xc)
            * np.exp(0.5 * self._decay * sep)
        )

    def phi_ee(self, x1, x2, side1=None, side2=None):
        """Even-even pair amplitude: symmetrized product plus bound term."""
        fact = (
            self.mode_even(1, x1, side1) * self.mode_even(2, x2, side2)
            + self.mode_even(1, x2, side2) * self.mode_even(2, x1, side1)
        ) / np.sqrt(2.0)
        return fact + self.bound_term(x1, x2, side1, side2)

    @staticmethod
    def _exp_sum(x, before, after=(), side=None, derivative=False):
        """Sum of a exp(i k x) over the (a, k) terms of ``before``, or its
        x-derivative; given ``after``, the sum over those terms takes over
        past the cavity (x > 0; at x = 0 the midpoint or the ``side``
        limit).  A wave at complex k grows for x < 0, so ``after`` is
        evaluated at max(x, 0), on its own side only."""
        x = np.asarray(x, dtype=float)

        def wave_sum(terms, at):
            total = sum((k * a if derivative else a) * np.exp(1j * k * at) for a, k in terms)
            return 1j * total if derivative else total

        value = wave_sum(before, x)
        if not after:
            return value
        pos = _step(x, side)
        return (1.0 - pos) * value + pos * wave_sum(after, np.maximum(x, 0.0))

    def phi_ae(self, x, side=None):
        """One photon in the cavity, one even photon at x."""
        return self._exp_sum(x, self._ae_before, self._ae_after, side)

    def d_phi_ae(self, x):
        """d/dx phi_ae, analytic, valid off x = 0."""
        return self._exp_sum(x, self._ae_before, self._ae_after, derivative=True)

    def phi_oe(self, x1, x2, side2=None):
        """Odd photon at x1, even photon at x2."""
        return (
            self.mode_odd(1, x1) * self.mode_even(2, x2, side2)
            + self.mode_even(1, x2, side2) * self.mode_odd(2, x1)
        ) / np.sqrt(2.0)

    def phi_oo(self, x1, x2):
        """Both photons odd: symmetrized free product."""
        return (
            self.mode_odd(1, x1) * self.mode_odd(2, x2)
            + self.mode_odd(1, x2) * self.mode_odd(2, x1)
        ) / np.sqrt(2.0)

    def phi_oa(self, x):
        """One photon in the cavity, one odd photon at x (shared by the
        odd-even and even-odd sectors)."""
        return self._exp_sum(x, self._oa)

    def d_phi_oa(self, x):
        """d/dx phi_oa, analytic, exact everywhere."""
        return self._exp_sum(x, self._oa, derivative=True)

    # chiral reconstruction ----------------------------------------------

    def reconstruct_tt(self, x1, x2):
        """psi_tt from the even/odd amplitudes (valid at all coordinates;
        equals the closed form of :class:`TwoPhotonField` where both
        coordinates are downstream of the cavity)."""
        g1, g2 = self.params.gamma1, self.params.gamma2
        G = self.params.Gamma
        return (
            g1**2 * self.phi_ee(x1, x2)
            + g2**2 * self.phi_oo(x1, x2)
            + g1 * g2 * (self.phi_oe(x1, x2) + self.phi_oe(x2, x1))
        ) / G**2

    def reconstruct_rr(self, x1, x2):
        """psi_rr from the even/odd amplitudes."""
        g1, g2 = self.params.gamma1, self.params.gamma2
        G = self.params.Gamma
        return (
            g1
            * g2
            * (
                self.phi_ee(-np.asarray(x1), -np.asarray(x2))
                + self.phi_oo(-np.asarray(x1), -np.asarray(x2))
                - self.phi_oe(-np.asarray(x1), -np.asarray(x2))
                - self.phi_oe(-np.asarray(x2), -np.asarray(x1))
            )
            / G**2
        )

    def reconstruct_rt(self, x1, x2):
        """psi_rt from the even/odd amplitudes (transmitted photon at x1,
        reflected at x2)."""
        g1, g2 = self.params.gamma1, self.params.gamma2
        G = self.params.Gamma
        x1 = np.asarray(x1)
        x2 = np.asarray(x2)
        return (
            np.sqrt(2.0 * g1**3 * g2) * self.phi_ee(x1, -x2)
            - np.sqrt(2.0 * g1 * g2**3) * self.phi_oo(x1, -x2)
            + np.sqrt(2.0 * g1 * g2) * (g2 * self.phi_oe(x1, -x2) - g1 * self.phi_oe(-x2, x1))
        ) / G**2


# -- asymptotics ---------------------------------------------------------


@dataclass(frozen=True)
class BoundAsymptote:
    """Closed-form transmitted-pair density when only the bound state
    contributes: ``density(x) = amplitude_sq * exp(-decay_rate |x|)``.
    Both fields are floats, or arrays of one shape for array rates."""

    amplitude_sq: float | np.ndarray
    decay_rate: float | np.ndarray

    def density(self, x):
        return self.amplitude_sq * np.exp(-self.decay_rate * np.abs(x))


def bound_asymptote(params: ModelParams, case: str) -> BoundAsymptote:
    """Bound-state density profile at full chiral coupling gamma1 = Gamma.

    ``case`` selects the incident pair: ``"single-photon-resonance"`` puts
    both photons at the cavity frequency, ``"two-photon-resonance"`` puts
    one at the cavity frequency and one shifted by twice the Kerr constant,
    which makes the pair resonant with the doubly occupied cavity.  In both
    cases the plane-wave part of ``psi_tt`` vanishes when additionally
    kappa = Gamma, leaving this profile as the full transmitted density.

    Only valid at gamma1 = Gamma (gamma2 = 0); other couplings are
    rejected, elementwise for array rates.  Array rates broadcast, and
    both fields then take the broadcast shape of kappa, U and the rates.
    """
    G = params.Gamma
    off = np.abs(params.gamma1 - G) > 1e-12 * G
    if off.any():
        raise ValueError(
            f"bound asymptote requires gamma1 = Gamma (gamma2 = 0), got "
            f"gamma1={_first(np.broadcast_to(params.gamma1, off.shape), off)}, "
            f"Gamma={_first(G, off)}"
        )
    s = params.kappa + G
    U = params.U
    if case == "single-photon-resonance":
        amp = 32.0 * G**4 * U**2 / (np.pi**2 * s**4 * (4.0 * U**2 + s**2))
    elif case == "two-photon-resonance":
        amp = 32.0 * G**4 * U**2 / (np.pi**2 * s**4 * (16.0 * U**2 + s**2))
    else:
        raise ValueError(f"unknown asymptote case {case!r}")
    if np.ndim(amp) == 0:
        return BoundAsymptote(amplitude_sq=float(amp), decay_rate=float(s))
    # amp depends on every rate, so its shape is the broadcast one
    return BoundAsymptote(amplitude_sq=amp, decay_rate=np.broadcast_to(s, amp.shape).copy())


# -- dense maps ----------------------------------------------------------


def map_two_photon(
    field: TwoPhotonField,
    x_grid,
    channels=("tt",),
    convention: str = "reconstructed",
):
    """Densities |psi|^2 on the square grid x_grid x x_grid.

    Returns a dict of channel -> matrix with rows indexed by x1 and columns
    by x2.  On a uniform grid every channel is gathered from O(N) values.
    The ``tt`` and ``rr`` densities depend only on the photon separation,
    so their matrix is gathered from the N separations ``|x - x[0]|`` as
    ``M[i, j] = g[|i - j|]`` (exactly exchange symmetric).  Every term of
    ``psi_rt``, in both conventions, is ``exp(i omega (x1 - x2)/2)`` times
    a function of the pair sum ``x1 + x2``, so its matrix is gathered from
    the 2N - 1 pair sums as the Hankel matrix ``M[i, j] = h[i + j]``.
    Gathered values can differ from a per-point evaluation in the last
    bits.  Every channel on a non-uniform grid or of a field over a
    parameter grid is evaluated per point.

    A gathered matrix is a read-only, non-contiguous view into the O(N)
    values it is gathered from: no N x N array is made for it, and
    :func:`write_map_csv` reads it a block of rows at a time.  Take
    ``np.array(m)`` for a writable copy.  A channel evaluated per point is
    a fresh N x N array.
    """
    x = np.asarray(x_grid, dtype=float)
    # D depends on every rate and both frequencies, so it is a scalar
    # exactly when the field is one parameter point, not a parameter grid
    gathered = np.ndim(field.coeffs.D) == 0 and _is_uniform(x)
    out = {}
    for ch in channels:
        if gathered and ch in ("tt", "rr"):
            g = field.densities(0.0, np.abs(x - x[0]), (ch,))[ch]
            out[ch] = sliding_window_view(np.concatenate((g[:0:-1], g)), x.size)[::-1]
        elif gathered and ch == "rt":
            # first row, then the last column below it: x_i + x_j = x_0 + x_(i+j)
            h = np.concatenate((
                field.densities(x[0], x, (ch,), convention)[ch],
                field.densities(x[1:], x[-1], (ch,), convention)[ch],
            ))
            out[ch] = sliding_window_view(h, x.size)
        else:
            out[ch] = field.densities(x[:, None], x[None, :], (ch,), convention)[ch]
    return out


def _is_uniform(x) -> bool:
    """A non-empty grid whose step is constant to 8 ulps of its largest |x|
    (the rounding bound of ``np.linspace``)."""
    if x.size < 2:
        return x.size == 1
    return bool(np.ptp(np.diff(x)) <= 8.0 * np.spacing(np.abs(x).max()))


MAP_MAGIC = b"CDMAP002"
# struct layout after the magic: rows, cols and the x-range
_MAP_LAYOUT = "<II4d"


def write_map_csv(path: str | os.PathLike, x_grid, maps: dict) -> None:
    """Emit a map as rows x1, x2, one density column per channel.

    x1 varies slowest.  The density columns, named ``psi_<ch>_sq``, follow
    the order of ``maps`` (the order the channels were requested in).
    """
    x = np.asarray(x_grid, dtype=float)
    header = ["x1", "x2"] + [f"psi_{ch}_sq" for ch in maps]
    write_csv(path, header, (x[:, None], x[None, :], *maps.values()))


def write_map_binary(path: str | os.PathLike, x_grid, matrix: np.ndarray) -> None:
    """Binary map format: 48-byte header then row-major float64 payload.

    Header layout (little endian): 8-byte magic ``CDMAP002``, uint32 rows,
    uint32 cols, float64 x1_min, x1_max, x2_min, x2_max.
    """
    x = np.asarray(x_grid, dtype=float)
    m = np.ascontiguousarray(matrix, dtype="<f8")
    header = MAP_MAGIC + struct.pack(
        _MAP_LAYOUT, m.shape[0], m.shape[1], x[0], x[-1], x[0], x[-1]
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(m)


def read_map_binary(path: str | os.PathLike):
    """Inverse of :func:`write_map_binary`; returns (matrix, x_range).

    Raises ``ValueError`` for a foreign magic (the older ``CDMAP001``
    layout included), a truncated or an overlong file.  The payload is read
    straight into a fresh, writable, C-contiguous ``<f8`` matrix.
    """
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAP_MAGIC:
            raise ValueError(f"not a map file: bad magic {magic!r}")
        size = 8 + struct.calcsize(_MAP_LAYOUT)
        header = magic + fh.read(size - 8)
        if len(header) < size:
            raise ValueError(
                f"{path}: header has {len(header)} bytes, a {magic.decode()} map header has {size}"
            )
        rows, cols, x1_min, x1_max, x2_min, x2_max = struct.unpack(_MAP_LAYOUT, header[8:])
        payload = os.fstat(fh.fileno()).st_size - size
        if payload != rows * cols * 8:
            raise ValueError(
                f"{path}: payload has {payload} bytes, a {rows} x {cols} map "
                f"needs {rows * cols * 8}"
            )
        data = np.empty((rows, cols), dtype="<f8")
        if fh.readinto(data) != payload:
            raise ValueError(f"{path}: file shrank while its payload was read")
    return data, (x1_min, x1_max, x2_min, x2_max)
