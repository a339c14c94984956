"""Discretized-waveguide oracle, independent of every closed form.

A wavepacket is evolved on a 1D lattice with two chiral channels (right-
movers coupling with sqrt(gamma1), left-movers with sqrt(gamma2))
attached to a lossy cavity at the center.  Everything is computed in the
frame rotating at the probe frequency, so the packet is a slowly varying
envelope and the cavity term becomes the detuning ``omega_a - omega_k -
i kappa/2``.  The physics is defined once, as the single-excitation
generator H1: three diagonals over the channel sites plus the cavity's
border column, held as numpy arrays.  Both runs step it with the same
classical fourth-order Runge-Kutta, which for this constant H1 is one
fixed step matrix P.  Each run builds P^K once, a real band of 8K + 1
diagonals over the sites plus a rank-5K correction where the cavity
couples, and advances all its states K steps per product.  The
two-excitation run builds no pair basis: its Kerr term is rank one (2U
on the doubly occupied cavity), so the pair follows from one-photon
trajectories, the cavity mode and one packet per distinct frequency,
stepped as the rows of one block.  Only the doubly occupied cavity
amplitude needs a quadrature, a scalar Volterra equation (the
time-domain Sherman-Morrison identity; the bound state it carries is
that of Liao & Law, PRA 82, 053836).

Discretization scheme, chosen so the only non-Hermitian pieces of the
semi-discrete generator are the explicit loss terms (cavity -i kappa/2
and absorbing ramps):

* Transport uses centered differences, whose difference matrix is
  exactly skew-symmetric.  With every explicit loss switched off the
  semi-discrete evolution is therefore exactly unitary, and with losses
  on the state norm is non-increasing by construction.
* The cavity couples through a narrow Gaussian profile (std 4*dx,
  discrete sum normalized to exactly 1) instead of a single site.  A
  strictly one-sided stencil weights the on-site value of the
  coupling-induced jump as 2/3 rather than the physical midpoint 1/2,
  which biases the effective cavity linewidth by O(Gamma) independently
  of dx; and a centered stencil with a single-site source decouples the
  even and odd sublattices.  A smooth profile has no spectral content
  near the band edge, so neither pathology is excited, and because the
  discrete profile sum is exactly 1 the response at the packet carrier
  frequency is exact: the coupling-induced level shift vanishes by band
  symmetry and the induced width is exactly gamma/2 per channel.

The packet geometry is fixed by rule, not by caller inputs: every packet
starts in the right channel, half the channel half-width left of the
cavity, with no momentum offset from its frequency, and the absorbing
ramps rise quadratically to 1 over ``absorber_width`` sites.  The lattice
is symmetric about the cavity, so right incidence runs as the mirrored
left incidence, with ``gamma1`` and ``gamma2`` swapped.  A
single-excitation run lasts the half-width unless the caller sets
``t_final``; a two-excitation run lasts the half-width plus
``6/(kappa+Gamma)`` and profiles separations up to ``6/(kappa+Gamma)``.
Both runs step on the fewest whole blocks of ``_GRID_STEPS`` = 4 equal
Runge-Kutta steps that end exactly at the horizon, each step at most the
stable ``dx/2`` (one excitation) or twice the Volterra step (two
excitations).

The default single-excitation geometry (``default_single_spec``) follows
from two rules.  The packet width is twice the minimum the bandwidth
guard ``1/width <= (kappa+Gamma)/2`` allows at kappa = 0, Gamma = 1, so
width 4, which covers every line with ``kappa + Gamma >= 0.5``.  The
packet is launched 7.5 widths from the cavity: a 5-width launch was
measured not to converge, 6 and 7.5 widths do.  The rest follows: 40
sites per width and 6 widths of clearance between the launch point and
the absorber.  Carrier values need no finer grid, since the amplitude-sum
read-out is exact at the carrier for any ``dx``.

Transmission and reflection are reported two ways: raw channel norms
(which average the response over the packet bandwidth) and the ratio of
channel amplitude sums, which isolates the response exactly at the
carrier because free evolution leaves the zero-wavenumber envelope
component invariant.

This module deliberately imports nothing from the closed-form amplitude
modules; only the parameter containers cross the boundary.  Agreement
between this oracle and the closed forms is established in the
verification report and the test suite, never assumed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..model import Direction, ModelParams, TwoPhotonIn

__all__ = [
    "LatticeSpec",
    "LatticeResult",
    "TwoPhotonLatticeResult",
    "lattice_transmission",
    "lattice_two_photon",
    "default_single_spec",
    "default_two_photon_spec",
]

# coupling profile std in units of dx, and its truncation half-span in
# sites; exp(-8) relative tail at the cut, renormalized to unit sum
_PROFILE_STD_CELLS = 4.0
_PROFILE_HALFSPAN = 16
# packets start this fraction of the channel half-width upstream of the
# cavity, midway between it and the channel end
_LAUNCH_FRACTION = 0.5
# the rules behind ``default_single_spec``, in packet widths
_WIDTH_OVER_GUARD = 2.0
_LAUNCH_WIDTHS = 7.5
_ABSORBER_CLEARANCE_WIDTHS = 6.0
_SITES_PER_WIDTH = 40
# two-excitation quadrature: largest trapezoid step of the cavity Volterra
# equation, half the Runge-Kutta step, and largest Simpson step of the
# final pair integral
_VOLTERRA_STEP = 0.0025
_SIMPSON_STEP = 0.01
_GRID_STEPS = 4  # Runge-Kutta steps per time-grid block; ``_BLOCK_STEPS`` divides it


@dataclass(frozen=True)
class LatticeSpec:
    """Discretization and wavepacket geometry for the lattice oracle.

    ``n_sites`` counts lattice sites per chiral channel; the cavity sits
    at the center site.  ``packet_width`` is the Gaussian position spread
    (amplitude ``exp(-(x-x0)^2/(4 width^2))``).  ``absorber_width`` sites
    at each end carry a quadratic damping ramp rising to 1.  The time
    step follows from ``dx`` by the module's grid rule.
    """

    n_sites: int
    dx: float
    packet_width: float
    absorber_width: int

    def __post_init__(self):
        if self.n_sites < 64:
            raise ValueError(f"n_sites must be at least 64, got {self.n_sites}")
        if not (self.dx > 0.0 and np.isfinite(self.dx)):
            raise ValueError(f"dx must be positive and finite, got {self.dx}")
        if self.packet_width < 4.0 * self.dx:
            raise ValueError(
                f"packet_width {self.packet_width} under-resolved at dx={self.dx}"
            )
        if not (0 <= self.absorber_width < self.n_sites // 4):
            raise ValueError(
                f"absorber_width must lie in [0, n_sites/4), got {self.absorber_width}"
            )
        if self.n_sites // 2 - _PROFILE_HALFSPAN <= self.absorber_width:
            raise ValueError("coupling profile would overlap the absorbers")

    @property
    def half_width(self) -> float:
        """Half the spatial extent of each channel."""
        return (self.n_sites // 2) * self.dx

    def positions(self) -> np.ndarray:
        j0 = self.n_sites // 2
        return (np.arange(self.n_sites) - j0) * self.dx


def default_single_spec() -> LatticeSpec:
    """Geometry used for every single-photon agreement and norm check.

    Derived from two rules: the packet width is twice the bandwidth
    guard's minimum ``2/(kappa+Gamma)`` at kappa = 0, Gamma = 1, and the
    packet is launched 7.5 widths from the cavity (5 widths was measured
    not to converge).  With 40 sites per width and 6 widths from the
    launch point to the absorber this gives
    ``LatticeSpec(1201, 0.1, 4.0, 60)``.  It covers every line with
    ``kappa + Gamma >= 0.5``; narrower lines need a wider packet, as the
    guard in ``lattice_transmission`` says.
    """
    # the guard's minimum width 2/(kappa+Gamma) at kappa + Gamma = 1
    width = _WIDTH_OVER_GUARD * 2.0
    dx = width / _SITES_PER_WIDTH
    half_sites = round(_LAUNCH_WIDTHS * width / _LAUNCH_FRACTION / dx)
    absorber_start = round((_LAUNCH_WIDTHS + _ABSORBER_CLEARANCE_WIDTHS) * width / dx)
    return LatticeSpec(
        n_sites=2 * half_sites + 1, dx=dx, packet_width=width,
        absorber_width=half_sites - absorber_start,
    )


def default_two_photon_spec() -> LatticeSpec:
    """Geometry for the two-excitation run: 721 sites at ``dx = 0.05``.

    The run steps one block of up to three one-photon trajectories over
    its 722 modes (1443 when the left channel is kept) at a step of at most
    0.005 for its whole horizon, so its cost is linear in the sites, and
    the channels are shorter than ``default_single_spec``'s.
    """
    return LatticeSpec(n_sites=721, dx=0.05, packet_width=3.0, absorber_width=40)


@dataclass(frozen=True)
class LatticeResult:
    """Single-excitation run outcome.

    ``T``/``R`` are carrier-frequency values from amplitude-sum ratios,
    ``T_raw``/``R_raw`` the bandwidth-averaged channel norms; ``loss`` is
    ``1 - T_raw - R_raw``.  ``converged`` is False when the packet has
    not reached and cleared the scatterer by the final time: amplitude is
    left upstream in the incident channel, near the cavity or in it.
    ``norm_trace`` samples the total state norm at the start of every
    product of ``_BLOCK_STEPS`` Runge-Kutta steps and at the end,
    ``steps // _BLOCK_STEPS + 1`` samples.  The run's cost is ``steps``
    Runge-Kutta steps of ``modes`` amplitudes.
    """

    T: float
    R: float
    loss: float
    T_raw: float
    R_raw: float
    converged: bool
    final_cavity_pop: float
    steps: int
    modes: int
    norm_trace: np.ndarray


def _absorber(spec: LatticeSpec) -> np.ndarray:
    w = spec.absorber_width
    W = np.zeros(spec.n_sites)
    if w > 0:
        ramp = (np.arange(1, w + 1) / w) ** 2
        W[:w] = ramp[::-1]
        W[-w:] = ramp
    return W


def _packet(spec: LatticeSpec, k: float = 0.0) -> np.ndarray:
    """Unit-norm Gaussian envelope over the right channel, centered
    ``_LAUNCH_FRACTION`` of the half-width left of the cavity, with
    wavenumber ``k`` relative to the rotating frame."""
    x = spec.positions()
    x0 = -_LAUNCH_FRACTION * spec.half_width
    env = np.exp(-((x - x0) ** 2) / (4.0 * spec.packet_width**2)) * np.exp(1j * k * x)
    return env / np.sqrt(np.sum(np.abs(env) ** 2))


def _coupling_profile(spec: LatticeSpec) -> tuple[slice, np.ndarray]:
    """Discrete coupling density u_j around the center site.

    Returns the site slice and the profile values, normalized so that
    ``sum(u) * dx == 1`` exactly (the delta-coupling limit preserves the
    product ``sqrt(gamma) * integral``).
    """
    j0 = spec.n_sites // 2
    cells = np.arange(-_PROFILE_HALFSPAN, _PROFILE_HALFSPAN + 1, dtype=float)
    u = np.exp(-(cells**2) / (2.0 * _PROFILE_STD_CELLS**2))
    u /= u.sum() * spec.dx
    return slice(j0 - _PROFILE_HALFSPAN, j0 + _PROFILE_HALFSPAN + 1), u


def _one_point(params: ModelParams, omega, what: str) -> None:
    """Raise ValueError naming the input when a rate or the frequency
    ``omega`` is an array: a lattice run scatters one photon or pair at one
    parameter point.  ``what`` opens the frequency's message."""
    rates = ", ".join(f for f in ("omega_a", "kappa", "U", "gamma1", "gamma2")
                      if np.ndim(getattr(params, f)))
    if rates:
        raise ValueError(f"a lattice run scatters at one parameter point, got array-valued {rates}")
    if np.ndim(omega):
        raise ValueError(f"{what}, got array frequencies of shape {np.shape(omega)}")


def lattice_transmission(
    spec: LatticeSpec,
    params: ModelParams,
    omega_k: float,
    direction: Direction,
    t_final: float | None = None,
) -> LatticeResult:
    """Scatter a single-photon wavepacket off the cavity on the lattice.

    The packet starts half the channel half-width upstream of the cavity
    in the incident channel and is evolved for ``t_final`` (default: the
    channel half-width, twice the launch distance, enough for transmitted
    and reflected packets to reach mirror positions).  Right incidence
    runs as the mirrored left incidence, with ``gamma1`` and ``gamma2``
    swapped: the lattice is symmetric about the cavity.  Every run steps
    ``_BLOCK_STEPS`` Runge-Kutta steps per product and returns the state
    norm at each product's start and at the end as ``norm_trace``.

    Raises ValueError if a rate or ``omega_k`` is an array, the packet
    bandwidth is not narrow against the cavity linewidth ``kappa + Gamma``,
    the geometry cannot hold the packet clear of both the cavity and the
    absorbers, or ``t_final`` is not a positive, finite time.
    """
    _one_point(params, omega_k, "omega_k must be one frequency")
    if t_final is not None and not (np.isfinite(t_final) and t_final > 0.0):
        raise ValueError(f"t_final must be positive and finite, got {t_final}")
    G = params.Gamma
    sigma = spec.packet_width
    if 1.0 / sigma > 0.5 * (params.kappa + G):
        raise ValueError(
            f"packet spectral width {1.0 / sigma:.3g} is not narrow against "
            f"the linewidth kappa+Gamma = {params.kappa + G:.3g}"
        )
    half = spec.half_width
    d0 = _LAUNCH_FRACTION * half
    usable = half - spec.absorber_width * spec.dx
    if d0 < 2.0 * sigma or usable - d0 < 2.0 * sigma:
        raise ValueError(
            f"launch distance {d0} leaves the packet (width {sigma}) too close "
            "to the cavity or the absorbers"
        )
    horizon = 2.0 * d0 if t_final is None else float(t_final)

    if direction is Direction.RIGHT_INCIDENT:
        params = params.swapped()
    env = _packet(spec)
    n = spec.n_sites
    H = _single_particle_operator(spec, params, omega_k)
    psi = np.zeros(H.shape[0], dtype=complex)
    psi[:n] = env
    n_steps, dt = _time_grid(horizon, 0.5 * spec.dx)
    trace = np.empty(n_steps // _BLOCK_STEPS + 1)

    def record(step, parts, read):
        # each part is contiguous, the pair is not: two dot products, no copy
        trace[step // _BLOCK_STEPS] = parts[0] @ parts[0] + parts[1] @ parts[1]

    _rk4(H, psi, dt, n_steps, record, _BLOCK_STEPS)
    # the left channel slice is empty when the basis has none
    trans, refl, c = psi[:n], psi[n:-1], psi[-1]
    T_raw = float(np.sum(np.abs(trans) ** 2))
    R_raw = float(np.sum(np.abs(refl) ** 2))
    dc_in = np.sum(env)
    T_dc = float(abs(np.sum(trans) / dc_in) ** 2)
    R_dc = float(abs(np.sum(refl) / dc_in) ** 2)
    j0 = n // 2
    near = slice(max(j0 - 40, 0), min(j0 + 41, n))
    leftover = float(np.sum(np.abs(trans[near]) ** 2) + np.sum(np.abs(refl[near]) ** 2))
    # what of the incident packet has not yet reached the cavity
    leftover += float(np.sum(np.abs(trans[:near.start]) ** 2))
    cav = float(abs(c) ** 2)
    converged = cav < 1e-7 and leftover < 1e-5
    return LatticeResult(
        T=T_dc,
        R=R_dc,
        loss=1.0 - T_raw - R_raw,
        T_raw=T_raw,
        R_raw=R_raw,
        converged=converged,
        final_cavity_pop=cav,
        steps=n_steps,
        modes=H.shape[0],
        norm_trace=trace,
    )


@dataclass(frozen=True)
class TwoPhotonLatticeResult:
    """Transmitted-pair separation profile from the two-excitation run.

    ``density[i]`` is the two-point density summed over pair centers at
    photon separation ``separations[i]``, restricted to the transmitted
    channel downstream of the cavity.  ``converged`` is False while the
    doubly occupied cavity still holds ``final_double_cavity_pop >= 1e-6``.
    The run's cost is ``steps`` Runge-Kutta steps of ``modes``-long
    one-photon trajectories: the cavity's and one per distinct frequency.
    """

    separations: np.ndarray
    density: np.ndarray
    transmitted_norm: float
    converged: bool
    final_double_cavity_pop: float
    steps: int
    modes: int

    def decay_fit(self, max_separation: float) -> float:
        """Exponential decay rate of the profile, from a log-linear fit
        over separations up to ``max_separation``."""
        m = (self.separations <= max_separation) & (self.density > 0.0)
        if np.count_nonzero(m) < 3:
            raise ValueError("not enough profile points below max_separation")
        slope = np.polyfit(self.separations[m], np.log(self.density[m]), 1)[0]
        return float(-slope)

    def bunching_ratio(self, separation: float) -> float:
        """Density at zero separation over density at the profiled
        separation nearest ``separation``, which must lie in the profile."""
        if not 0.0 <= separation <= self.separations[-1]:
            raise ValueError(
                f"separation {separation} lies outside the profile "
                f"[0, {self.separations[-1]:g}]"
            )
        i = int(np.argmin(np.abs(self.separations - separation)))
        if self.density[i] == 0.0:
            return np.inf
        return float(self.density[0] / self.density[i])


@dataclass(frozen=True)
class _Generator:
    """The single-excitation generator H, as the numbers that define it.

    Mode layout: right-channel sites, then left-channel sites when the
    left channel is kept, then the cavity.  The sites form one
    tridiagonal block (``diag``, and the hop ``upper`` above it and
    ``-upper`` below it: the transport is skew-symmetric, and no hopping
    joins the two channels), the cavity couples to them through the
    ``border`` column and its transpose, and ``cavity`` is its diagonal
    entry.  The border's values are real; it is stored complex so that
    ``apply`` casts nothing.
    """

    diag: np.ndarray
    upper: np.ndarray
    border: np.ndarray
    cavity: complex

    @property
    def shape(self) -> tuple[int, int]:
        m = self.diag.size + 1
        return m, m

    def apply(self, psi: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """``out = H psi`` over the last axis of one state or a (k, m) block,
        with no allocation; ``work`` is scratch of ``psi``'s shape, and
        neither may be ``psi``."""
        sites, c = psi[..., :-1], psi[..., -1:]
        body, tmp = out[..., :-1], work[..., :-1]
        np.multiply(self.diag, sites, out=body)
        np.multiply(self.upper, sites[..., 1:], out=tmp[..., 1:])
        body[..., :-1] += tmp[..., 1:]
        np.multiply(self.upper, sites[..., :-1], out=tmp[..., 1:])
        body[..., 1:] -= tmp[..., 1:]
        np.multiply(self.border, c, out=tmp)
        body += tmp
        # einsum, not BLAS: a threaded complex gemv (64 x 64 and up) was
        # measured to stall for ~8 ms on two shared cores
        out[..., -1] = self.cavity * psi[..., -1] + np.einsum("...i,i", sites, self.border)


def _single_particle_operator(
    spec: LatticeSpec,
    params: ModelParams,
    omega_frame: float,
) -> _Generator:
    """Generator H (state evolves by dpsi/dt = -i H psi) for one
    excitation in the frame rotating at ``omega_frame``.

    The left channel is kept when it couples (gamma2 > 0); otherwise it
    stays empty, since every run launches into the right channel, and is
    left out of the basis.
    """
    n = spec.n_sites
    dx = spec.dx
    # centered transport: right-movers H = -i d/dx, left-movers H = +i d/dx
    hop = np.full(n - 1, -1j / (2.0 * dx))
    loss = -1j * _absorber(spec)
    cpl, u = _coupling_profile(spec)

    def column(gamma: float) -> np.ndarray:
        col = np.zeros(n, dtype=complex)
        col[cpl] = np.sqrt(gamma * dx) * u
        return col

    if params.gamma2 > 0.0:
        upper = np.concatenate((hop, [0.0], -hop))
        diag = np.concatenate((loss, loss))
        border = np.concatenate((column(params.gamma1), column(params.gamma2)))
    else:
        upper, diag, border = hop, loss, column(params.gamma1)
    # the difference matrix is skew-symmetric, so the transport is Hermitian
    cavity = (params.omega_a - omega_frame) - 0.5j * params.kappa
    return _Generator(diag, upper, border, cavity)


# a Runge-Kutta step, degree 4 in the generator, reaches this many sites each way
_REACH = 4
# Runge-Kutta steps per product of the blocked stepper.  Per step the band
# costs about the same at any K; its set-up grows as K^2 and the cavity's
# correction as K, and 4 ran no slower than 8
_BLOCK_STEPS = 4
_VOLTERRA_BLOCK = 64  # nodes per block of the Volterra solve
# p(z) = sum_{j<=4} z^j / j!: one classical Runge-Kutta step is P = p(A)
_STEP_POLY = (1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0)


def _local(H: _Generator, sites: np.ndarray, coupled: bool = True,
           transpose: bool = False) -> _Generator:
    """H on the given sites and the cavity, with no hop across a gap in
    ``sites``; without the cavity's terms when not ``coupled``, and as its
    transpose (hop negated; the border is symmetric) when ``transpose``."""
    upper = H.upper[sites[:-1]] * (np.diff(sites) == 1)
    if transpose:
        upper = -upper
    border = H.border[sites] if coupled else np.zeros(sites.size, dtype=complex)
    return _Generator(H.diag[sites], upper, border, H.cavity if coupled else 0.0)


def _within(mask: np.ndarray, reach: int) -> np.ndarray:
    """Where ``mask`` holds within ``reach`` entries either way."""
    return np.convolve(mask, np.ones(2 * reach + 1))[reach:reach + mask.size] > 0.0


def _near(H: _Generator, reach: int) -> np.ndarray:
    """The sites within ``reach`` of the border's support."""
    return np.flatnonzero(_within(H.border != 0.0, reach))


def _taylor_steps(H: _Generator, block: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """The (k, m) ``block`` after 0, 1, .. ``steps`` Runge-Kutta steps of H,
    each the Taylor terms of ``H.apply``: shape (steps + 1, k, m)."""
    out = np.empty((steps + 1,) + block.shape, dtype=complex)
    out[0] = block
    term, nxt, work = (np.empty_like(out[0]) for _ in range(3))
    for s in range(steps):
        out[s + 1] = term[...] = out[s]
        for j in range(1, _REACH + 1):
            H.apply(term, nxt, work)
            nxt *= -1j * dt / j
            out[s + 1] += nxt
            term, nxt = nxt, term
    return out


def _site_band(H: _Generator, dt: float, steps: int, reach: int) -> np.ndarray:
    """B^K for K = ``steps``, B the Runge-Kutta step of the site diagonals
    alone, in band storage ``band[i, reach + k] = B^K[i, i + k]`` with a zero
    cavity row: Horner's rule on ``q = p^K``.  A site whose ``2 reach + 1``
    neighbours each way see one hop and no absorber has the row of every
    such site, so Horner runs on the chain with those sites cut out (each
    stretch keeps its ends) and their rows copy a kept row ``reach`` sites
    inside the stretch."""
    # the sites' part of A = -i dt H is real: hop -dt/(2 dx), absorber -dt W
    diag, upper = ((-1j * dt * v).real for v in (H.diag, H.upper))
    odd = diag != 0.0
    odd[[0, -1]] = True
    odd[1:-1] |= upper[1:] != upper[:-1]
    cut = ~_within(odd, 2 * reach + 1)
    kept = np.flatnonzero(~cut)
    # the hop out of the site before a cut is the stretch's hop
    diag, upper = diag[kept], upper[kept[:-1]]
    q = np.array(_STEP_POLY)
    for _ in range(steps - 1):
        q = np.convolve(q, _STEP_POLY)
    # Horner on q(A) = sum_j w_j A^j / j!, nested as w_0 + A (w_1 + A/2 (w_2 + ..))
    weights = q * np.cumprod(np.append(1.0, np.arange(1.0, q.size)))
    band = np.zeros((kept.size, 2 * reach + 1))
    band[:, reach] = weights[-1]
    for t, j in enumerate(range(q.size - 1, 0, -1), start=1):
        # band <- w_{j-1} I + (A / j) band on the reach t it has grown to
        live = band[:, reach - t:reach + t + 1]
        prev = live / j
        np.multiply(diag[:, None], prev, out=live)
        # the hop below the diagonal is -upper
        live[1:, :-1] -= upper[:, None] * prev[:-1, 1:]
        live[:-1, 1:] += upper[:, None] * prev[1:, :-1]
        band[:, reach] += weights[j - 1]
    last = np.cumsum(~cut) - 1
    out = np.zeros((cut.size + 1, 2 * reach + 1))
    band.take(np.where(cut, last - reach, last), axis=0, out=out[:-1])
    return out


def _step_matrix(H: _Generator, dt: float, steps: int = 1) -> tuple[np.ndarray, ...]:
    """``steps`` = K classical Runge-Kutta steps of ``dpsi/dt = -i H psi``,
    for constant H the matrix ``P^K = q(A)`` with ``A = -i dt H`` and
    ``q = p^K``, as ``(band, rows, left, right)`` in O(m K) memory.

    ``band`` is ``_site_band``'s B^K, real, of reach 4K.  The cavity adds
    ``C = P^K - B^K``, nonzero only on the ``rows`` within 4K sites of the
    border's support and the cavity, the last, where ``C = left @ right``.
    There ``C = sum_k P^(K-1-k) D B^k`` with ``D = P - B`` of rank at most
    5: D's range is spanned by the cavity and ``A^j border`` for j < 4,
    where paths through the cavity end.  So ``left`` holds ``P^i Q`` and
    ``right`` ``Q^H D B^k`` for an orthonormal basis Q of that range, each
    stepped on the ``rows`` alone, which hold every path of at most 4K
    hops from or to Q's support."""
    reach = _REACH * steps
    sites = _near(H, reach)
    # Q by Gram-Schmidt, twice, on the border and its images under the sites
    basis = np.zeros((_REACH + 1, sites.size + 1), dtype=complex)
    basis[0, :-1] = H.border[sites]
    bare, work = _local(H, sites, coupled=False), np.empty_like(basis[0])
    for j in range(1, _REACH):
        bare.apply(basis[j - 1], basis[j], work)
    basis[-1, -1] = 1.0
    for j in range(_REACH):
        for _ in range(2):
            basis[j] -= np.einsum("k,kj->j", np.einsum("kj,j->k", basis[:j].conj(), basis[j]),
                                  basis[:j])
        basis[j] /= np.sqrt(np.vdot(basis[j], basis[j]).real)
    # the rows of Q^H D from D^T = P^T - B^T, where B^T zeroes the cavity
    # entry that the bare sites' step keeps; B^T keeps it zero after
    bare_t = _local(H, sites, coupled=False, transpose=True)
    start = (_taylor_steps(_local(H, sites, transpose=True), basis.conj(), dt, 1)[1]
             - _taylor_steps(bare_t, basis.conj(), dt, 1)[1])
    start[:, -1] += basis[:, -1].conj()
    right = _taylor_steps(bare_t, start, dt, steps - 1)
    right[1:, :, -1] = 0.0
    # the columns P^i Q, in the order of right's blocks: i = K - 1 - k
    left = _taylor_steps(_local(H, sites), basis, dt, steps - 1)[::-1]
    return (_site_band(H, dt, steps, reach), np.append(sites, H.shape[0] - 1),
            left.reshape(-1, sites.size + 1).T, right.reshape(-1, sites.size + 1))


def _cavity_readout(H: _Generator, dt: float, steps: int) -> np.ndarray:
    """The cavity entries within K = ``steps`` Runge-Kutta steps: column 2j
    is the cavity row of P^j and column 2j + 1 that of ``P_half P^j``, with
    ``P_half`` the step at ``dt / 2`` (the midpoint value), for j < K, on
    the ``rows`` of ``_step_matrix(H, dt, K)``.  Each row is stepped from
    the cavity by the transposed generator."""
    sites = _near(H, _REACH * steps)
    transposed = _local(H, sites, transpose=True)
    start = np.zeros((2, sites.size + 1), dtype=complex)
    start[:, -1] = 1.0
    start[1] = _taylor_steps(transposed, start[1:], 0.5 * dt, 1)[1, 0]
    return _taylor_steps(transposed, start, dt, steps - 1).reshape(2 * steps, -1).T


def _parts(M: np.ndarray) -> np.ndarray:
    """The complex matrix M acting on stacked real and imaginary parts."""
    return np.array([[M.real, -M.imag], [M.imag, M.real]])


def _rk4(H: _Generator, psi: np.ndarray, dt: float, n_steps: int, record=None,
         block: int = 1, readout: np.ndarray | None = None) -> None:
    """Advance ``dpsi/dt = -i H psi`` in place by ``n_steps`` classical
    fourth-order Runge-Kutta steps of one state or a (k, m) block, ``block``
    = K steps per product of ``_step_matrix``'s P^K; K must divide
    ``n_steps``.  The state is held as its real and imaginary parts,
    stacked, and each product is one real banded product over the sites,
    on windows of zero-padded copies of both parts, and the cavity's
    rank-5K correction on its ``rows``.  ``record(step, parts, read)``,
    when given, sees the parts and ``read``, the parts of the state's
    entries at the K-step ``rows`` times ``readout`` (complex, one column
    per read-out), before every block and after the last."""
    if block < 1 or n_steps % block:
        raise ValueError(f"{n_steps} steps are not a whole number of blocks of {block}")
    band, rows, left, right = _step_matrix(H, dt, block)
    reach = _REACH * block
    extra = np.empty((rows.size, 0)) if readout is None else readout
    # the correction's first factor and the read-out, in one product;
    # einsum, not BLAS, for the reason given in ``_Generator.apply``
    first, second, cut = _parts(np.vstack((right, extra.T))), _parts(left), right.shape[0]
    # two padded buffers of both parts, stepped from one into the other;
    # their pads stay zero
    pads = np.zeros((2, 2) + psi.shape[:-1] + (psi.shape[-1] + 2 * reach,))
    states = pads[..., reach:-reach]
    states[0] = psi.real, psi.imag
    windows = np.lib.stride_tricks.sliding_window_view(pads, 2 * reach + 1, axis=-1)
    near = np.empty((2,) + psi.shape[:-1] + rows.shape)
    for i in range(n_steps // block + 1):
        src, dst = states[i % 2], states[1 - i % 2]
        src.take(rows, axis=-1, out=near)
        inner = np.einsum("pqkj,q...j->p...k", first, near)
        if record is not None:
            record(i * block, src, inner[..., cut:])
        if i * block == n_steps:
            break
        np.einsum("ij,...ij->...i", band, windows[i % 2], out=dst)
        dst[..., rows] += np.einsum("pqik,q...k->p...i", second, inner[..., :cut])
    psi[...] = src[0] + 1j * src[1]


def _time_grid(horizon: float, max_step: float) -> tuple[int, float]:
    """Step count and step of the fewest whole ``_GRID_STEPS``-step blocks
    of steps at most ``max_step`` ending at ``horizon``; a block count within
    a relative 1e-9 of a whole number rounds to it, adding no block."""
    blocks = math.ceil(horizon / (_GRID_STEPS * max_step) * (1.0 - 1e-9))
    return _GRID_STEPS * blocks, horizon / (_GRID_STEPS * blocks)


def _trapezoid_volterra(free: np.ndarray, kernel: np.ndarray, a: complex) -> np.ndarray:
    """Solve ``c(t) = free(t) - A int_0^t kernel(t-s) c(s) ds`` on the
    uniform grid of ``free`` by the trapezoid rule, where ``a`` is ``A``
    times the grid step, ``_VOLTERRA_BLOCK`` nodes at a time: earlier
    blocks enter as one convolution, and a block's lower-triangular
    Toeplitz system ``(1 + a kernel[0]/2) I + a L`` has a Toeplitz inverse,
    whose first column ``inverse`` is the reciprocal power series."""
    c = np.empty_like(free)
    c[0] = free[0]
    size = max(1, min(_VOLTERRA_BLOCK, free.size - 1))
    inverse = np.empty(size, dtype=complex)
    inverse[0] = 1.0 / (1.0 + 0.5 * a * kernel[0])
    for n in range(1, size):
        inverse[n] = -a * np.dot(kernel[1:n + 1], inverse[n - 1::-1]) * inverse[0]
    for i0 in range(1, free.size, size):
        i1 = min(i0 + size, free.size)
        rhs = free[i0:i1] - 0.5 * a * kernel[i0:i1] * c[0]
        if i0 > 1:
            # kernel[i-j] c[j] for j = 1 .. i0-1 at every node i of the block
            rhs -= a * np.convolve(c[1:i0], kernel[1:i1 - 1], "valid")
        c[i0:i1] = np.convolve(inverse[:i1 - i0], rhs)[:i1 - i0]
    return c


def _volterra(free: np.ndarray, kernel: np.ndarray, a: complex) -> np.ndarray:
    """``_trapezoid_volterra`` on the given grid and on every second
    node, Richardson-extrapolated: the trapezoid error is a series in even
    powers of the step, so the result on every second node is O(h^4)."""
    fine = _trapezoid_volterra(free, kernel, a)[::2]
    return (4.0 * fine - _trapezoid_volterra(free[::2], kernel[::2], 2.0 * a)) / 3.0


def lattice_two_photon(
    spec: LatticeSpec,
    params: ModelParams,
    incoming: TwoPhotonIn,
) -> TwoPhotonLatticeResult:
    """Evolve two photons through the cavity and profile their bunching.

    Both photons start in the incident channel as Gaussian envelopes at
    the single-excitation launch position, with momentum ramps placing
    each at its own frequency around the mean frame.  The pair amplitude
    ``Psi[p, q]`` obeys ``i dPsi/dt = H1 Psi + Psi H1^T + 2U c E_cc``,
    where ``c = Psi[cav, cav]``: the Kerr term is rank one, so

        c(t) = c0(t) - 2iU int_0^t g(t-s)^2 c(s) ds,
        Psi(T) = Psi0(T) - 2iU int_0^T c(s) u(T-s) u(T-s)^T ds,

    with ``u(tau) = exp(-i H1 tau)|cav>``, ``g(tau) = u(tau)[cav]`` and
    ``Psi0`` the free pair.  Up to three trajectories carry the run,
    ``u`` and the packets (one when both photons share a frequency),
    stepped as the rows of one block by the single-excitation run's
    Runge-Kutta on the module's time grid, two steps (one Simpson step)
    per product, so that each Simpson node, where ``u``'s transmitted rows
    are read, starts a product.  The cavity entries at each step and at
    its midpoint (the cavity row of the step at half the step) are read
    out from each product's start.  The Volterra equation is solved,
    blockwise, by the trapezoid rule at half the Runge-Kutta step, at most
    ``_VOLTERRA_STEP`` = 0.0025, and at twice that, combined by Richardson
    extrapolation, and the final integral by Simpson's rule with step at
    most ``_SIMPSON_STEP`` = 0.01 on the transmitted rows.

    The run lasts the channel half-width plus ``6/(kappa+Gamma)``, six
    bound-state decay lengths, so the pair clears the cavity.  The
    transmitted-channel two-point density is then accumulated per photon
    separation up to ``6/(kappa+Gamma)`` (summed over pair centers
    downstream of the cavity).

    Right incidence runs as the mirrored left incidence, with ``gamma1``
    and ``gamma2`` swapped, as in ``lattice_transmission``.  Unlike
    ``lattice_transmission`` it does not require the launch to
    clear the cavity and the absorbers by two packet widths: on a short
    channel the pair starts partly on the coupling profile.

    Raises ValueError when ``incoming`` holds arrays of frequencies or a
    rate is an array: one run launches one pair at one parameter point.
    """
    return _two_photon_run(spec, params, incoming, 1.0)


def _two_photon_run(
    spec: LatticeSpec, params: ModelParams, incoming: TwoPhotonIn, step_scale: float
) -> TwoPhotonLatticeResult:
    """``lattice_two_photon`` with its time steps scaled by ``step_scale``."""
    _one_point(params, incoming.omega, "incoming must be one photon pair")
    G = params.Gamma
    x = spec.positions()
    if incoming.direction is Direction.RIGHT_INCIDENT:
        params = params.swapped()
    omega_frame = 0.5 * (incoming.omega_k1 + incoming.omega_k2)
    H1 = _single_particle_operator(spec, params, omega_frame)
    n = spec.n_sites

    # the trajectories, as the rows of one block: u, then the packets phi1,
    # phi2 (one when the pair is degenerate), in the right channel
    omegas = dict.fromkeys((incoming.omega_k1, incoming.omega_k2))
    trajectories = np.zeros((1 + len(omegas), H1.shape[0]), dtype=complex)
    trajectories[0, -1] = 1.0
    for packet, omega in zip(trajectories[1:], omegas):
        packet[:n] = _packet(spec, omega - omega_frame)
    # Psi(0) = norm (phi1 phi2^T + phi2 phi1^T), unit Frobenius norm
    norm = 1.0 / np.sqrt(2.0 + 2.0 * abs(np.vdot(trajectories[1], trajectories[-1])) ** 2)

    # six bound-state decay lengths: the horizon margin and profile reach.
    # A step is two Volterra trapezoid steps and a Simpson interval ``ratio``
    # = 2 steps, so the grid's 4-step blocks hold an even number of intervals
    reach = 6.0 / (params.kappa + G)
    n_steps, dt = _time_grid(spec.half_width + reach, 2.0 * _VOLTERRA_STEP * step_scale)
    ratio = max(1, round(_SIMPSON_STEP / (2.0 * _VOLTERRA_STEP)))
    n_coarse, coarse = n_steps // ratio, ratio * dt

    # transmitted channel: the right channel downstream of the cavity
    usable = np.abs(x) < spec.half_width - spec.absorber_width * spec.dx
    keep = np.nonzero((x > 1.0 / G) & usable)[0]
    rows = slice(keep[0], keep[-1] + 1)

    # g, a1 and a2 on the Volterra grid, from each block's start: the
    # cavity entries at every step node and midpoint of the block, filled
    # past the last node and dropped; and u's transmitted rows at every
    # Simpson node: the block divides ``ratio``, so each node starts one
    block = math.gcd(ratio, _BLOCK_STEPS)
    fine = np.empty((2, trajectories.shape[0], 2 * (n_steps + block)))
    emitted = np.empty((n_coarse + 1, keep.size), dtype=complex)

    def record(step, parts, read):
        fine[..., 2 * step:2 * (step + block)] = read
        if step % ratio == 0:
            emitted.real[step // ratio], emitted.imag[step // ratio] = parts[:, 0, rows]

    _rk4(H1, trajectories, dt, n_steps, record, block, _cavity_readout(H1, dt, block))
    g, *a = fine[0, :, :2 * n_steps + 1] + 1j * fine[1, :, :2 * n_steps + 1]
    # c comes back on the step nodes
    c = _volterra(2.0 * norm * a[0] * a[-1], g**2, 1j * params.U * dt)

    free = trajectories[1:, rows]
    psi = norm * (np.outer(free[0], free[-1]) + np.outer(free[-1], free[0]))
    # Simpson over s = T - tau, indexed by tau = i * coarse; the weights
    # are symmetric, so c(T - tau) is the reversed coarse samples.  The
    # sum of drive_i u_i u_i^T is V^T V with V = sqrt(drive) u, in place
    simpson = np.ones(n_coarse + 1)
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    emitted *= np.sqrt((-2j * params.U * coarse / 3.0) * simpson * c[::ratio][::-1])[:, None]
    psi += emitted.T @ emitted

    # ordered-pair density |Psi(p, q)|^2; the transmitted rows are
    # contiguous, so diagonal offset d is photon separation d * dx
    density = np.abs(psi) ** 2
    n_sep = int(round(reach / spec.dx)) + 1
    profile = np.array([np.trace(density, offset=d) for d in range(n_sep)])
    double_cav = float(abs(c[-1]) ** 2)
    return TwoPhotonLatticeResult(
        separations=np.arange(n_sep) * spec.dx,
        density=profile,
        transmitted_norm=float(np.sum(density)),
        converged=double_cav < 1e-6,
        final_double_cavity_pop=double_cav,
        steps=n_steps,
        modes=H1.shape[0],
    )
