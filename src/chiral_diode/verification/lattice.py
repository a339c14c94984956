"""Discretized-waveguide oracle, independent of every closed form.

A wavepacket is evolved on a 1D lattice with two chiral channels (right-
movers coupling with sqrt(gamma1), left-movers with sqrt(gamma2))
attached to a lossy cavity at the center.  Everything is computed in the
frame rotating at the probe frequency, so the packet is a slowly varying
envelope and the cavity term becomes the detuning ``omega_a - omega_k -
i kappa/2``.  The physics is defined once, as the sparse single-
excitation generator; both evolvers (the single-excitation run directly,
the two-excitation run through its symmetrized two-boson lift) step that
generator with one shared, in-place classical fourth-order Runge-Kutta.

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
starts half the channel half-width upstream of the cavity with no
momentum offset from its frequency, and the absorbing ramps rise
quadratically to 1 over ``absorber_width`` sites.  A single-excitation
run lasts the half-width unless the caller sets ``t_final``; a
two-excitation run lasts the half-width plus ``6/(kappa+Gamma)`` and
profiles separations up to ``6/(kappa+Gamma)``.

The default single-excitation geometry (``default_single_spec``) follows
from two rules.  The packet width is twice the minimum the bandwidth
guard ``1/width <= (kappa+Gamma)/2`` allows at kappa = 0, Gamma = 1, so
width 4, which covers every line with ``kappa + Gamma >= 0.5``.  The
packet is launched 7.5 widths from the cavity: a 5-width launch was
measured not to converge, 6 and 7.5 widths do.  The rest follows: 40
sites per width, the stable step ``dt = dx/2``, and 6 widths of clearance
between the launch point and the absorber.  Carrier values need no finer
grid, since the amplitude-sum read-out is exact at the carrier for any
``dx``.

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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


@dataclass(frozen=True)
class LatticeSpec:
    """Discretization and wavepacket geometry for the lattice oracle.

    ``n_sites`` counts lattice sites per chiral channel; the cavity sits
    at the center site.  ``packet_width`` is the Gaussian position spread
    (amplitude ``exp(-(x-x0)^2/(4 width^2))``).  ``absorber_width`` sites
    at each end carry a quadratic damping ramp rising to 1.
    """

    n_sites: int
    dx: float
    dt: float
    packet_width: float
    absorber_width: int

    def __post_init__(self):
        if self.n_sites < 64:
            raise ValueError(f"n_sites must be at least 64, got {self.n_sites}")
        if not (self.dx > 0.0 and np.isfinite(self.dx)):
            raise ValueError(f"dx must be positive and finite, got {self.dx}")
        if not (0.0 < self.dt <= 0.5 * self.dx + 1e-15):
            raise ValueError(
                f"dt must satisfy 0 < dt <= dx/2 for stable transport, got "
                f"dt={self.dt}, dx={self.dx}"
            )
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
    not to converge).  With 40 sites per width, ``dt = dx/2`` and 6 widths
    from the launch point to the absorber this gives
    ``LatticeSpec(1201, 0.1, 0.05, 4.0, 60)``.  It covers every line with
    ``kappa + Gamma >= 0.5``; narrower lines need a wider packet, as the
    guard in ``lattice_transmission`` says.
    """
    # the guard's minimum width 2/(kappa+Gamma) at kappa + Gamma = 1
    width = _WIDTH_OVER_GUARD * 2.0
    dx = width / _SITES_PER_WIDTH
    half_sites = round(_LAUNCH_WIDTHS * width / _LAUNCH_FRACTION / dx)
    absorber_start = round((_LAUNCH_WIDTHS + _ABSORBER_CLEARANCE_WIDTHS) * width / dx)
    return LatticeSpec(
        n_sites=2 * half_sites + 1, dx=dx, dt=0.5 * dx,
        packet_width=width, absorber_width=half_sites - absorber_start,
    )


def default_two_photon_spec() -> LatticeSpec:
    """Geometry for the two-excitation evolver (basis is quadratic in
    ``n_sites``, so the domain is much smaller)."""
    return LatticeSpec(
        n_sites=721, dx=0.05, dt=0.02,
        packet_width=3.0, absorber_width=40,
    )


@dataclass(frozen=True)
class LatticeResult:
    """Single-excitation run outcome.

    ``T``/``R`` are carrier-frequency values from amplitude-sum ratios,
    ``T_raw``/``R_raw`` the bandwidth-averaged channel norms; ``loss`` is
    ``1 - T_raw - R_raw``.  ``converged`` is False when the packet has
    not cleared the scatterer by the final time.  ``norm_trace`` (when
    requested) samples the total state norm once per time step.
    """

    T: float
    R: float
    loss: float
    T_raw: float
    R_raw: float
    converged: bool
    final_cavity_pop: float
    norm_trace: np.ndarray | None = None


def _absorber(spec: LatticeSpec) -> np.ndarray:
    w = spec.absorber_width
    W = np.zeros(spec.n_sites)
    if w > 0:
        ramp = (np.arange(1, w + 1) / w) ** 2
        W[:w] = ramp[::-1]
        W[-w:] = ramp
    return W


def _packet(spec: LatticeSpec, left_in: bool, k: float = 0.0) -> np.ndarray:
    """Unit-norm Gaussian envelope over one channel, centered
    ``_LAUNCH_FRACTION`` of the half-width upstream of the cavity, with
    wavenumber ``k`` relative to the rotating frame."""
    x = spec.positions()
    d0 = _LAUNCH_FRACTION * spec.half_width
    x0 = -d0 if left_in else d0
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


def lattice_transmission(
    spec: LatticeSpec,
    params: ModelParams,
    omega_k: float,
    direction: Direction,
    t_final: float | None = None,
    track_norm: bool = False,
) -> LatticeResult:
    """Scatter a single-photon wavepacket off the cavity on the lattice.

    The packet starts half the channel half-width upstream of the cavity
    in the incident channel and is evolved for ``t_final`` (default: the
    channel half-width, twice the launch distance, enough for transmitted
    and reflected packets to reach mirror positions).

    Raises ValueError if the packet bandwidth is not narrow against the
    cavity linewidth ``kappa + Gamma`` or the geometry cannot hold the
    packet clear of both the cavity and the absorbers.
    """
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

    left_in = direction is Direction.LEFT_INCIDENT
    env = _packet(spec, left_in)
    n = spec.n_sites
    H = _single_particle_operator(spec, params, omega_k, left_in)
    psi = np.zeros(H.shape[0], dtype=complex)
    off = 0 if left_in else n
    psi[off:off + n] = env
    n_steps = int(round(horizon / spec.dt))
    trace = np.empty(n_steps + 1) if track_norm else None
    _rk4(H, psi, spec.dt, n_steps, trace)
    # the left channel slice is empty when the basis has none
    R, L, c = psi[:n], psi[n:-1], psi[-1]

    trans, refl = (R, L) if left_in else (L, R)
    T_raw = float(np.sum(np.abs(trans) ** 2))
    R_raw = float(np.sum(np.abs(refl) ** 2))
    dc_in = np.sum(env)
    T_dc = float(abs(np.sum(trans) / dc_in) ** 2)
    R_dc = float(abs(np.sum(refl) / dc_in) ** 2)
    j0 = n // 2
    near = slice(max(j0 - 40, 0), min(j0 + 41, n))
    leftover = float(np.sum(np.abs(R[near]) ** 2) + np.sum(np.abs(L[near]) ** 2))
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
        norm_trace=trace,
    )


@dataclass(frozen=True)
class TwoPhotonLatticeResult:
    """Transmitted-pair separation profile from the two-excitation run.

    ``density[i]`` is the two-point density summed over pair centers at
    photon separation ``separations[i]``, restricted to the transmitted
    channel downstream of the cavity.
    """

    separations: np.ndarray
    density: np.ndarray
    transmitted_norm: float
    converged: bool
    final_double_cavity_pop: float

    def decay_fit(self, max_separation: float) -> float:
        """Exponential decay rate of the profile, from a log-linear fit
        over separations up to ``max_separation``."""
        m = (self.separations <= max_separation) & (self.density > 0.0)
        if np.count_nonzero(m) < 3:
            raise ValueError("not enough profile points below max_separation")
        slope = np.polyfit(self.separations[m], np.log(self.density[m]), 1)[0]
        return float(-slope)

    def bunching_ratio(self, separation: float) -> float:
        """Density at zero separation over density at ``separation``."""
        i = int(np.argmin(np.abs(self.separations - separation)))
        if self.density[i] == 0.0:
            return np.inf
        return float(self.density[0] / self.density[i])


def _single_particle_operator(
    spec: LatticeSpec,
    params: ModelParams,
    omega_frame: float,
    left_in: bool,
) -> sp.csr_matrix:
    """Sparse generator H (state evolves by dpsi/dt = -i H psi) for one
    excitation in the frame rotating at ``omega_frame``.

    Mode layout: right-channel sites, then left-channel sites, then the
    cavity.  The left channel is kept when it couples (gamma2 > 0) or
    carries the incident packet (right incidence); otherwise it stays
    empty and is left out of the basis.
    """
    n = spec.n_sites
    dx = spec.dx
    cav_shift = (params.omega_a - omega_frame) - 0.5j * params.kappa
    loss = -1j * _absorber(spec)
    up = np.full(n - 1, -1j / (2.0 * dx))
    down = np.full(n - 1, 1j / (2.0 * dx))
    cpl, u = _coupling_profile(spec)

    def channel(upper: np.ndarray, lower: np.ndarray) -> sp.csr_matrix:
        # centered transport, a Hermitian tridiagonal pair, plus the ramps
        block = sp.diags([loss, upper, lower], [0, 1, -1], format="csr")
        block.eliminate_zeros()
        return block

    def coupling(gamma: float) -> sp.csr_matrix:
        column = np.zeros((n, 1))
        column[cpl, 0] = np.sqrt(gamma * dx) * u
        return sp.csr_matrix(column)

    cavity = sp.csr_matrix(([cav_shift], ([0], [0])), shape=(1, 1))
    # right-movers H = -i d/dx, left-movers H = +i d/dx
    right, g1 = channel(up, down), coupling(params.gamma1)
    if params.gamma2 > 0.0 or not left_in:
        left, g2 = channel(down, up), coupling(params.gamma2)
        blocks = [[right, None, g1], [None, left, g2], [g1.T, g2.T, cavity]]
    else:
        blocks = [[right, g1], [g1.T, cavity]]
    return sp.bmat(blocks, format="csr", dtype=complex)


def _rk4(
    H: sp.csr_matrix,
    psi: np.ndarray,
    dt: float,
    n_steps: int,
    norms: np.ndarray | None = None,
) -> None:
    """Advance ``dpsi/dt = -i H psi`` in place by ``n_steps`` classical
    fourth-order Runge-Kutta steps.

    Three work vectors are reused across steps; only the sparse product
    allocates.  When given, ``norms`` (length ``n_steps + 1``) receives
    the squared state norm before every step and after the last one.
    """
    k = np.empty_like(psi)
    acc = np.empty_like(psi)
    stage = np.empty_like(psi)
    for step in range(n_steps):
        if norms is not None:
            norms[step] = np.vdot(psi, psi).real
        # acc = k1 + 2 k2 + 2 k3 + k4, accumulated in that order
        np.multiply(-1j, H @ psi, out=k)
        np.copyto(acc, k)
        for scale, weight in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
            np.multiply(scale, k, out=stage)
            np.add(psi, stage, out=stage)
            np.multiply(-1j, H @ stage, out=k)
            np.multiply(weight, k, out=stage)
            np.add(acc, stage, out=acc)
        np.multiply(dt / 6.0, acc, out=acc)
        np.add(psi, acc, out=psi)
    if norms is not None:
        norms[n_steps] = np.vdot(psi, psi).real


def _symmetrizer(m: int) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Isometry from the symmetric two-boson subspace into the product
    space; also returns the (p, q) mode indices of each basis pair."""
    pairs_p, pairs_q = np.triu_indices(m)
    dim = pairs_p.size
    idx = np.arange(dim)
    diag = pairs_p == pairs_q
    w = np.where(diag, 1.0, 1.0 / np.sqrt(2.0))
    rows = np.concatenate([idx, idx[~diag]])
    cols = np.concatenate(
        [pairs_p * m + pairs_q, pairs_q[~diag] * m + pairs_p[~diag]]
    )
    vals = np.concatenate([w, w[~diag]])
    S = sp.csr_matrix((vals, (rows, cols)), shape=(dim, m * m))
    return S, pairs_p, pairs_q


def lattice_two_photon(
    spec: LatticeSpec,
    params: ModelParams,
    incoming: TwoPhotonIn,
) -> TwoPhotonLatticeResult:
    """Evolve two photons through the cavity and profile their bunching.

    Both photons start in the incident channel as Gaussian envelopes at
    the single-excitation launch position, with momentum ramps placing
    each at its own frequency around the mean frame.  The state lives in
    the symmetrized two-boson basis; the Kerr term adds ``2U`` on the
    doubly occupied cavity configuration.  The run lasts the channel
    half-width plus ``6/(kappa+Gamma)``, six bound-state decay lengths, so
    the pair clears the cavity.  The transmitted-channel two-point density
    is then accumulated per photon separation up to ``6/(kappa+Gamma)``
    (summed over pair centers downstream of the cavity).
    """
    if spec.n_sites > 1024:
        raise ValueError(
            f"two-excitation basis is quadratic in n_sites; {spec.n_sites} > 1024"
        )
    G = params.Gamma
    x = spec.positions()
    left_in = incoming.direction is Direction.LEFT_INCIDENT
    if not left_in and params.gamma2 <= 0.0:
        raise ValueError("right incidence needs gamma2 > 0 for an incident channel")
    omega_frame = 0.5 * (incoming.omega_k1 + incoming.omega_k2)
    H1 = _single_particle_operator(spec, params, omega_frame, left_in)
    n = spec.n_sites
    m = H1.shape[0]

    # explicit stepper stability: crude spectral-radius bound
    g_norm = np.sqrt(params.Gamma / (2.0 * np.sqrt(np.pi) * _PROFILE_STD_CELLS * spec.dx))
    radius = 2.0 * (
        1.0 / spec.dx
        + abs((params.omega_a - omega_frame) - 0.5j * params.kappa)
        + g_norm
        + 1.0  # absorber ramp height
    ) + 2.0 * params.U
    if radius * spec.dt > 2.6:
        raise ValueError(
            f"dt={spec.dt} too large for stable stepping here; need dt <= "
            f"{2.6 / radius:.4g}"
        )

    # the incident channel is also the transmitted one
    off = 0 if left_in else n
    phi1, phi2 = np.zeros((2, m), dtype=complex)
    phi1[off:off + n] = _packet(spec, left_in, incoming.omega_k1 - omega_frame)
    phi2[off:off + n] = _packet(spec, left_in, incoming.omega_k2 - omega_frame)

    S, pairs_p, pairs_q = _symmetrizer(m)
    psi = S @ (np.kron(phi1, phi2) + np.kron(phi2, phi1))
    psi /= np.linalg.norm(psi)

    eye = sp.identity(m, dtype=complex, format="csr")
    cav = m - 1
    kerr = sp.csr_matrix(
        ([2.0 * params.U], ([cav * m + cav], [cav * m + cav])),
        shape=(m * m, m * m),
        dtype=complex,
    )
    # one sum: a separate ``H2 + kerr`` would hold two product-space copies
    H2 = sp.kron(H1, eye, format="csr") + sp.kron(eye, H1, format="csr") + kerr
    H_sym = (S @ (H2 @ S.T)).tocsr()

    # six bound-state decay lengths: the horizon margin and profile reach
    reach = 6.0 / (params.kappa + G)
    _rk4(H_sym, psi, spec.dt, int(round((spec.half_width + reach) / spec.dt)))

    # transmitted channel: where the incident packet continues
    downstream = (x > 1.0 / G) if left_in else (x < -1.0 / G)
    usable = np.abs(x) < spec.half_width - spec.absorber_width * spec.dx
    keep_modes = np.nonzero(downstream & usable)[0] + off

    # ordered-pair density psi(p,q): |c_pq|^2/2 off the diagonal (each
    # unordered pair covers one ordered (p, p+d)), |c_pp|^2 on it; the
    # profile is then smooth across zero separation like the continuum
    # density.  The transmitted probability sums |c_pq|^2 per unordered
    # pair.
    amp = np.where(pairs_p == pairs_q, np.abs(psi) ** 2, 0.5 * np.abs(psi) ** 2)
    n_sep = int(round(reach / spec.dx)) + 1
    profile = np.zeros(n_sep)
    both = np.isin(pairs_p, keep_modes) & np.isin(pairs_q, keep_modes)
    sep_idx = np.abs(pairs_q - pairs_p)
    in_range = both & (sep_idx < n_sep)
    np.add.at(profile, sep_idx[in_range], amp[in_range])
    transmitted_norm = float(np.sum(np.abs(psi[both]) ** 2))

    double_cav = float(np.abs(psi[(pairs_p == cav) & (pairs_q == cav)][0]) ** 2)
    converged = double_cav < 1e-6
    return TwoPhotonLatticeResult(
        separations=np.arange(n_sep) * spec.dx,
        density=profile,
        transmitted_norm=transmitted_norm,
        converged=converged,
        final_double_cavity_pop=double_cav,
    )
