"""Lattice oracle: spec validation, guard rails, unitarity, scattering
agreement on small geometries, the two-excitation profile and its
three-trajectory run against direct product-space exponentiation, and
the import-independence of the oracle from the closed-form modules."""

import ast
import dataclasses
import pathlib
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

import chiral_diode.verification.lattice as lattice_module
from chiral_diode import Direction, ModelParams, TwoPhotonIn, chiral_coeffs
from chiral_diode.model import PhotonIn
from chiral_diode.verification import (
    LatticeSpec,
    lattice_transmission,
    lattice_two_photon,
)
from chiral_diode.verification.lattice import (
    _single_particle_operator,
    _step_matrix,
    default_single_spec,
    default_two_photon_spec,
)
from chiral_diode.verification.report import _GATES, _lattice_checks, _step_halving_check

LEFT = Direction.LEFT_INCIDENT
RIGHT = Direction.RIGHT_INCIDENT

# small but converged geometry for sub-second scattering runs
SMALL = LatticeSpec(n_sites=2401, dx=0.1, packet_width=10.0, absorber_width=60)


class TestSpecValidation:
    def test_default_geometries_are_valid(self):
        assert default_single_spec().n_sites > default_two_photon_spec().n_sites

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="n_sites"):
            LatticeSpec(32, 0.1, 10.0, 0)

    def test_packet_resolution(self):
        with pytest.raises(ValueError, match="under-resolved"):
            LatticeSpec(2001, 0.1, 0.3, 60)

    def test_absorber_fraction(self):
        with pytest.raises(ValueError, match="absorber_width"):
            LatticeSpec(2001, 0.1, 10.0, 600)

    def test_positions_are_centered(self):
        x = SMALL.positions()
        assert x[SMALL.n_sites // 2] == 0.0
        assert x[-1] == pytest.approx(SMALL.half_width, abs=1e-12)
        assert x[0] == pytest.approx(-SMALL.half_width, abs=1e-12)


class TestRunGuards:
    def test_packet_bandwidth_must_resolve_the_linewidth(self):
        spec = LatticeSpec(2401, 0.1, 1.0, 60)
        p = ModelParams(0.0, 0.0, 0.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="narrow"):
            lattice_transmission(spec, p, 0.0, LEFT)

    def test_launch_must_clear_cavity_and_absorbers(self):
        # the packet starts 10 from the cavity, under two widths of 6
        spec = LatticeSpec(401, 0.1, 6.0, 20)
        p = ModelParams(0.0, 1.0, 0.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="launch"):
            lattice_transmission(spec, p, 0.0, LEFT)

    def test_short_horizon_reports_unconverged(self):
        p = ModelParams(0.0, 1.0, 0.0, 0.5, 0.5)
        res = lattice_transmission(SMALL, p, 0.0, LEFT, t_final=20.0)
        assert not res.converged

    @pytest.mark.parametrize("t_final", [0.0, -3.0, np.nan, np.inf])
    def test_horizon_must_be_positive_and_finite(self, t_final):
        p = ModelParams(0.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="t_final"):
            lattice_transmission(default_single_spec(), p, 0.0, LEFT, t_final=t_final)

    @pytest.mark.parametrize("direction", [LEFT, RIGHT])
    def test_packet_short_of_the_cavity_is_unconverged(self, direction):
        # gamma1 = kappa = Gamma: the closed form blocks left incidence
        # (T = 0), yet after 5 time units the packet is still 25 upstream
        # of the cavity, where every amplitude reads as transmitted
        p = ModelParams(0.0, 1.0, 0.0, 1.0, 0.0)
        res = lattice_transmission(default_single_spec(), p, 0.0, direction, t_final=5.0)
        assert res.T > 0.99
        assert not res.converged
        assert lattice_transmission(default_single_spec(), p, 0.0, direction).converged

    @pytest.mark.parametrize("rates, names", [
        ((np.array([0.5, 1.0]), 0.7, 0.3), "kappa"),
        ((1.0, np.array([0.7, 0.5]), np.array([0.3, 0.5])), "gamma1, gamma2"),
    ])
    def test_array_rates_are_rejected_naming_them(self, rates, names):
        kappa, g1, g2 = rates
        p = ModelParams(0.0, kappa, 10.0, g1, g2)
        message = f"one parameter point, got array-valued {names}$"
        with pytest.raises(ValueError, match=message):
            lattice_transmission(default_single_spec(), p, 0.0, LEFT)
        with pytest.raises(ValueError, match=message):
            lattice_two_photon(default_two_photon_spec(), p, TwoPhotonIn(LEFT, 0.0, 0.0))

    def test_array_frequency_is_rejected_naming_it(self):
        p = ModelParams(0.0, 1.0, 0.0, 0.7, 0.3)
        with pytest.raises(ValueError, match=r"omega_k must be one frequency, .* shape \(5,\)"):
            lattice_transmission(default_single_spec(), p, np.linspace(-1.0, 1.0, 5), LEFT)


class TestDefaultGeometry:
    """The rule behind ``default_single_spec`` and what it buys."""

    def test_rule_fixes_the_geometry(self):
        spec = default_single_spec()
        assert spec == LatticeSpec(1201, 0.1, 4.0, 60)
        sigma = spec.packet_width
        # twice the bandwidth guard's minimum 2/(kappa+Gamma) at kappa = 0,
        # Gamma = 1
        assert sigma >= 2.0 * (2.0 / (0.0 + 1.0))
        d0 = lattice_module._LAUNCH_FRACTION * spec.half_width
        assert d0 >= 7.5 * sigma
        usable = spec.half_width - spec.absorber_width * spec.dx
        assert usable - d0 >= 2.0 * sigma

    @pytest.mark.parametrize(
        "kappa, g1, detuning, direction",
        [
            (0.0, 0.2, 0.0, RIGHT),
            (0.0, 0.2, -1.5, LEFT),
            (0.0, 0.8, 0.7, LEFT),
            (0.3, 0.2, -0.4, RIGHT),
            (0.3, 0.8, 0.0, LEFT),
            (0.3, 0.8, 0.7, RIGHT),
            (2.0, 0.2, -1.5, RIGHT),
            (2.0, 0.8, -0.4, LEFT),
        ],
    )
    def test_agrees_off_the_acceptance_regimes(self, kappa, g1, detuning, direction):
        p = ModelParams(0.0, kappa, 0.0, g1, 1.0 - g1)
        res = lattice_transmission(default_single_spec(), p, detuning, direction)
        ref = chiral_coeffs(p, PhotonIn(omega_k=detuning, direction=direction))
        assert res.converged
        assert abs(res.T - ref.T) < 1e-4
        assert abs(res.R - ref.R) < 1e-4

    def test_five_width_launch_does_not_converge(self):
        # the packet tail still drives the cavity when the run ends
        short = LatticeSpec(1601, 0.05, 4.0, 120)
        d0 = lattice_module._LAUNCH_FRACTION * short.half_width
        assert d0 == pytest.approx(5.0 * short.packet_width)
        p = ModelParams(0.0, 0.01, 0.0, 1.0, 0.0)
        assert not lattice_transmission(short, p, 0.0, LEFT).converged
        assert lattice_transmission(default_single_spec(), p, 0.0, LEFT).converged


class TestSinglePhotonAgreement:
    def test_ideal_diode_blocks_left_and_passes_right(self):
        p = ModelParams(0.0, 1.0, 0.0, 1.0, 0.0)
        left = lattice_transmission(SMALL, p, 0.0, LEFT)
        right = lattice_transmission(SMALL, p, 0.0, RIGHT)
        assert left.converged and right.converged
        assert left.T < 0.02
        assert abs(right.T - 1.0) < 0.02
        assert left.R < 0.02 and right.R < 0.02

    def test_lossless_symmetric_resonance_fully_reflects(self):
        p = ModelParams(0.0, 0.0, 0.0, 0.5, 0.5)
        res = lattice_transmission(SMALL, p, 0.0, LEFT)
        assert res.converged
        assert abs(res.R - 1.0) < 0.02
        assert res.T < 0.02

    def test_partial_coupling_matches_closed_form(self):
        p = ModelParams(0.0, 0.5, 0.0, 0.7, 0.3)
        for d in (LEFT, RIGHT):
            res = lattice_transmission(SMALL, p, 0.0, d)
            ref = chiral_coeffs(p, PhotonIn(omega_k=0.0, direction=d))
            assert res.converged
            assert abs(res.T - ref.T) < 0.02
            assert abs(res.R - ref.R) < 0.02

    def test_right_incidence_without_a_right_coupling_steps_one_channel(self):
        # the mirrored run leaves its uncoupled left channel out of the basis
        p = ModelParams(0.1, 0.3, 0.0, 0.0, 1.0)
        spec = default_single_spec()
        res = lattice_transmission(spec, p, 0.2, RIGHT)
        ref = chiral_coeffs(p, PhotonIn(omega_k=0.2, direction=RIGHT))
        assert res.converged and res.modes == spec.n_sites + 1
        assert abs(res.T - ref.T) < 1e-4 and res.R == ref.R == 0.0

    def test_raw_norms_bracket_the_carrier_values(self):
        # bandwidth averaging can only pull the raw transmission toward
        # the off-resonant value, here upward from the resonant dip
        p = ModelParams(0.0, 1.0, 0.0, 0.5, 0.5)
        res = lattice_transmission(SMALL, p, 0.0, LEFT)
        assert res.T_raw >= res.T - 1e-9
        assert 0.0 <= res.loss <= 1.0


class TestNormBehavior:
    def test_norm_conserved_without_any_loss(self):
        spec = LatticeSpec(2001, 0.08, 6.0, 0)
        p = ModelParams(0.0, 0.0, 0.0, 0.5, 0.5)
        res = lattice_transmission(spec, p, 0.0, LEFT)
        assert float(np.max(np.abs(res.norm_trace - 1.0))) < 1e-8

    def test_norm_never_increases_with_loss_on(self):
        spec = LatticeSpec(2001, 0.08, 6.0, 80)
        p = ModelParams(0.0, 1.0, 0.0, 0.7, 0.3)
        res = lattice_transmission(spec, p, 0.0, LEFT)
        assert float(np.max(np.diff(res.norm_trace))) < 1e-10
        assert res.norm_trace[-1] < 1.0

    @staticmethod
    def _checks_with_cavity(monkeypatch, cavity):
        """verify's single-excitation lattice checks, every generator's
        cavity entry mapped by ``cavity``."""
        build = lattice_module._single_particle_operator

        def mutant(*args):
            H = build(*args)
            return dataclasses.replace(H, cavity=cavity(H.cavity))

        monkeypatch.setattr(lattice_module, "_single_particle_operator", mutant)
        return {c.name: c for c in _lattice_checks()}

    def test_verify_drift_check_fires_on_a_cavity_leak(self, monkeypatch):
        # a leak the agreement check cannot see: T and R move by ~1e-5
        checks = self._checks_with_cavity(monkeypatch, lambda c: c - 1e-6j)
        assert checks["lattice_agreement_max_dev"].passed
        drift = checks["lattice_norm_drift_lossless"]
        assert not drift.passed and drift.value > 1e-6

    @pytest.mark.parametrize("gain", [
        # a net gain at kappa = 0.01 alone
        lambda c: c + 0.01j,
        # the kappa = 100 loss turned gain: that run alone overflows, and
        # its nan rise must fail the check, not drop out of the maximum
        lambda c: c.conjugate() if c.imag < -10.0 else c,
    ], ids=["slight", "overflowing"])
    def test_verify_rise_check_fires_on_cavity_gain(self, gain, monkeypatch):
        with np.errstate(all="ignore"):
            checks = self._checks_with_cavity(monkeypatch, gain)
        assert not checks["lattice_norm_max_rise"].passed


# the generator's channel layouts: left incidence at gamma2 = 0 (the left
# channel left out) and 0.4, and right incidence at gamma2 = 0, which runs
# as left incidence at gamma2 = 1 (the right channel uncoupled)
LAYOUTS = [(0.0, True), (0.4, True), (0.0, False)]


def _operator(spec, gamma2, left_in, kappa=0.8):
    """The generator of the run incident from the given side."""
    p = ModelParams(0.3, kappa, 0.0, 1.0 - gamma2, gamma2)
    return _single_particle_operator(spec, p if left_in else p.swapped(), 0.2)


def _dense(H):
    """The matrix of H from ``apply`` on the identity block: row i of the
    result is ``H e_i``, so the block holds H transposed."""
    eye = np.eye(H.shape[0], dtype=complex)
    out, work = np.empty_like(eye), np.empty_like(eye)
    H.apply(eye, out, work)
    return out.T


class TestGenerator:
    # small enough for dense linear algebra on the (2n+1)-mode generator
    TINY = LatticeSpec(101, 0.1, 1.0, 10)
    # the single-excitation run's step at this dx
    DT = 0.5 * TINY.dx

    def test_hermitian_without_losses(self):
        spec = dataclasses.replace(self.TINY, absorber_width=0)
        p = ModelParams(0.3, 0.0, 0.0, 0.7, 0.3)
        D = _dense(_single_particle_operator(spec, p, 0.0))
        assert D.shape == (2 * spec.n_sites + 1,) * 2
        assert np.array_equal(D, D.conj().T)

    def test_left_channel_kept_only_when_coupled(self):
        p = ModelParams(0.0, 1.0, 0.0, 1.0, 0.0)
        n = self.TINY.n_sites
        assert _single_particle_operator(self.TINY, p, 0.0).shape == (n + 1, n + 1)
        swapped = _single_particle_operator(self.TINY, p.swapped(), 0.0)
        assert swapped.shape == (2 * n + 1, 2 * n + 1)

    @pytest.mark.parametrize("g1", [0.0, 0.6, 1.0])
    def test_losses_never_raise_the_norm(self, g1):
        # d|psi|^2/dt = 2 psi^H Re(A) psi with A = -iH, so the Hermitian
        # part of A must be negative semidefinite
        p = ModelParams(0.2, 0.8, 0.0, g1, 1.0 - g1)
        A = -1j * _dense(_single_particle_operator(self.TINY, p, 0.0))
        assert np.linalg.eigvalsh(0.5 * (A + A.conj().T)).max() < 1e-12

    @pytest.mark.parametrize("gamma2, left_in", LAYOUTS)
    def test_block_apply_matches_per_state_apply(self, gamma2, left_in):
        # the step matrix is built by applying H to a block of probes, and
        # the tests read H from a block too: each row must see one operator
        H = _operator(self.TINY, gamma2, left_in)
        m = H.shape[0]
        channels = 1 if gamma2 == 0.0 and left_in else 2
        assert m == channels * self.TINY.n_sites + 1
        rng = np.random.default_rng(5)
        block = rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m))
        out, work = np.empty_like(block), np.empty_like(block)
        H.apply(block, out, work)
        one, scratch = np.empty(m, dtype=complex), np.empty(m, dtype=complex)
        for psi, got in zip(block, out):
            H.apply(psi, one, scratch)
            assert np.linalg.norm(got - one) <= 1e-14 * np.linalg.norm(one)

    @staticmethod
    def _taylor_step(H, dt):
        """The classical Runge-Kutta step of a constant H as a full matrix."""
        A = -1j * dt * _dense(H)
        P = term = np.eye(H.shape[0], dtype=complex)
        for j in range(1, 5):
            term = term @ A / j
            P = P + term
        return P

    @pytest.mark.parametrize("gamma2, left_in", LAYOUTS)
    def test_step_matrix_is_the_taylor_step(self, gamma2, left_in):
        H = _operator(self.TINY, gamma2, left_in)
        dt = self.DT
        P = self._taylor_step(H, dt)
        # one step of every unit vector: row i becomes P e_i
        stepped = np.eye(H.shape[0], dtype=complex)
        lattice_module._rk4(H, stepped, dt, 1)
        assert np.linalg.norm(stepped.T - P) <= 1e-14 * np.linalg.norm(P)
        # the cavity row at half the step, which gives the midpoint values
        # of the two-excitation run, lies on the step matrix's rows
        rows = _step_matrix(H, dt)[1]
        half = lattice_module._cavity_readout(H, dt, 1)[:, 1]
        row = self._taylor_step(H, 0.5 * dt)[-1]
        assert np.linalg.norm(half - row[rows]) <= 1e-14 * np.linalg.norm(row)
        assert not np.any(np.delete(row, rows))

    @pytest.mark.parametrize("gamma2, left_in", LAYOUTS)
    def test_block_step_matches_per_state_steps(self, gamma2, left_in):
        H = _operator(self.TINY, gamma2, left_in)
        m = H.shape[0]
        rng = np.random.default_rng(11)
        block = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        states = block.copy()
        lattice_module._rk4(H, block, self.DT, 7)
        for psi, got in zip(states, block):
            lattice_module._rk4(H, psi, self.DT, 7)
            assert np.linalg.norm(got - psi) <= 1e-14 * np.linalg.norm(psi)


def _dense_step(H, dt, steps):
    """The K-step matrix of ``_step_matrix`` as a full matrix: its band
    plus the low-rank cavity correction on its rows."""
    band, rows, left, right = _step_matrix(H, dt, steps)
    m, reach = H.shape[0], band.shape[1] // 2
    M = np.zeros((m, m), dtype=complex)
    for k in range(-reach, reach + 1):
        i = np.arange(max(0, -k), min(m, m - k))
        M[i, i + k] = band[i, reach + k]
    M[np.ix_(rows, rows)] += left @ right
    return M


class TestBlockedStepper:
    """K Runge-Kutta steps per product against K single Taylor steps of
    the full matrix, in the three channel layouts."""

    TINY, DT = TestGenerator.TINY, TestGenerator.DT

    @pytest.mark.parametrize("gamma2, left_in", LAYOUTS)
    @pytest.mark.parametrize("steps", [1, 2, 8])
    def test_step_matrix_is_the_power_of_the_taylor_step(self, gamma2, left_in, steps):
        H = _operator(self.TINY, gamma2, left_in)
        P = np.linalg.matrix_power(TestGenerator._taylor_step(H, self.DT), steps)
        got = _dense_step(H, self.DT, steps)
        assert np.linalg.norm(got - P) <= 1e-14 * np.linalg.norm(P)

    @pytest.mark.parametrize("gamma2, left_in", LAYOUTS)
    def test_site_band_on_a_chain_with_stretches_cut(self, gamma2, left_in):
        # long uniform stretches: Horner runs on the cut chain, and the rows
        # far from the absorbers, the channel ends and the join copy a kept row
        spec = LatticeSpec(401, 0.1, 1.0, 20)
        H = _operator(spec, gamma2, left_in)
        steps, reach = 2, 8
        bare = dataclasses.replace(H, border=np.zeros_like(H.border), cavity=0.0)
        B = np.linalg.matrix_power(TestGenerator._taylor_step(bare, 0.5 * spec.dx), steps)[:-1, :-1]
        band = lattice_module._site_band(H, 0.5 * spec.dx, steps, reach)
        got = np.zeros_like(B)
        for k in range(-reach, reach + 1):
            i = np.arange(max(0, -k), min(B.shape[0], B.shape[0] - k))
            got[i, i + k] = band[i, reach + k]
        assert not np.any(band[-1])
        assert np.max(np.abs(got - B)) <= 1e-15

    @pytest.mark.parametrize("steps", [2, 8])
    def test_stiff_cavity_stays_accurate(self, steps):
        # kappa dt / 2 = 2.5: the terms of p^8(-2.5) reach 2e7 for a value
        # of 0.03, so summing them would lose ~1e-8; the cavity's part is
        # stepped instead
        H = _operator(self.TINY, 0.4, True, kappa=100.0)
        P = np.linalg.matrix_power(TestGenerator._taylor_step(H, self.DT), steps)
        got = _dense_step(H, self.DT, steps)
        assert np.linalg.norm(got - P) <= 1e-14 * np.linalg.norm(P)

    def _blocked_run(self, H, states, n_steps, block):
        """Step ``states`` by ``_rk4`` in blocks and collect the cavity
        entry at every step node and midpoint, as the two-excitation run
        does."""
        dt = self.DT
        fine = np.empty((2,) + states.shape[:-1] + (2 * (n_steps + block),))

        def record(step, parts, read):
            fine[..., 2 * step:2 * (step + block)] = read

        lattice_module._rk4(H, states, dt, n_steps, record, block,
                            lattice_module._cavity_readout(H, dt, block))
        return (fine[0] + 1j * fine[1])[..., :2 * n_steps + 1]

    def _taylor_run(self, H, states, n_steps):
        dt = self.DT
        P = TestGenerator._taylor_step(H, dt)
        half = TestGenerator._taylor_step(H, 0.5 * dt)[-1]
        x = states.T.copy()
        reads = np.empty(states.shape[:-1] + (2 * n_steps + 1,), dtype=complex)
        for j in range(n_steps):
            reads[:, 2 * j], reads[:, 2 * j + 1] = x[-1], half @ x
            x = P @ x
        reads[:, -1] = x[-1]
        return x.T, reads

    @pytest.mark.parametrize("gamma2, left_in", LAYOUTS)
    @pytest.mark.parametrize("n_steps, block", [(16, 1), (16, 2), (16, 8), (19, 1)])
    def test_blocks_equal_single_steps(self, gamma2, left_in, block, n_steps):
        H = _operator(self.TINY, gamma2, left_in)
        rng = np.random.default_rng(3)
        states = rng.standard_normal((3, H.shape[0])) + 1j * rng.standard_normal((3, H.shape[0]))
        want, want_reads = self._taylor_run(H, states, n_steps)
        reads = self._blocked_run(H, states, n_steps, block)
        assert np.max(np.abs(states - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(reads - want_reads)) <= 1e-13 * np.max(np.abs(want_reads))

    def test_one_step_short_a_block_fails(self, monkeypatch):
        # the same comparison catches a step matrix built from p^(K-1)
        H = _operator(self.TINY, 0.4, True)
        rng = np.random.default_rng(3)
        states = rng.standard_normal((3, H.shape[0])) + 1j * rng.standard_normal((3, H.shape[0]))
        want, _ = self._taylor_run(H, states, 16)
        site_band = lattice_module._site_band
        monkeypatch.setattr(lattice_module, "_site_band",
                            lambda H, dt, steps, reach: site_band(H, dt, steps - 1, reach))
        self._blocked_run(H, states, 16, 8)
        assert np.max(np.abs(states - want)) > 1e-3 * np.max(np.abs(want))

    def test_steps_must_fill_whole_blocks(self):
        H = _operator(self.TINY, 0.4, True)
        states = np.zeros((3, H.shape[0]), dtype=complex)
        with pytest.raises(ValueError, match="19 steps are not a whole number of blocks of 2"):
            lattice_module._rk4(H, states, self.DT, 19, block=2)

    def test_norm_trace_samples_every_product(self, monkeypatch):
        p = ModelParams(0.0, 1.0, 0.0, 0.7, 0.3)
        spec = default_single_spec()
        blocked = lattice_transmission(spec, p, 0.0, LEFT)
        assert (blocked.steps, blocked.modes) == (1200, 2403)
        assert blocked.norm_trace.size == blocked.steps // 4 + 1
        assert blocked.norm_trace[0] == pytest.approx(1.0, abs=1e-15)
        assert blocked.norm_trace[-1] == pytest.approx(blocked.T_raw + blocked.R_raw
                                                       + blocked.final_cavity_pop, rel=1e-12)
        # one step per product samples every step, each 4th on the blocked trace
        monkeypatch.setattr(lattice_module, "_BLOCK_STEPS", 1)
        single = lattice_transmission(spec, p, 0.0, LEFT)
        assert single.norm_trace.size == single.steps + 1 == blocked.steps + 1
        assert np.max(np.abs(single.norm_trace[::4] - blocked.norm_trace)) <= 1e-12
        for a, b in ((single.T, blocked.T), (single.R, blocked.R)):
            assert a == pytest.approx(b, rel=1e-12)

    def test_odd_horizon_steps_whole_blocks_to_the_horizon(self, monkeypatch):
        # 37.03 is no whole number of dx/2 = 0.05 steps: the run takes the
        # fewest whole 4-step blocks of shorter steps, in one call
        p = ModelParams(0.0, 1.0, 0.0, 0.7, 0.3)
        spec = default_single_spec()
        calls = []
        rk4 = lattice_module._rk4

        def counting(H, psi, dt, n_steps, record=None, block=1, readout=None):
            calls.append((n_steps, dt, block))
            rk4(H, psi, dt, n_steps, record, block, readout)

        monkeypatch.setattr(lattice_module, "_rk4", counting)
        blocked = lattice_transmission(spec, p, 0.0, LEFT, t_final=37.03)
        [(n_steps, dt, block)] = calls
        assert n_steps % 4 == 0 and block == 4 and blocked.steps == n_steps == 744
        assert dt <= 0.5 * spec.dx
        assert n_steps * dt == pytest.approx(37.03, rel=0.0, abs=1e-12)
        calls.clear()
        monkeypatch.setattr(lattice_module, "_BLOCK_STEPS", 1)
        single = lattice_transmission(spec, p, 0.0, LEFT, t_final=37.03)
        assert [(n, b) for n, _, b in calls] == [(n_steps, 1)] and single.steps == n_steps
        for name in ("T", "R", "T_raw", "R_raw"):
            assert getattr(blocked, name) == pytest.approx(getattr(single, name), rel=1e-12)

    def test_horizon_a_rounding_error_past_whole_blocks_adds_none(self):
        # the default horizon is 600 dx = 60; a horizon an ulp or a relative
        # 1e-10 past it keeps 1,200 steps, and 1e-8 past it adds one block
        assert lattice_module._time_grid(60.0, 0.05) == (1200, 0.05)
        for horizon in (np.nextafter(60.0, np.inf), 60.0 * (1.0 + 1e-10)):
            assert lattice_module._time_grid(horizon, 0.05)[0] == 1200
        assert lattice_module._time_grid(60.0 * (1.0 + 1e-8), 0.05)[0] == 1204


def _sequential_volterra(free, kernel, a):
    """The trapezoid-rule Volterra solve one node at a time: the reference
    for the blockwise solve."""
    c = np.empty_like(free)
    c[0] = free[0]
    last = free.size - 1
    rev = kernel[::-1]
    diag = 1.0 + 0.5 * a * kernel[0]
    for i in range(1, last + 1):
        history = 0.5 * kernel[i] * c[0] + np.dot(rev[last - i + 1:last], c[1:i])
        c[i] = (free[i] - a * history) / diag
    return c


class TestBlockwiseVolterra:
    B = lattice_module._VOLTERRA_BLOCK

    @pytest.mark.parametrize("size", [2, 3, B - 1, B, B + 1, B + 2, 2 * B + 1, 4801])
    @pytest.mark.parametrize("a", [0.025j, 0.3 - 0.2j])
    def test_matches_the_sequential_solve(self, size, a):
        # a decaying, oscillating kernel like g^2 and a smooth drive
        t = np.arange(size) * 0.0025
        kernel = np.exp(-(1.0 + 0.7j) * t) ** 2
        free = np.exp(-((t - 3.0) ** 2)) * np.exp(0.4j * t)
        ref = _sequential_volterra(free, kernel, a)
        got = lattice_module._trapezoid_volterra(free, kernel, a)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestPinnedReadouts:
    """Read-outs recorded from the run that stepped four generator
    applications per Runge-Kutta step and solved the Volterra equation one
    node at a time; the step matrix and the blockwise solve are the same
    arithmetic up to rounding.  Also the method's cost, in steps and modes."""

    BENCH = dataclasses.replace(default_two_photon_spec(), n_sites=361, absorber_width=20)
    PROFILE = [
        0.0021500994195456226, 0.0023671239818388763, 0.002063408355711065,
        0.0022311580845789463, 0.0018760801444618219, 0.0020075300913825504,
        0.0016264824068816233, 0.00173801853776111, 0.0013569162979496182,
        0.001461736135815403, 0.00110030266922967, 0.001205497091209241,
        0.0008751426625800175, 0.0009823777222088778, 0.0006875525221966993,
        0.0007953265898204624, 0.0005360590394197721, 0.0006417834769282118,
        0.0004158714069634126, 0.0005171190744235495, 0.00032150290302462544,
        0.0004164915935560984, 0.0002479291695503186, 0.0003355533260019232,
        0.0001908902636727398, 0.0002705907955948228, 0.00014687098483944373,
        0.00021850167750082916, 0.0001130237839286697, 0.00017674630326342,
        8.708735093120661e-05, 0.00014328069789884982, 6.729037907760233e-05,
        0.00011647008739635449, 5.2250799415746486e-05, 9.50041960991187e-05,
        4.0888020839997356e-05, 7.783019414051157e-05, 3.235868958370038e-05,
        6.41018164573005e-05, 2.6007399290929195e-05, 5.314136685150715e-05,
        2.1326599923826137e-05, 4.440631931452545e-05, 1.7924723665566927e-05,
        3.746236345210459e-05, 1.5499046491072722e-05, 3.196091713281405e-05,
        1.381479006668067e-05, 2.7620564937916353e-05, 1.268918574498086e-05,
        2.421392683910697e-05, 1.1979063771837564e-05, 2.1555555945005804e-05,
        1.1571352434520564e-05, 1.9493291793414434e-05, 1.1375714366727702e-05,
        1.7901082517859628e-05, 1.1318584403126258e-05, 1.6672305755487334e-05,
        1.1338277510842547e-05,
    ]

    def test_single_excitation_two_channels(self):
        p = ModelParams(0.0, 0.5, 0.0, 0.7, 0.3)
        res = lattice_transmission(default_single_spec(), p, 0.3, LEFT)
        assert res.converged
        pinned = (0.14176204303494094, 0.3218384218532108,
                  0.14795185822544324, 0.3190423362702143)
        assert (res.T, res.R, res.T_raw, res.R_raw) == pytest.approx(pinned, rel=1e-9, abs=0.0)
        assert (res.steps, res.modes) == (1200, 2403)

    def test_two_excitation_bench_geometry(self):
        p = ModelParams(0.0, 1.0, 10.0, 1.0, 0.0)
        res = lattice_two_photon(self.BENCH, p, TwoPhotonIn(LEFT, 0.0, 0.0))
        assert res.density == pytest.approx(np.array(self.PROFILE), rel=1e-9, abs=0.0)
        assert res.transmitted_norm == pytest.approx(0.059172989210325475, rel=1e-9, abs=0.0)
        assert res.final_double_cavity_pop == pytest.approx(
            3.613455077760218e-14, rel=1e-9, abs=0.0)
        assert (res.steps, res.modes) == (2400, 362)

    def test_two_excitation_does_not_depend_on_the_step_block(self, monkeypatch):
        # one Runge-Kutta step per block, for u and the packets alike
        p = ModelParams(0.0, 1.0, 10.0, 1.0, 0.0)
        pair = TwoPhotonIn(LEFT, 0.0, 0.0)
        shipped = lattice_two_photon(self.BENCH, p, pair)
        monkeypatch.setattr(lattice_module, "_BLOCK_STEPS", 1)
        single = lattice_two_photon(self.BENCH, p, pair)
        assert single.density == pytest.approx(shipped.density, rel=1e-12, abs=0.0)
        assert single.transmitted_norm == pytest.approx(shipped.transmitted_norm,
                                                        rel=1e-12, abs=0.0)
        # the population left in the cavity, 3.6e-14, is what remains of an
        # O(1) amplitude, so its rounding is larger relative to it (3.2e-11)
        assert single.final_double_cavity_pop == pytest.approx(
            shipped.final_double_cavity_pop, rel=1e-9, abs=0.0)


class TestTwoPhotonLattice:
    def test_coarse_bunching_profile(self):
        spec = LatticeSpec(361, 0.1, 3.0, 40)
        p = ModelParams(0.0, 1.0, 10.0, 1.0, 0.0)
        pair = TwoPhotonIn(LEFT, 0.0, 0.0)
        res = lattice_two_photon(spec, p, pair)
        assert res.converged
        assert res.transmitted_norm > 0.0
        # the separation profile decays roughly at kappa + Gamma = 2
        assert 1.2 < res.decay_fit(1.5) < 2.8
        # photons exit strongly bunched
        assert res.bunching_ratio(2.0) > 5.0

    def test_profile_accessors_validate(self):
        spec = LatticeSpec(361, 0.1, 3.0, 40)
        p = ModelParams(0.0, 1.0, 10.0, 1.0, 0.0)
        res = lattice_two_photon(spec, p, TwoPhotonIn(LEFT, 0.0, 0.0))
        with pytest.raises(ValueError, match="max_separation"):
            res.decay_fit(res.separations[1] * 0.5)
        assert res.separations[-1] == pytest.approx(3.0)
        assert res.bunching_ratio(res.separations[-1]) > 1.0
        for outside in (-1.0, 3.5, 50.0):
            with pytest.raises(ValueError, match="separation"):
                res.bunching_ratio(outside)

    def test_degenerate_pair_steps_one_packet(self, monkeypatch):
        spec = LatticeSpec(361, 0.1, 3.0, 40)
        p = ModelParams(0.0, 1.0, 10.0, 1.0, 0.0)
        pair = TwoPhotonIn(LEFT, 0.2, 0.2)
        calls = []

        def spy(name, shape=lambda *args: None):
            real = getattr(lattice_module, name)

            def call(*args, **kwargs):
                calls.append((name, shape(*args)))
                return real(*args, **kwargs)

            monkeypatch.setattr(lattice_module, name, call)

        spy("_rk4", lambda H, psi, *rest: psi.shape)
        spy("_step_matrix")
        spy("_cavity_readout")
        once = lattice_two_photon(spec, p, pair)
        # a second frequency equal in value but not by comparison steps
        # the same packet twice
        class Twin(float):
            def __eq__(self, other):
                return False

            __hash__ = float.__hash__

        twice_pair = dataclasses.replace(pair)
        object.__setattr__(twice_pair, "omega_k2", Twin(0.2))
        twice = lattice_two_photon(spec, p, twice_pair)
        m = spec.n_sites + 1
        # one block per run, u and the packets, with one read-out and one
        # step matrix
        assert calls == [("_cavity_readout", None), ("_rk4", (2, m)), ("_step_matrix", None),
                         ("_cavity_readout", None), ("_rk4", (3, m)), ("_step_matrix", None)]
        scale = once.density.max()
        assert np.max(np.abs(once.density - twice.density)) <= 1e-14 * scale
        assert once.transmitted_norm == pytest.approx(twice.transmitted_norm, rel=1e-14)
        assert once.final_double_cavity_pop == pytest.approx(
            twice.final_double_cavity_pop, rel=1e-14)

    def test_right_incidence_without_a_left_coupling_passes_the_cavity(self):
        # the ideal diode's transparent side: the pair never couples, so
        # the Kerr term cannot act on it
        spec = LatticeSpec(361, 0.05, 3.0, 20)
        pair = TwoPhotonIn(RIGHT, 0.0, 0.0)
        runs = [lattice_two_photon(spec, ModelParams(0.0, 1.0, U, 1.0, 0.0), pair)
                for U in (0.0, 10.0)]
        for res in runs:
            assert res.converged and res.transmitted_norm > 0.0
            assert res.modes == 2 * spec.n_sites + 1
        assert np.array_equal(runs[0].density, runs[1].density)

    @pytest.mark.parametrize("w1, w2", [(np.array([0.0, 0.5]), 0.0), (np.zeros(1), np.zeros(1))])
    def test_array_pair_is_rejected_naming_the_input(self, w1, w2):
        spec = LatticeSpec(361, 0.1, 3.0, 40)
        p = ModelParams(0.0, 1.0, 10.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="incoming must be one photon pair"):
            lattice_two_photon(spec, p, TwoPhotonIn(LEFT, w1, w2))


def _product_space_run(spec, params, pair):
    """The two-excitation read-outs by direct exponentiation of the pair
    generator ``H1 x I + I x H1 + 2U e_cc e_cc^T`` on the full product
    space: neither Runge-Kutta nor the Volterra quadrature.  A right
    incident pair is launched as it comes, into the left channel right of
    the cavity, not as the oracle's mirrored run; this needs gamma2 > 0,
    which keeps the left channel in the basis."""
    left_in = pair.direction is LEFT
    frame = 0.5 * (pair.omega_k1 + pair.omega_k2)
    # scipy is the test's own oracle here, independent of the generator's
    # time stepping; only the matrix comes from ``apply``
    H1 = sp.csr_matrix(_dense(_single_particle_operator(spec, params, frame)))
    m, n = H1.shape[0], spec.n_sites
    assert left_in or m == 2 * n + 1
    cav, off = m - 1, (0 if left_in else n)
    phi = np.zeros((2, m), dtype=complex)
    for row, omega in zip(phi, (pair.omega_k1, pair.omega_k2)):
        packet = lattice_module._packet(spec, omega - frame)
        # a left-mover right of the cavity: the right-mover mirrored
        row[off:off + n] = packet if left_in else packet[::-1]
    psi = np.outer(phi[0], phi[1]) + np.outer(phi[1], phi[0])
    psi /= np.linalg.norm(psi)
    eye = sp.identity(m, format="csr")
    kerr = sp.csr_matrix(
        ([2.0 * params.U], ([cav * m + cav], [cav * m + cav])), shape=(m * m, m * m)
    )
    H2 = (sp.kron(H1, eye) + sp.kron(eye, H1) + kerr).tocsr()
    reach = 6.0 / (params.kappa + params.Gamma)
    psi = expm_multiply(-1j * (spec.half_width + reach) * H2, psi.ravel()).reshape(m, m)
    # the same transmitted window and separation read-out as the oracle
    x = spec.positions()
    downstream = (x > 1.0 / params.Gamma) if left_in else (x < -1.0 / params.Gamma)
    usable = np.abs(x) < spec.half_width - spec.absorber_width * spec.dx
    keep = np.nonzero(downstream & usable)[0] + off
    density = np.abs(psi[np.ix_(keep, keep)]) ** 2
    n_sep = int(round(reach / spec.dx)) + 1
    profile = np.array([np.trace(density, offset=d) for d in range(n_sep)])
    return profile, density.sum(), abs(psi[cav, cav]) ** 2


class TestTwoPhotonEigenbasis:
    TINY = LatticeSpec(101, 0.2, 1.0, 10)
    BENCH = dataclasses.replace(default_two_photon_spec(), n_sites=361, absorber_width=20)

    @pytest.mark.parametrize(
        "params,pair",
        [
            (ModelParams(0.0, 1.0, 10.0, 1.0, 0.0), TwoPhotonIn(LEFT, 0.0, 0.0)),
            (ModelParams(0.0, 0.5, -6.0, 0.6, 0.4), TwoPhotonIn(RIGHT, -0.3, 0.5)),
        ],
    )
    def test_matches_product_space_exponential(self, params, pair):
        profile, transmitted, double_cav = _product_space_run(self.TINY, params, pair)
        res = lattice_two_photon(self.TINY, params, pair)
        assert np.max(np.abs(res.density - profile)) <= 1e-8 * profile.max()
        assert res.transmitted_norm == pytest.approx(transmitted, rel=1e-8)
        # the population left in the cavity is a tail ~exp(-12) below its
        # peak; the O(h^4) quadrature error is 1.5e-5 of it in the right
        # incidence case, 6e-23 in absolute terms
        assert res.final_double_cavity_pop == pytest.approx(double_cav, rel=1e-4)
        assert res.converged

    def test_halving_the_quadrature_steps_leaves_the_profile(self, monkeypatch):
        p = ModelParams(0.0, 1.0, 10.0, 1.0, 0.0)
        pair = TwoPhotonIn(LEFT, 0.0, 0.0)
        ref = lattice_two_photon(self.BENCH, p, pair)
        monkeypatch.setattr(lattice_module, "_VOLTERRA_STEP", 0.5 * lattice_module._VOLTERRA_STEP)
        monkeypatch.setattr(lattice_module, "_SIMPSON_STEP", 0.5 * lattice_module._SIMPSON_STEP)
        fine = lattice_two_photon(self.BENCH, p, pair)
        # measured 2.7e-9
        assert np.max(np.abs(fine.density - ref.density)) <= 1e-8 * ref.density.max()

    def test_step_halving_check_fires_at_twice_the_steps(self, monkeypatch):
        p = ModelParams(0.0, 1.0, 10.0, 1.0, 0.0)
        pair = TwoPhotonIn(LEFT, 0.0, 0.0)
        check = _step_halving_check(self.BENCH, p, pair, lattice_two_photon(self.BENCH, p, pair))
        assert check.passed and check.threshold == _GATES["two_photon_lattice_step_halving_rel"][0]
        monkeypatch.setattr(lattice_module, "_VOLTERRA_STEP", 2.0 * lattice_module._VOLTERRA_STEP)
        monkeypatch.setattr(lattice_module, "_SIMPSON_STEP", 2.0 * lattice_module._SIMPSON_STEP)
        coarse = lattice_two_photon(self.BENCH, p, pair)
        # measured 7.1e-7 against the gate's 1e-7
        assert not _step_halving_check(self.BENCH, p, pair, coarse).passed


class TestOracleIndependence:
    def test_lattice_module_never_imports_the_closed_forms(self):
        src = pathlib.Path(lattice_module.__file__).read_text()
        tree = ast.parse(src)
        forbidden = ("single_photon", "two_photon", "diode_analysis")
        # absolute imports: the standard library and numpy, nothing else
        allowed = set(sys.stdlib_module_names) | {"numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert not any(f in alias.name for f in forbidden)
                    assert alias.name.split(".")[0] in allowed, alias.name
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                assert not any(f in mod for f in forbidden)
                if node.level > 0:
                    # relative imports may only reach the parameter containers
                    assert mod == "model"
                else:
                    assert mod.split(".")[0] in allowed, mod
