"""Release acceptance gate.

Each test checks one headline guarantee of the package at its pinned
tolerance and prints a single ``[PASS]``/``[FAIL]`` verdict line with the
measured value.  The two-excitation lattice profile is qualitative: its
verdict line is honest but only sanity properties are asserted.
"""

import time

import numpy as np
import pytest

from chiral_diode import (
    Direction,
    ModelParams,
    TwoPhotonField,
    TwoPhotonIn,
    bound_asymptote,
    chiral_coeffs,
    make_params,
    numeric_zero_scan,
    working_area_single_res,
    working_area_two_res,
)
from chiral_diode.diode_analysis import FREE_PAIR_DENSITY
from chiral_diode.model import PhotonIn
from chiral_diode.verification import lattice_transmission, lattice_two_photon
from chiral_diode.verification.lattice import (
    default_single_spec,
    default_two_photon_spec,
)
from chiral_diode.verification.residuals import residual_suite

LEFT = Direction.LEFT_INCIDENT
RIGHT = Direction.RIGHT_INCIDENT


@pytest.fixture
def verdict(capsys):
    def _verdict(name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")

    return _verdict


def test_unitarity_of_lossless_scattering(verdict):
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for i in range(10_000):
        g1 = rng.uniform(0.0, 1.5)
        g2 = rng.uniform(0.0, 1.5)
        if g1 + g2 == 0.0:
            g1 = 1.0
        p = ModelParams(rng.uniform(-1, 1), 0.0, 0.0, g1, g2)
        d = LEFT if i % 2 == 0 else RIGHT
        c = chiral_coeffs(p, PhotonIn(omega_k=p.omega_a + rng.uniform(-5, 5), direction=d))
        worst = max(worst, abs(c.T + c.R - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    verdict(
        "lossless unitarity (1e4 draws)", ok,
        f"max |T+R-1| = {worst:.3e} (gate 1e-12), {elapsed:.2f}s (gate 1s)",
    )
    assert worst < 1e-12
    assert elapsed < 1.0


def test_ideal_diode_point_and_generalized_transmission_null(verdict):
    p = ModelParams(0.0, 1.0, 0.0, 1.0, 0.0)
    left = chiral_coeffs(p, PhotonIn(omega_k=0.0, direction=LEFT))
    right = chiral_coeffs(p, PhotonIn(omega_k=0.0, direction=RIGHT))
    worst_null = 0.0
    rng = np.random.default_rng(102)
    for _ in range(200):
        g_hi = rng.uniform(0.5, 1.5)
        g_lo = rng.uniform(0.0, g_hi)
        kappa = g_hi - g_lo
        if kappa == 0.0:
            continue
        blocked_left = ModelParams(0.0, kappa, 0.0, g_hi, g_lo)
        blocked_right = ModelParams(0.0, kappa, 0.0, g_lo, g_hi)
        worst_null = max(
            worst_null,
            chiral_coeffs(blocked_left, PhotonIn(omega_k=0.0, direction=LEFT)).T,
            chiral_coeffs(blocked_right, PhotonIn(omega_k=0.0, direction=RIGHT)).T,
        )
    ok = left.T <= 1e-15 and abs(right.T - 1.0) <= 1e-15 and worst_null <= 1e-15
    verdict(
        "ideal diode point + generalized null", ok,
        f"T_left = {left.T:.1e}, |T_right-1| = {abs(right.T - 1.0):.1e}, "
        f"worst matched-loss null T = {worst_null:.1e} (gates 1e-15)",
    )
    assert left.T <= 1e-15
    assert abs(right.T - 1.0) <= 1e-15
    assert worst_null <= 1e-15


def test_weak_loss_coincident_transmitted_density_value(verdict):
    p = make_params(omega_a=0.0, kappa=0.01, U=10.0, gamma1=1.0, gamma2=0.0)
    f = TwoPhotonField(p, TwoPhotonIn(LEFT, p.omega_a, p.omega_a))
    dens = float(abs(f.psi_tt(0.9, 0.9)) ** 2)
    ok = abs(dens - 0.442976) <= 1e-5
    verdict(
        "weak-loss coincident density", ok,
        f"|psi_tt|^2 = {dens:.9f} vs 0.442976 (gate 1e-5)",
    )
    assert dens == pytest.approx(0.442976, abs=1e-5)


def test_bound_profile_matches_transmitted_density_pointwise(verdict):
    p = make_params(omega_a=0.0, kappa=1.0, U=10.0, gamma1=1.0, gamma2=0.0)
    pairs = {
        "single-photon-resonance": TwoPhotonIn(LEFT, p.omega_a, p.omega_a),
        "two-photon-resonance": TwoPhotonIn(LEFT, p.omega_a, p.omega_a + 2.0 * p.U),
    }
    worst = 0.0
    for case, pair in pairs.items():
        f = TwoPhotonField(p, pair)
        prof = bound_asymptote(p, case)
        for x in np.linspace(0.0, 10.0, 201):
            dens = float(abs(f.psi_tt(-0.5 * x, 0.5 * x)) ** 2)
            worst = max(worst, abs(dens - prof.density(x)))
    ok = worst <= 1e-12
    verdict(
        "bound-profile asymptotics (both resonance cases)", ok,
        f"max pointwise |density - profile| = {worst:.3e} over Gamma|x| in [0,10] (gate 1e-12)",
    )
    assert worst <= 1e-12


def test_field_equation_residuals_stay_below_gate(verdict):
    t0 = time.time()
    rep = residual_suite(n_draws=1000)
    elapsed = time.time() - t0
    name = max(rep.residuals, key=rep.residuals.get)
    value = rep.residuals[name]
    ok = rep.max_residual < 1e-9 and elapsed < 10.0
    verdict(
        "field-equation residual suite (1e3 draws)", ok,
        f"max residual = {value:.3e} ({name}), gate 1e-9; {elapsed:.1f}s (gate 10s)",
    )
    assert rep.max_residual < 1e-9
    assert elapsed < 10.0


def test_working_area_curves_agree_with_direct_nulls(verdict):
    p = make_params(omega_a=0.0, kappa=1.0, U=10.0, gamma1=1.0, gamma2=0.0)
    grid = np.linspace(0.52, 0.95, 9)
    curve = working_area_single_res(p, grid)
    scan = numeric_zero_scan(
        p,
        TwoPhotonIn(LEFT, p.omega_a, p.omega_a),
        gamma1_grid=grid,
        x_grid=np.linspace(0.05, 14.0, 560),
        threshold=1e-3,
    )
    worst_dx = 0.0
    for g1_curve, x_curve in zip(curve.gamma1_over_Gamma, curve.Gamma_abs_x):
        near = [abs(x - x_curve) for g1, x in scan if abs(g1 - g1_curve) < 1e-9]
        worst_dx = max(worst_dx, min(near) if near else np.inf)

    p2 = make_params(omega_a=0.0, kappa=0.4, U=10.0, gamma1=1.0, gamma2=0.0)
    pair = TwoPhotonIn(LEFT, p2.omega_a, p2.omega_a + 2.0 * p2.U)
    worst_dens = 0.0
    curve2 = working_area_two_res(p2)
    for g1, x in zip(curve2.gamma1_over_Gamma * p2.Gamma, curve2.Gamma_abs_x):
        f = TwoPhotonField(
            ModelParams(p2.omega_a, p2.kappa, p2.U, g1, p2.Gamma - g1), pair
        )
        worst_dens = max(worst_dens, float(abs(f.psi_tt(-0.5 * x, 0.5 * x)) ** 2))
    ok = worst_dx < 0.05 and worst_dens < 1e-10 * FREE_PAIR_DENSITY
    verdict(
        "working areas vs direct nulls", ok,
        f"max |delta Gamma x| = {worst_dx:.4f} (gate 0.05) over {len(curve)} couplings; "
        f"max null density = {worst_dens:.2e} over {len(curve2)} exact solutions "
        f"(gate {1e-10 * FREE_PAIR_DENSITY:.2e})",
    )
    assert worst_dx < 0.05
    assert worst_dens < 1e-10 * FREE_PAIR_DENSITY


def test_lattice_oracle_matches_closed_forms_across_regimes(verdict):
    spec = default_single_spec()
    t0 = time.time()
    worst = 0.0
    for kappa in (0.01, 1.0, 100.0):
        for g1 in (0.0, 0.5, 1.0):
            p = ModelParams(0.0, kappa, 0.0, g1, 1.0 - g1)
            res = lattice_transmission(spec, p, 0.0, LEFT)
            ref = chiral_coeffs(p, PhotonIn(omega_k=0.0, direction=LEFT))
            if not res.converged:
                worst = np.inf
            worst = max(worst, abs(res.T - ref.T), abs(res.R - ref.R))
    elapsed = time.time() - t0
    ok = worst < 0.02 and elapsed < 120.0
    verdict(
        "lattice oracle agreement (9 parameter sets)", ok,
        f"max |T,R deviation| = {worst:.4f} (gate 0.02), {elapsed:.0f}s (gate 120s)",
    )
    assert worst < 0.02
    assert elapsed < 120.0


def test_mirror_duality_between_incidence_directions(verdict):
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(1000):
        g1 = rng.uniform(0.0, 1.5)
        g2 = rng.uniform(0.0, 1.5)
        if g1 + g2 == 0.0:
            g1 = 1.0
        p = ModelParams(rng.uniform(-1, 1), rng.uniform(0, 2), rng.uniform(0, 15), g1, g2)
        w1, w2 = p.omega_a + rng.uniform(-3, 3, 2)
        fr = TwoPhotonField(p, TwoPhotonIn(RIGHT, w1, w2))
        fl = TwoPhotonField(p.swapped(), TwoPhotonIn(LEFT, w1, w2))
        x1, x2 = rng.uniform(-4, 4, 2)
        a, b = rng.uniform(0.05, 4, 2)
        worst = max(
            worst,
            abs(fr.psi_tt(x1, x2) - fl.psi_tt(-x1, -x2)),
            abs(fr.psi_rr(x1, x2) - fl.psi_rr(-x1, -x2)),
            abs(fr.psi_rt(a, -b) - fl.psi_rt(b, -a)),
        )
    ok = worst < 1e-12
    verdict(
        "mirror duality (1e3 draws)", ok,
        f"max channel mismatch = {worst:.3e} (gate 1e-12)",
    )
    assert worst < 1e-12


def test_two_excitation_lattice_profile_qualitative(verdict):
    spec = default_two_photon_spec()
    p = ModelParams(0.0, 1.0, 10.0, 1.0, 0.0)
    res = lattice_two_photon(spec, p, TwoPhotonIn(LEFT, 0.0, 0.0))
    linewidth = p.kappa + p.Gamma
    rate = res.decay_fit(3.0 / linewidth)
    bunching = res.bunching_ratio(3.0 / linewidth)
    rel_err = abs(rate - linewidth) / linewidth
    ok = rel_err < 0.10 and bunching > 5.0
    verdict(
        "two-excitation lattice profile (qualitative)", ok,
        f"decay rate {rate:.3f} vs {linewidth} (rel err {rel_err:.1%}, target 10%), "
        f"bunching ratio {bunching:.1f} (target > 5)",
    )
    # qualitative check: only convergence and basic sanity are gating
    assert res.converged
    assert res.transmitted_norm > 0.0
    assert np.all(res.density >= 0.0)
    assert np.isfinite(rate) and np.isfinite(bunching)
