"""Field-equation residual oracle: vanishing on the closed forms, firing
on corrupted coefficients, and the aggregate report machinery."""

import dataclasses
import functools
import inspect

import numpy as np
import pytest

from chiral_diode import Direction, TwoPhotonIn, even_mode_t, make_params
from chiral_diode.two_photon import bound_coeffs
from chiral_diode.verification import VERIFY_SUITES, verify_all
from chiral_diode.verification.residuals import (
    ResidualReport,
    random_model_draws,
    residual_suite,
    single_residual,
    two_photon_residual,
)

LEFT = Direction.LEFT_INCIDENT


def params():
    return make_params(omega_a=0.1, kappa=0.7, U=4.0, gamma1=0.8, gamma2=0.5)


def pair():
    return TwoPhotonIn(LEFT, 0.3, -0.4)


POINTS = [(0.7, -1.3), (-2.1, 0.4), (1.9, 0.8)]

RELATIONS = {
    "ae_transport", "aa_stationarity", "oa_transport",
    "ee_jump_x1", "oe_jump_even_arg", "ae_jump",
}


def scalar_draws(seed, n):
    """The draws of one stacked ``random_model_draws`` call, each sliced
    out as a scalar parameter set, pair and point."""
    params, incoming, points = random_model_draws(np.random.default_rng(seed), n)
    for i in range(n):
        p = make_params(*(float(getattr(params, f.name)[i]) for f in dataclasses.fields(params)))
        pair = TwoPhotonIn(LEFT, float(incoming.omega_k1[i]), float(incoming.omega_k2[i]))
        yield p, pair, tuple(points[i].tolist())


def reads_D(params, points):
    """Draws where some two-photon relation reads the bound-state
    coefficient D: U != 0 and at least one coordinate past the cavity."""
    return (params.U != 0.0) & (points.max(axis=1) > 0.0)


def one_percent_corruptions():
    """(coefficient name, override keywords) for every coefficient the
    two-photon oracle reads, each scaled by 1.01 on its own."""
    p, inc = params(), pair()
    c = bound_coeffs(p, inc)
    for f in dataclasses.fields(c):
        bad = dataclasses.replace(c, **{f.name: 1.01 * getattr(c, f.name)})
        yield f.name, {"coeffs_override": bad}
    t1, t2 = even_mode_t(p, inc.omega_k1), even_mode_t(p, inc.omega_k2)
    yield "t_k1", {"t_override": (1.01 * t1, t2)}
    yield "t_k2", {"t_override": (t1, 1.01 * t2)}


class TestSinglePhotonResidual:
    def test_closed_form_satisfies_the_cavity_equation(self):
        rep = single_residual(params(), 0.45)
        assert rep.max_residual < 1e-14

    def test_corrupted_transmission_fires(self):
        p = params()
        rep = single_residual(p, 0.45, t_override=1.01 * even_mode_t(p, 0.45))
        assert rep.residuals["cavity_equation"] > 1e-4

    def test_lossless_and_detuned_edges(self):
        for p in (
            make_params(omega_a=0.0, kappa=0.0, U=0.0, gamma1=0.5, gamma2=0.5),
            make_params(omega_a=-0.8, kappa=2.0, U=9.0, gamma1=1.5, gamma2=0.0),
        ):
            assert single_residual(p, p.omega_a + 2.7).max_residual < 1e-14


class TestTwoPhotonResidual:
    def test_closed_form_satisfies_all_relations(self):
        rep = two_photon_residual(params(), pair(), POINTS)
        assert rep.max_residual < 1e-13
        assert set(rep.residuals) == RELATIONS

    def test_every_relation_and_every_coefficient_can_fire(self):
        # a relation no corruption moves is vacuous, and a coefficient
        # that moves no relation is uncertified
        fired_anywhere = set()
        for coeff, override in one_percent_corruptions():
            rep = two_photon_residual(params(), pair(), POINTS, **override)
            fired = {name for name, value in rep.residuals.items() if value > 1e-6}
            assert fired, f"a 1% error in {coeff} fires no residual"
            fired_anywhere |= fired
        assert set(rep.residuals) - fired_anywhere == set()

    def test_corrupted_bound_coeffs_fire(self):
        c = bound_coeffs(params(), pair())
        bad = dataclasses.replace(c, chi=1.05 * c.chi, D=1.05 * c.D)
        rep = two_photon_residual(params(), pair(), POINTS, coeffs_override=bad)
        assert rep.max_residual > 1e-4

    def test_corrupted_pair_transmission_fires(self):
        p = params()
        t1 = even_mode_t(p, pair().omega_k1)
        t2 = even_mode_t(p, pair().omega_k2)
        rep = two_photon_residual(p, pair(), POINTS, t_override=(1.02 * t1, t2))
        assert rep.max_residual > 1e-4

    def test_rejects_points_on_the_discontinuity_lines(self):
        for bad in ((0.0, 1.0), (1.0, 0.0)):
            with pytest.raises(ValueError, match="line"):
                two_photon_residual(params(), pair(), [bad])

    def test_coincidence_line_is_a_valid_sample(self):
        # every relation reads x1 and x2 apart, so x1 = x2 is off the lines
        rep = two_photon_residual(params(), pair(), [(0.8, 0.8)])
        assert set(rep.residuals) == RELATIONS
        assert rep.max_residual < 1e-9

    def test_rejects_empty_samples_and_right_incidence(self):
        with pytest.raises(ValueError, match="sample"):
            two_photon_residual(params(), pair(), [])
        mirrored = TwoPhotonIn(Direction.RIGHT_INCIDENT, 0.3, -0.4)
        with pytest.raises(ValueError, match="incidence"):
            two_photon_residual(params(), mirrored, POINTS)

    @pytest.mark.parametrize("kappa", [1e3, 1e4])
    @pytest.mark.parametrize("U", [-5.0, 5.0])
    @pytest.mark.parametrize("gamma2", [0.0, 0.4])
    def test_large_kappa_stays_finite_before_the_cavity(self, kappa, U, gamma2):
        # the after-cavity wave exp(i rho x) overflows at x = -3.5 once
        # (kappa + Gamma) * 3.5 / 2 passes ~709, so it must be evaluated
        # on its own side only
        p = make_params(omega_a=0.1, kappa=kappa, U=U, gamma1=0.8, gamma2=gamma2)
        rep = two_photon_residual(p, pair(), [(-3.5, 1.2), (2.0, -3.5), (-3.5, -3.5)])
        assert all(np.isfinite(v) for v in rep.residuals.values())
        assert rep.max_residual < 1e-9


class TestSuite:
    def test_small_suite_is_clean(self):
        rep = residual_suite(n_draws=50, seed=7)
        assert rep.max_residual < 1e-9

    def test_broadcast_suite_equals_per_draw_scalar_residuals(self):
        draws = list(scalar_draws(7, 50))
        rep = residual_suite(n_draws=50, seed=7)
        expected = {
            "single_cavity_equation": max(
                single_residual(p, inc.omega_k1).residuals["cavity_equation"]
                for p, inc, _ in draws
            ),
        }
        for name in sorted(RELATIONS):
            expected[name] = max(
                two_photon_residual(p, inc, [pt]).residuals[name] for p, inc, pt in draws
            )
        assert rep.residuals.keys() == expected.keys()
        for name, value in expected.items():
            assert abs(rep.residuals[name] - value) <= 1e-15, name

    def test_broadcast_corruption_equals_per_draw_corruption(self):
        # roundoff-level residuals cannot tell the draws apart, so corrupt
        # D in every draw: each relation's worst must then be the same
        # O(1e-3) number whether the draws run at once or one by one
        params, incoming, points = random_model_draws(np.random.default_rng(7), 50)
        c = bound_coeffs(params, incoming)
        rep = two_photon_residual(
            params, incoming, points, coeffs_override=dataclasses.replace(c, D=1.01 * c.D)
        )
        per_draw = []
        for p, inc, pt in scalar_draws(7, 50):
            one = bound_coeffs(p, inc)
            bad = dataclasses.replace(one, D=1.01 * one.D)
            per_draw.append(two_photon_residual(p, inc, [pt], coeffs_override=bad).residuals)
        assert rep.max_residual > 1e-3
        for name in RELATIONS:
            want = max(r[name] for r in per_draw)
            assert rep.residuals[name] == pytest.approx(want, rel=1e-12, abs=1e-15), name

    def test_one_corrupted_draw_among_many_fires(self):
        # the maximum runs over every draw: a 1% error in one draw's D
        # alone must show above the verify gate, at that draw's own
        # residual.  The corrupted draw is the last one where a relation
        # reads D (see the blind-spot test below)
        params, incoming, points = random_model_draws(np.random.default_rng(7), 200)
        c = bound_coeffs(params, incoming)
        assert two_photon_residual(params, incoming, points).max_residual < 1e-9
        k = np.flatnonzero(reads_D(params, points))[-1]
        D = c.D.copy()
        D[k] *= 1.01
        rep = two_photon_residual(
            params, incoming, points, coeffs_override=dataclasses.replace(c, D=D)
        )
        assert rep.max_residual > 1e-6
        p, inc, pt = list(scalar_draws(7, 200))[k]
        one = bound_coeffs(p, inc)
        alone = two_photon_residual(
            p, inc, [pt], coeffs_override=dataclasses.replace(one, D=1.01 * one.D)
        )
        assert rep.max_residual == pytest.approx(alone.max_residual, rel=1e-12)

    def test_corrupted_D_is_invisible_where_no_relation_reads_it(self):
        # pins a known blind spot of the oracle: no relation reads D at
        # U = 0, where it vanishes, or at a point before the cavity in both
        # coordinates, so a 1% error in D at those draws stays below the
        # verify gate.  When the oracle learns to read D there, this flips
        params, incoming, points = random_model_draws(np.random.default_rng(7), 200)
        c = bound_coeffs(params, incoming)
        blind = ~reads_D(params, points)
        assert np.count_nonzero(blind) == 73
        D = np.where(blind, 1.01 * c.D, c.D)
        rep = two_photon_residual(
            params, incoming, points, coeffs_override=dataclasses.replace(c, D=D)
        )
        assert rep.max_residual < 1e-9

    def test_empty_draw_count_rejected(self):
        with pytest.raises(ValueError, match="n_draws"):
            residual_suite(n_draws=0)

    def test_deterministic_for_a_fixed_seed(self):
        a = residual_suite(n_draws=20, seed=123)
        b = residual_suite(n_draws=20, seed=123)
        assert a.residuals == b.residuals

    def test_random_draws_keep_their_distributions(self):
        n = 10**5
        p, inc, points = random_model_draws(np.random.default_rng(31), n)
        assert inc.direction is LEFT
        # the lossless and linear edges each on 15 % of the draws
        for rate in (p.kappa, p.U):
            assert rate.shape == (n,)
            assert abs(np.count_nonzero(rate == 0.0) / n - 0.15) < 0.01
        for rate, high in ((p.gamma1, 1.5), (p.gamma2, 1.5), (p.kappa, 2.0), (p.U, 20.0)):
            assert np.all((0.0 <= rate) & (rate < high))
        assert np.all(p.Gamma > 0.0)
        assert np.all((-1.0 <= p.omega_a) & (p.omega_a < 1.0))
        for w in (inc.omega_k1, inc.omega_k2):
            assert np.all(np.abs(w - p.omega_a) <= 3.0)
        assert points.shape == (n, 2) and np.all(np.abs(points) <= 4.0)
        x1, x2 = points.T
        assert np.min(np.abs([x1, x2, x1 - x2])) > 1e-3

    def test_report_rejects_non_finite_residuals(self):
        with pytest.raises(ValueError, match="finite"):
            ResidualReport({"bad": float("nan")})
        with pytest.raises(ValueError, match="finite"):
            ResidualReport({"bad": -1.0})

    def test_max_residual_is_the_largest_entry(self):
        assert ResidualReport({"a": 1e-3, "b": 2e-5}).max_residual == 1e-3
        assert ResidualReport({}).max_residual == 0.0


# the default suite's check names in report order, pinned so that reports
# stay comparable: 5 residual, 13 analytic, 3 single-excitation lattice
_PINNED_CHECK_NAMES = [
    "single_photon_residual_max",
    "two_photon_residual_max",
    "sensitivity_corrupted_t_fires",
    "sensitivity_corrupted_pair_amplitude_fires",
    "sensitivity_corrupted_pair_pole_fires",
    "unitarity_lossless_max",
    "chiral_reconstruction_tt_max",
    "chiral_reconstruction_rr_max",
    "chiral_reconstruction_rt_max",
    "psi_rt_convention_gap",
    "mirror_duality_max",
    "ideal_diode_left_T",
    "ideal_diode_right_T_error",
    "diode_condition_blocked_T_max",
    "bound_asymptote_identity_single-photon-resonance",
    "bound_asymptote_identity_two-photon-resonance",
    "working_area_single_res_scan_max_dev",
    "working_area_two_res_null_density_max",
    "lattice_agreement_max_dev",
    "lattice_norm_drift_lossless",
    "lattice_norm_max_rise",
]
_OWN_CHECK_NAMES = {
    "residual": _PINNED_CHECK_NAMES[:5],
    "analytic": _PINNED_CHECK_NAMES[5:18],
    "lattice": _PINNED_CHECK_NAMES[18:],
    "all": [
        "two_photon_lattice_decay_rel_err",
        "two_photon_lattice_bunching_ratio",
        "two_photon_lattice_step_halving_rel",
        "two_photon_lattice_factorization_rel",
    ],
}


@functools.cache
def _suite_report(suite: str):
    """One run per suite, shared by the tests that read its checks."""
    return verify_all(suite=suite, n_draws=60)


class TestVerifyAll:
    def test_residual_suite_tier_passes_quickly(self):
        rep = verify_all(suite="residual", n_draws=50)
        assert rep.all_pass
        names = [c.name for c in rep.checks]
        assert any("sensitivity" in n for n in names)
        payload = rep.to_json()
        assert payload["all_pass"] is True
        for entry in payload["checks"]:
            assert set(entry) == {"name", "value", "threshold", "pass"}

    def test_analytic_tier_passes(self):
        rep = verify_all(suite="analytic", n_draws=60)
        assert rep.all_pass
        names = [c.name for c in rep.checks]
        assert any(n.startswith("working_area") for n in names)
        assert not any(n.startswith("lattice") for n in names)

    def test_two_photon_lattice_checks_pass_and_report_the_step_halving(self):
        from chiral_diode.verification.report import _STEP_HALVING_GATE

        checks = {
            c.name: c for c in _suite_report("all").checks
            if c.name.startswith("two_photon_lattice_")
        }
        assert list(checks) == _OWN_CHECK_NAMES["all"]
        assert all(c.passed for c in checks.values())
        assert 0.0 < checks["two_photon_lattice_step_halving_rel"].value < _STEP_HALVING_GATE

    @pytest.mark.parametrize("suite", VERIFY_SUITES)
    def test_each_suite_adds_its_checks_to_the_one_before(self, suite):
        level = VERIFY_SUITES.index(suite)
        report = _suite_report(suite)
        before = [c.name for c in _suite_report(VERIFY_SUITES[level - 1]).checks] if level else []
        assert [c.name for c in report.checks] == before + _OWN_CHECK_NAMES[suite]
        assert report.all_pass
        if suite == "all":
            assert len(report.checks) == 25

    @pytest.mark.parametrize("suite, count", [("residual", 5), ("analytic", 18), ("lattice", 21)])
    def test_suites_keep_their_pinned_check_names(self, suite, count):
        assert [c.name for c in _suite_report(suite).checks] == _PINNED_CHECK_NAMES[:count]

    def test_diode_condition_check_fires_off_the_blocking_family(self):
        from chiral_diode.verification.report import _diode_condition_check

        assert _diode_condition_check().passed
        # 1e-3 off kappa = gamma1 - gamma2 no side is blocked, so the
        # classification disagrees with the family and the check reads inf
        shifted = _diode_condition_check(kappa_shift=1e-3)
        assert shifted.value == np.inf and not shifted.passed

    def test_default_suite_is_lattice(self):
        assert inspect.signature(verify_all).parameters["suite"].default == "lattice"

    def test_unknown_suite_rejected(self):
        assert VERIFY_SUITES == ("residual", "analytic", "lattice", "all")
        with pytest.raises(ValueError, match="suite"):
            verify_all(suite="everything")

    @pytest.mark.parametrize("n_draws", [0, -3])
    def test_empty_draw_count_rejected(self, n_draws):
        # an empty sample would report every closed-form maximum as 0.0
        with pytest.raises(ValueError, match="n_draws"):
            verify_all(suite="analytic", n_draws=n_draws)

    def test_json_text_round_trips(self):
        import json

        rep = verify_all(suite="residual", n_draws=10)
        parsed = json.loads(rep.as_json_text())
        assert parsed["all_pass"] is True
        assert parsed["elapsed_seconds"] >= 0.0

    def test_elapsed_time_ignores_wall_clock_steps(self, monkeypatch):
        import itertools
        import time

        # every reading of the wall clock is an hour earlier than the last
        steps = itertools.count()
        monkeypatch.setattr(time, "time", lambda: 1.0e9 - 3600.0 * next(steps))
        rep = verify_all(suite="residual", n_draws=1)
        assert rep.elapsed_seconds >= 0.0
