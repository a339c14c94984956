"""Working-area curves, the numeric null scan, and the directional
contrast figure of merit."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from chiral_diode import (
    Direction,
    FREE_PAIR_DENSITY,
    TwoPhotonField,
    TwoPhotonIn,
    WorkingAreaCase,
    make_params,
    nonreciprocity_contrast,
    numeric_zero_scan,
    working_area_single_res,
    working_area_two_res,
    write_working_area_csv,
)
from chiral_diode.diode_analysis import _bisect

LEFT = Direction.LEFT_INCIDENT


def params(kappa=1.0, U=10.0):
    return make_params(omega_a=0.0, kappa=kappa, U=U, gamma1=1.0, gamma2=0.0)


def single_res_pair(p):
    return TwoPhotonIn(LEFT, p.omega_a, p.omega_a)


def two_res_pair(p):
    return TwoPhotonIn(LEFT, p.omega_a, p.omega_a + 2.0 * p.U)


class TestSingleResCurve:
    def test_lossless_three_quarter_coupling_value(self):
        curve = working_area_single_res(params(kappa=0.0), [0.75])
        assert curve.gamma1_over_Gamma.tolist() == [0.75]
        assert curve.Gamma_abs_x == pytest.approx([2.0 * math.log(9.0)], rel=1e-14)
        assert curve.branch.tolist() == [0] and curve.diverges.tolist() == [False]
        assert curve.empty is None

    def test_separation_vanishes_at_the_lower_edge(self):
        p = params()  # s = 2, lower edge gamma1 = 0.5
        curve = working_area_single_res(p, [0.5])
        assert curve.Gamma_abs_x == pytest.approx([0.0], abs=1e-12)

    def test_pole_is_kept_and_flagged(self):
        p = params()  # s = 2, pole at gamma1 = 1.0
        curve = working_area_single_res(p, [0.6, 1.0])
        assert len(curve) == 2
        assert curve.diverges.tolist() == [False, True]
        assert np.isinf(curve.Gamma_abs_x).tolist() == [False, True]

    def test_out_of_domain_grid_values_are_omitted(self):
        p = params()  # domain [0.5, 1.0]
        curve = working_area_single_res(p, [0.1, 0.3, 0.49, 0.7, 0.9])
        assert curve.gamma1_over_Gamma.tolist() == [0.7, 0.9]
        assert curve.case is WorkingAreaCase.SINGLE_PHOTON_RESONANCE

    def test_curve_tracks_numeric_density_minima(self):
        p = params()
        grid = [0.8, 0.9]
        curve = working_area_single_res(p, grid)
        scan = numeric_zero_scan(
            p,
            single_res_pair(p),
            gamma1_grid=grid,
            x_grid=np.linspace(0.05, 8.0, 320),
            threshold=1e-3,
        )
        for g1_curve, x_curve in zip(curve.gamma1_over_Gamma, curve.Gamma_abs_x):
            near = [abs(x - x_curve) for g1, x in scan if abs(g1 - g1_curve) < 1e-9]
            assert near and min(near) < 0.05


class TestTwoResCurve:
    def test_every_solution_is_an_exact_transmission_null(self):
        p = make_params(omega_a=0.0, kappa=0.4, U=10.0, gamma1=1.0, gamma2=0.0)
        curve = working_area_two_res(p)
        assert len(curve) > 0
        pair = two_res_pair(p)
        for g1, x in zip(curve.gamma1_over_Gamma * p.Gamma, curve.Gamma_abs_x):
            f = TwoPhotonField(
                make_params(omega_a=0.0, kappa=0.4, U=10.0, gamma1=g1, gamma2=p.Gamma - g1),
                pair,
            )
            dens = abs(f.psi_tt(-0.5 * x, 0.5 * x)) ** 2
            assert dens < 1e-10 * FREE_PAIR_DENSITY
            # domain: only couplings beyond the loss-matched midpoint work
            assert 0.5 * (p.kappa + p.Gamma) < g1 <= p.Gamma

    @pytest.mark.parametrize("U", [10.0, -10.0])
    def test_roots_re_null_the_density_to_rounding(self, U):
        # bisection to adjacent floats in gamma1 leaves a density at the
        # rounding floor (measured 4.9e-30 of the free density); a root
        # refined only to 1e-10 in gamma1 leaves 2e-19
        p = make_params(omega_a=0.0, kappa=0.4, U=U, gamma1=1.0, gamma2=0.0)
        curve = working_area_two_res(p)
        assert len(curve) > 0
        g1 = curve.gamma1_over_Gamma * p.Gamma
        x = curve.Gamma_abs_x / p.Gamma
        f = TwoPhotonField(p.at_gamma1(g1), two_res_pair(p))
        dens = np.abs(f.psi_tt(-0.5 * x, 0.5 * x)) ** 2
        assert dens.max() < 1e-24 * FREE_PAIR_DENSITY

    def test_solutions_satisfy_the_tangent_condition(self):
        p = make_params(omega_a=0.0, kappa=0.4, U=10.0, gamma1=1.0, gamma2=0.0)
        s = p.kappa + p.Gamma
        curve = working_area_two_res(p)
        x = curve.Gamma_abs_x / p.Gamma
        g1 = curve.gamma1_over_Gamma * p.Gamma
        mismatch = p.U * x - curve.branch * math.pi - np.arctan((s - 2.0 * g1) / (4.0 * p.U))
        # the mismatch slope in gamma1 diverges near the domain edge, so
        # the root tolerance in gamma1 translates to a looser one here
        assert len(curve) > 0 and np.abs(mismatch).max() < 1e-4

    def test_ceiling_truncates_but_does_not_move_solutions(self):
        p = make_params(omega_a=0.0, kappa=0.4, U=10.0, gamma1=1.0, gamma2=0.0)
        small = working_area_two_res(p, gx_ceiling=10.0)
        large = working_area_two_res(p, gx_ceiling=20.0)
        assert 0 < len(small) < len(large)
        match = (small.branch[:, None] == large.branch) & (
            np.abs(small.gamma1_over_Gamma[:, None] - large.gamma1_over_Gamma) < 1e-8
        )
        assert match.sum(axis=1).tolist() == [1] * len(small)

    def test_attractive_kerr_has_the_repulsive_zero_set(self):
        # both exact conditions are invariant under U -> -U
        plus = make_params(omega_a=0.0, kappa=0.4, U=10.0, gamma1=1.0, gamma2=0.0)
        minus = make_params(omega_a=0.0, kappa=0.4, U=-10.0, gamma1=1.0, gamma2=0.0)
        a, b = working_area_two_res(plus), working_area_two_res(minus)
        assert len(b) == len(a) > 0
        assert np.abs(a.gamma1_over_Gamma - b.gamma1_over_Gamma).max() < 1e-8
        assert np.abs(a.Gamma_abs_x - b.Gamma_abs_x).max() < 1e-8
        pair = two_res_pair(minus)
        for g1, x in zip(b.gamma1_over_Gamma * minus.Gamma, b.Gamma_abs_x):
            f = TwoPhotonField(
                make_params(omega_a=0.0, kappa=0.4, U=-10.0, gamma1=g1, gamma2=minus.Gamma - g1),
                pair,
            )
            assert abs(f.psi_tt(-0.5 * x, 0.5 * x)) ** 2 < 1e-10 * FREE_PAIR_DENSITY

    def test_attractive_kerr_zero_set_matches_the_numeric_scan(self):
        # the U < 0 curve checked on its own against a direct scan of the
        # density, not only against the U > 0 curve.  Couplings next to the
        # domain edge gamma1 = (kappa + Gamma)/2 are left out: there the
        # resonant photon's t vanishes and the decaying bound part alone
        # falls below the scan threshold.  The scan stops at Gamma|x| = 8:
        # from ~12 on the bound part is below it at every coupling, and the
        # plane-wave interference nulls count as zeros.
        p = make_params(omega_a=0.0, kappa=0.4, U=-10.0, gamma1=1.0, gamma2=0.0)
        full = working_area_two_res(p)
        inner = full.gamma1_over_Gamma > 0.71
        curve = sorted(zip(full.gamma1_over_Gamma[inner], full.Gamma_abs_x[inner]))
        assert len(curve) > 5
        scan = numeric_zero_scan(
            p,
            two_res_pair(p),
            gamma1_grid=[g1 * p.Gamma for g1, _ in curve],
            x_grid=np.linspace(0.0, 8.0 / p.Gamma, 801),
        )
        found = sorted(scan)
        assert len(found) == len(curve)
        for (g1, gx), (g1_scan, gx_scan) in zip(curve, found):
            assert g1_scan == pytest.approx(g1, abs=1e-12)
            assert gx_scan == pytest.approx(gx, abs=1e-6)

    def test_empty_when_loss_exceeds_coupling(self):
        p = make_params(omega_a=0.0, kappa=1.0, U=10.0, gamma1=1.0, gamma2=0.0)
        assert len(working_area_two_res(p)) == 0

    def test_empty_for_a_linear_cavity(self):
        p = make_params(omega_a=0.0, kappa=0.4, U=0.0, gamma1=1.0, gamma2=0.0)
        assert len(working_area_two_res(p)) == 0

    def test_too_many_branches_for_float64_raise(self):
        # ~6e300 tangent branches below the ceiling; counting them one by
        # one would never end
        p = make_params(omega_a=0.0, kappa=0.4, U=1e300, gamma1=1.0, gamma2=0.0)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            working_area_two_res(p)


def loop_single_res(p, grid):
    """The per-point loop that the broadcast replaced, with ``math.log``."""
    G, s = p.Gamma, p.kappa + p.Gamma
    rows = []
    for g1 in map(float, grid):
        if g1 < 0.25 * s - 1e-12 * G or g1 > G + 1e-12 * G:
            continue
        if abs(s - 2.0 * g1) < 1e-12 * G:
            rows.append((g1 / G, math.inf, 0, True))
        else:
            gx = (2.0 * G / s) * math.log(4.0 * g1**2 / (s - 2.0 * g1) ** 2)
            rows.append((g1 / G, max(gx, 0.0), 0, False))
    return rows


def loop_two_res(p, gx_ceiling=20.0):
    """The solver that counted tangent branches up from n = 0, scanned one
    branch's window at a time and sorted its rows as tuples."""
    G, s, U = p.Gamma, p.kappa + p.Gamma, abs(p.U)

    def x_of(g1):
        return (2.0 / s) * np.log(2.0 * g1**2 / ((2.0 * g1 - s) * s))

    def g1_at(x):
        E = math.exp(0.5 * s * x)
        return 0.5 * s * (E - math.sqrt(E * (E - 2.0)))

    def mismatch(g1, n):
        return U * x_of(g1) - n * math.pi - np.arctan((s - 2.0 * g1) / (4.0 * U))

    rows, n, x_cap = [], 0, gx_ceiling / G
    while n * math.pi - 0.5 * math.pi <= U * x_cap:
        x_hi = min((n * math.pi + 0.5 * math.pi + 0.5) / U, x_cap)
        x_lo = max((n * math.pi - 0.5 * math.pi - 0.5) / U, x_of(G))
        if x_hi > x_lo and min(g1_at(x_lo), G) > g1_at(x_hi):
            grid = np.linspace(g1_at(x_hi), min(g1_at(x_lo), G), 80)
            vals = mismatch(grid, n)
            i = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
            roots = _bisect(lambda g: mismatch(g, n), grid[i], grid[i + 1])
            for g1 in np.concatenate((grid[:-1][vals[:-1] == 0.0], roots)).tolist():
                if G * x_of(g1) <= gx_ceiling + 1e-9:
                    rows.append((n, g1 / G, float(G * x_of(g1))))
        n += 1
    return sorted(rows)


class TestLoopReferences:
    """The broadcast solvers against the loops they replaced."""

    @pytest.mark.parametrize("kappa, grid", [
        (0.0, np.linspace(0.0, 1.0, 401)),
        (0.3, np.linspace(0.0, 1.0, 1001)),
        (1.0, [0.5 - 1e-13, 0.5, 0.6, 1.0, 1.0 + 1e-13, 1.0 + 1e-11]),
    ])
    def test_single_res_equals_the_point_loop(self, kappa, grid):
        p = params(kappa=kappa)
        curve = working_area_single_res(p, grid)
        g1, gx, branch, diverges = (list(c) for c in zip(*loop_single_res(p, grid)))
        assert curve.gamma1_over_Gamma.tolist() == g1
        assert curve.branch.tolist() == branch and curve.diverges.tolist() == diverges
        # np.log may round differently from math.log, by an ulp
        np.testing.assert_allclose(curve.Gamma_abs_x, gx, rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("kappa, U, gx_ceiling", [
        (0.4, 10.0, 20.0), (0.4, -10.0, 20.0), (0.13, 3.7, 35.0), (0.0, 40.0, 20.0),
        (0.999999, 10.0, 20.0), (0.4, 10.0, 3.0),
    ])
    def test_two_res_equals_the_branch_loop(self, kappa, U, gx_ceiling):
        # the same windows, roots and order: every bit equal
        p = params(kappa=kappa, U=U)
        curve = working_area_two_res(p, gx_ceiling=gx_ceiling)
        rows = loop_two_res(p, gx_ceiling)
        assert len(rows) > 0
        assert curve.branch.tolist() == [n for n, _, _ in rows]
        assert curve.gamma1_over_Gamma.tolist() == [g1 for _, g1, _ in rows]
        assert curve.Gamma_abs_x.tolist() == [gx for _, _, gx in rows]
        assert not curve.diverges.any()


class TestEmptyCurve:
    """``empty`` names the solver's reason for a curve without rows."""

    @pytest.mark.parametrize("solve, reason", [
        (lambda: working_area_two_res(params(kappa=1.0)),
         "no gamma1 lies in ((kappa + Gamma)/2, Gamma] = (1, 1] once kappa >= Gamma"),
        (lambda: working_area_two_res(params(kappa=0.4, U=0.0)),
         "a linear cavity (U = 0) has no two-photon bound state"),
        (lambda: working_area_two_res(params(kappa=0.4), gx_ceiling=0.1),
         "no null has Gamma|x| <= gx_ceiling 0.1"),
        (lambda: working_area_single_res(params(kappa=5.0), np.linspace(0.0, 1.0, 11)),
         "no gamma1 lies in [(kappa + Gamma)/4, Gamma] = [1.5, 1] once kappa > 3 Gamma"),
        (lambda: working_area_single_res(params(), [0.0, 0.1, 0.2]),
         "the gamma1 grid [0, 0.2] has no point in [(kappa + Gamma)/4, Gamma] = [0.5, 1]"),
    ], ids=["kappa>=Gamma", "U=0", "below-ceiling", "kappa>3Gamma", "grid-misses"])
    def test_each_reason(self, solve, reason, tmp_path):
        curve = solve()
        assert curve.empty == reason
        assert len(curve) == 0
        assert [c.dtype.kind for c in curve.columns()] == ["f", "f", "i", "b"]
        assert [c.shape for c in curve.columns()] == [(0,)] * 4
        write_working_area_csv(tmp_path / "wa.csv", curve)
        assert (tmp_path / "wa.csv").read_text() == (
            "gamma1_over_Gamma,Gamma_abs_x,branch,diverges\n"
        )

    @pytest.mark.parametrize("solve", [
        lambda: working_area_two_res(params(kappa=0.4)),
        lambda: working_area_single_res(params(), [0.6, 1.0]),
    ], ids=["two-res", "single-res"])
    def test_none_on_a_curve_with_rows(self, solve):
        curve = solve()
        assert curve.empty is None and len(curve) > 0
        assert [c.dtype.kind for c in curve.columns()] == ["f", "f", "i", "b"]


class TestNumericZeroScan:
    def test_matches_the_closed_form_curve_at_the_verify_parameters(self):
        # the single-photon-resonance working-area check of ``verify``,
        # whose gate is 0.05; both curves agree to 2.0e-9
        p = params()
        grid = np.linspace(0.52, 0.95, 9)
        curve = working_area_single_res(p, grid)
        scan = numeric_zero_scan(
            p, single_res_pair(p), gamma1_grid=grid,
            x_grid=np.linspace(0.05, 14.0, 560), threshold=1e-3,
        )
        found = dict(scan)
        assert len(found) == len(curve) == len(grid)
        for g1, x in zip(curve.gamma1_over_Gamma, curve.Gamma_abs_x):
            assert abs(found[g1] - x) <= 1e-8

    def test_refinement_lands_on_the_reference_golden_search(self):
        # every minimum refined one at a time by the reference
        # implementation, from the same three-point bracket and to the
        # same relative width
        p = params(kappa=0.4)
        pair = two_res_pair(p)
        # couplings with exact zeros, so every minimum is sharp
        gamma1 = working_area_two_res(p, gx_ceiling=8.0).gamma1_over_Gamma
        gamma1 = gamma1[gamma1 > 0.71].tolist()
        xs = np.linspace(0.0, 8.0, 801)
        scan = numeric_zero_scan(p, pair, gamma1_grid=gamma1, x_grid=xs)
        expected = []
        for g1 in gamma1:
            f = TwoPhotonField(p.at_gamma1(g1), pair)
            vals = np.abs(f.psi_tt(-0.5 * xs, 0.5 * xs)) ** 2
            for i in range(1, xs.size - 1):
                if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
                    res = minimize_scalar(
                        lambda x: float(np.abs(f.psi_tt(-0.5 * x, 0.5 * x)) ** 2),
                        bracket=(xs[i - 1], xs[i], xs[i + 1]), method="golden",
                        options={"xtol": 1e-12},
                    )
                    if res.fun < 1e-8 * FREE_PAIR_DENSITY:
                        expected.append((g1, res.x))
        assert len(scan) == len(expected) > 4
        for (g1, x), (g1_ref, x_ref) in zip(scan, expected):
            assert g1 == g1_ref
            assert x == pytest.approx(x_ref, abs=1e-10)

    def test_flags_identically_dark_couplings(self):
        # at gamma1 = Gamma = kappa with a linear cavity the transmitted
        # amplitude vanishes for every separation
        p = params(U=0.0)
        scan = numeric_zero_scan(
            p, single_res_pair(p), gamma1_grid=[1.0], x_grid=np.linspace(0.0, 4.0, 41)
        )
        assert scan.degenerate_full_null
        assert scan.degenerate_gamma1 == (1.0,)
        assert len(scan) == 0

    def test_rejects_couplings_beyond_the_total(self):
        p = params()
        with pytest.raises(ValueError, match="gamma1"):
            numeric_zero_scan(
                p, single_res_pair(p), gamma1_grid=[1.2], x_grid=[0.0, 1.0, 2.0]
            )

    def test_requires_enough_separations_to_bracket(self):
        p = params()
        with pytest.raises(ValueError, match="x_grid"):
            numeric_zero_scan(p, single_res_pair(p), gamma1_grid=[0.8], x_grid=[0.0, 1.0])


class TestNonreciprocityContrast:
    def test_fully_blocking_diode_point(self):
        # kappa = gamma1 - gamma2 with gamma2 = 0: left-incident pairs are
        # extinguished in transmission, right-incident ones pass untouched
        p = make_params(omega_a=0.0, kappa=1.0, U=0.0, gamma1=1.0, gamma2=0.0)
        c = nonreciprocity_contrast(p, p.omega_a, p.omega_a, 0.4, 1.9)
        assert c == pytest.approx(-1.0, abs=1e-15)

    def test_overdamped_cavity_is_reciprocal(self):
        p = make_params(omega_a=0.0, kappa=100.0, U=10.0, gamma1=0.8, gamma2=0.2)
        c = nonreciprocity_contrast(p, p.omega_a, p.omega_a, 0.4, 1.9)
        assert abs(c) < 0.05

    def test_symmetric_coupling_is_reciprocal(self):
        p = make_params(omega_a=0.0, kappa=0.7, U=5.0, gamma1=0.5, gamma2=0.5)
        c = nonreciprocity_contrast(p, p.omega_a + 0.3, p.omega_a - 0.2, 0.9, -0.6)
        assert c == pytest.approx(0.0, abs=1e-14)


    def test_array_coordinates_equal_per_point_calls(self):
        p = make_params(omega_a=0.0, kappa=0.7, U=5.0, gamma1=0.8, gamma2=0.2)
        x1 = np.array([0.4, 0.5, -1.0])
        x2 = np.array([[1.9], [0.2]])
        c = nonreciprocity_contrast(p, 0.1, 0.3, x1, x2)
        assert c.shape == (2, 3)
        for i, j in np.ndindex(c.shape):
            scalar = nonreciprocity_contrast(p, 0.1, 0.3, float(x1[j]), float(x2[i, 0]))
            assert type(scalar) is float
            # numpy's vector exp may round differently from its scalar one
            assert c[i, j] == pytest.approx(scalar, rel=1e-13, abs=1e-15)

    def test_vanishing_density_gives_zero_elementwise(self):
        # lossless symmetric coupling on resonance reflects every photon,
        # so neither incidence transmits a pair
        p = make_params(omega_a=0.0, kappa=0.0, U=0.0, gamma1=0.5, gamma2=0.5)
        c = nonreciprocity_contrast(p, 0.0, 0.0, np.array([0.4, 2.0]), np.array([1.9, 3.0]))
        assert c.tolist() == [0.0, 0.0]


class TestIncomingPair:
    @pytest.mark.parametrize("direction", list(Direction))
    def test_named_tunings_give_the_resonant_pairs(self, direction):
        p = make_params(omega_a=0.3, kappa=0.7, U=4.0, gamma1=1.0, gamma2=0.0)
        single = WorkingAreaCase.SINGLE_PHOTON_RESONANCE.incoming(p, direction)
        two = WorkingAreaCase.TWO_PHOTON_RESONANCE.incoming(p, direction)
        assert single == TwoPhotonIn(direction, 0.3, 0.3)
        assert two == TwoPhotonIn(direction, 0.3, 8.3)

    def test_left_incidence_is_the_default(self):
        p = params()
        assert WorkingAreaCase.SINGLE_PHOTON_RESONANCE.incoming(p) == single_res_pair(p)
        assert WorkingAreaCase.TWO_PHOTON_RESONANCE.incoming(p) == two_res_pair(p)


class TestWorkingAreaCsv:
    def test_header_and_divergence_encoding(self, tmp_path):
        p = params()
        curve = working_area_single_res(p, [0.6, 1.0])
        path = tmp_path / "wa.csv"
        write_working_area_csv(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma1_over_Gamma,Gamma_abs_x,branch,diverges"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.6
        assert first[2] == "0" and first[3] == "0"
        pole = lines[2].split(",")
        assert pole[0] == "1" and pole[1] == "inf" and pole[3] == "1"
