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
from chiral_diode import diode_analysis
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


@pytest.mark.filterwarnings("error")
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
        # bisection to adjacent floats in x leaves a density at the
        # rounding floor (measured 4.5e-31 of the free density); a root
        # refined only to 1e-10 in gamma1 leaves 2e-19
        p = make_params(omega_a=0.0, kappa=0.4, U=U, gamma1=1.0, gamma2=0.0)
        curve = working_area_two_res(p)
        assert len(curve) > 0 and null_density_max(p, curve) < 1e-24

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
        # the walk's nodes do not depend on the ceiling: a lower one keeps
        # exactly the rows below it, bit for bit
        p = make_params(omega_a=0.0, kappa=0.4, U=10.0, gamma1=1.0, gamma2=0.0)
        small = working_area_two_res(p, gx_ceiling=10.0)
        large = working_area_two_res(p, gx_ceiling=20.0)
        assert 0 < len(small) < len(large)
        kept = large.Gamma_abs_x <= 10.0
        for a, b in zip(small.columns(), large.columns()):
            assert a.tolist() == b[kept].tolist()

    @pytest.mark.parametrize("chunk", [1, 2, 7, 1000])
    def test_walk_in_chunks_finds_the_same_rows(self, chunk, monkeypatch):
        # each chunk starts at the last node of the one before: every sign
        # change across a boundary is found, and no row is lost or doubled
        p = make_params(omega_a=0.0, kappa=0.4, U=10.0, gamma1=1.0, gamma2=0.0)
        whole = working_area_two_res(p)
        assert len(whole) > 0
        monkeypatch.setattr(diode_analysis, "_TWO_RES_CHUNK_NODES", chunk)
        for a, b in zip(working_area_two_res(p).columns(), whole.columns()):
            assert a.tolist() == b.tolist()

    def test_a_zero_node_on_a_chunk_boundary_is_one_row(self, monkeypatch):
        # sin(phase) is never exactly 0 at a node of a real walk, so the
        # module's sin is made 0 at the last node of the first 16-node
        # chunk, which the second chunk starts from: that node is one row
        p = make_params(omega_a=0.0, kappa=0.4, U=10.0, gamma1=1.0, gamma2=0.0)
        phases = []

        class Numpy:
            zero = None

            def __getattr__(self, name):
                return getattr(np, name)

            def sin(self, phase):
                phases.append(phase)
                return np.where(phase == self.zero, 0.0, np.sin(phase))

        numpy = Numpy()
        monkeypatch.setattr(diode_analysis, "np", numpy)
        plain = working_area_two_res(p)
        numpy.zero = phases[0][15]
        whole = working_area_two_res(p)
        monkeypatch.setattr(diode_analysis, "_TWO_RES_CHUNK_NODES", 16)
        chunked = working_area_two_res(p)
        assert len(phases[0]) > 16
        for a, b in zip(chunked.columns(), whole.columns()):
            assert a.tolist() == b.tolist()
        # the node is a new row, once; neither of its neighbours changed sign
        (x,) = np.setdiff1d(chunked.Gamma_abs_x, plain.Gamma_abs_x)
        assert len(chunked) == len(plain) + 1
        assert np.count_nonzero(chunked.Gamma_abs_x == x) == 1

    @pytest.mark.parametrize("gx_ceiling, rows", [(100.0, 315), (1100.0, 3498), (5000.0, 15912)])
    def test_high_ceilings_find_every_branch(self, gx_ceiling, rows):
        # far out gamma1 rounds to (kappa + Gamma)/2, and past Gamma|x| ~
        # 700 exp(s |x|/2) overflows float64; no branch may go missing
        p = make_params(omega_a=0.0, kappa=0.4, U=10.0, gamma1=1.0, gamma2=0.0)
        curve = working_area_two_res(p, gx_ceiling=gx_ceiling)
        branches = np.unique(curve.branch)
        assert len(curve) == rows and branches[-1] - branches[0] + 1 == branches.size
        assert null_density_max(p, curve) < 1e-10

    def test_large_kerr_finds_every_branch(self):
        p = make_params(omega_a=0.0, kappa=0.4, U=1e4, gamma1=1.0, gamma2=0.0)
        curve = working_area_two_res(p)
        assert len(curve) == 59717
        branches = np.unique(curve.branch)
        assert (branches[0], branches[-1], branches.size) == (3945, 63661, 59717)
        assert null_density_max(p, curve) < 1e-10

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
        # ~5e302 walk steps below the ceiling, which float64 cannot count;
        # at 1e307 the step pi/(80 |U|) itself rounds to 0
        for U in (1e300, 1e307):
            p = make_params(omega_a=0.0, kappa=0.4, U=U, gamma1=1.0, gamma2=0.0)
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


def loop_two_res(p, gx_ceiling=20.0, points=400):
    """Every root of the exact tangent condition, one tangent branch at a
    time, in scalar ``math``: the completeness reference of the walk.

    The separation condition is parametrized by t = ln(2 gamma1 - s), in
    which gamma1 = (s + e^t)/2 and |x| = (2/s)(ln(2 gamma1^2 / s) - t)
    follow without cancellation.  On branch n the mismatch U|x| + arctan(
    e^t/(4U)) - n pi can only vanish while U|x| lies in (n pi - pi/2,
    n pi); that window, cut to [x(Gamma), gx_ceiling/Gamma], is mapped to
    t by bisection, scanned at ``points`` nodes, and every sign change is
    bisected to adjacent floats in t.  Returns sorted (n, gamma1/Gamma,
    Gamma|x|) rows."""
    G, s, U = p.Gamma, p.kappa + p.Gamma, abs(p.U)

    def g1_of(t):
        return 0.5 * (s + math.exp(t))

    def x_of(t):
        return (2.0 / s) * (math.log(2.0 * g1_of(t) ** 2 / s) - t)

    def mismatch(t, n):
        return U * x_of(t) + math.atan(math.exp(t) / (4.0 * U)) - n * math.pi

    def bisect(f, lo, hi):
        # f(lo) < 0 < f(hi), or the reverse; halve down to adjacent floats
        sign_lo = f(lo) > 0.0
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if (f(mid) > 0.0) == sign_lo:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    t_max = math.log(2.0 * G - s)  # gamma1 = Gamma
    x_min, x_cap = x_of(t_max), gx_ceiling / G

    def t_at(x):
        # |x| falls as t grows; at t_lo it is at least x, as gamma1 >= s/2
        t_lo = math.log(0.5 * s) - 0.5 * s * x - 1.0
        return bisect(lambda t: x_of(t) - x, t_lo, t_max)

    rows = []
    for n in range(math.floor(U * x_min / math.pi), math.floor(U * x_cap / math.pi + 0.5) + 2):
        lo, hi = max((n - 0.5) * math.pi / U, x_min), min(n * math.pi / U, x_cap)
        if not lo < hi:
            continue
        t_lo, t_hi = t_at(hi), (t_max if lo == x_min else t_at(lo))
        ts = [t_lo + (t_hi - t_lo) * k / (points - 1) for k in range(points)]
        vals = [mismatch(t, n) for t in ts]
        for k in range(points - 1):
            if vals[k] == 0.0:
                t = ts[k]
            elif vals[k] * vals[k + 1] < 0.0:
                t = bisect(lambda t: mismatch(t, n), ts[k], ts[k + 1])
            else:
                continue
            rows.append((n, g1_of(t) / G, G * x_of(t)))
    return sorted(rows)


def assert_equals_the_branch_loop(p, gx_ceiling):
    curve = working_area_two_res(p, gx_ceiling=gx_ceiling)
    rows = loop_two_res(p, gx_ceiling)
    assert len(rows) > 0
    assert curve.branch.tolist() == [n for n, _, _ in rows]
    np.testing.assert_allclose(curve.gamma1_over_Gamma, [g1 for _, g1, _ in rows],
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(curve.Gamma_abs_x, [gx for _, _, gx in rows], rtol=0, atol=1e-9)
    assert not curve.diverges.any()


def null_density_max(p, curve):
    """The largest transmitted density at the rows of ``curve``, in units
    of the free pair density."""
    x = curve.Gamma_abs_x / p.Gamma
    f = TwoPhotonField(p.at_gamma1(curve.gamma1_over_Gamma * p.Gamma), two_res_pair(p))
    return np.max(np.abs(f.psi_tt(-0.5 * x, 0.5 * x)) ** 2, initial=0.0) / FREE_PAIR_DENSITY


@pytest.mark.filterwarnings("error")
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
        # the same branches and roots as the per-branch reference; on the
        # far branches gamma1 lies within rounding of (kappa + Gamma)/2,
        # where an inverse that subtracts nearly equal numbers loses them
        assert_equals_the_branch_loop(params(kappa=kappa, U=U), gx_ceiling)

    @pytest.mark.parametrize("seed", range(8))
    def test_two_res_equals_the_branch_loop_at_random_draws(self, seed):
        # the benchmark's range: kappa in [0, 0.8), |U| in [4, 15), either sign
        rng = np.random.default_rng(seed)
        U = rng.uniform(4.0, 15.0) * rng.choice([-1.0, 1.0])
        p = make_params(omega_a=rng.uniform(-1.0, 1.0), kappa=rng.uniform(0.0, 0.8), U=U,
                        gamma1=1.0, gamma2=0.0)
        assert_equals_the_branch_loop(p, 20.0)

    def test_two_res_equals_the_branch_loop_lossless_at_gamma_not_one(self):
        # kappa = 0 puts gamma1 = Gamma at the edge s of the inverse, where
        # its radicand rounds to about 0
        p = make_params(omega_a=0.0, kappa=0.0, U=10.0, gamma1=0.7, gamma2=0.6)
        assert_equals_the_branch_loop(p, 20.0)
        assert null_density_max(p, working_area_two_res(p)) < 1e-10


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
        # whose gate is 1e-8; both curves agree to 3.2e-11
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
            assert abs(found[g1] - x) <= 1e-10

    def test_minima_land_on_the_two_photon_resonance_roots(self):
        # at couplings with exact zeros every minimum is one of
        # working_area_two_res's roots, which are exact to rounding
        p = params(kappa=0.4)
        curve = working_area_two_res(p, gx_ceiling=8.0)
        keep = curve.gamma1_over_Gamma > 0.71
        roots = dict(zip(curve.gamma1_over_Gamma[keep].tolist(), curve.Gamma_abs_x[keep].tolist()))
        scan = numeric_zero_scan(
            p, two_res_pair(p), gamma1_grid=list(roots), x_grid=np.linspace(0.0, 8.0, 801)
        )
        assert len(scan) == len(roots) > 4
        for g1, x in scan:
            assert x == pytest.approx(roots[g1], rel=1e-14, abs=0.0)

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

    def test_minimum_in_the_bracket_at_zero_separation(self):
        # the density is even in x, so its central difference is exactly 0
        # at the bracket's lower end x = 0; the minimum still lies inside,
        # away from that end
        p = make_params(omega_a=0.0, kappa=1.37, U=-16.4, gamma1=1.0, gamma2=0.0)
        pair = single_res_pair(p)
        xs = np.linspace(0.0, 1.0, 41)
        scan = numeric_zero_scan(p, pair, gamma1_grid=[0.5975], x_grid=xs, threshold=1e-3)
        f = TwoPhotonField(p.at_gamma1(0.5975), pair)
        ref = minimize_scalar(
            lambda x: float(np.abs(f.psi_tt(-0.5 * x, 0.5 * x)) ** 2),
            bracket=tuple(xs[:3]), method="golden", options={"xtol": 1e-12},
        )
        assert len(scan) == 1
        (g1, x), = scan
        assert g1 == 0.5975
        assert x == pytest.approx(ref.x, abs=1e-7)
        assert x > xs[1]

    def test_flags_identically_dark_couplings(self):
        # at gamma1 = Gamma = kappa with a linear cavity the transmitted
        # amplitude vanishes for every separation
        p = params(U=0.0)
        scan = numeric_zero_scan(
            p, single_res_pair(p), gamma1_grid=[1.0], x_grid=np.linspace(0.0, 4.0, 41)
        )
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
