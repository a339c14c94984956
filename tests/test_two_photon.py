"""Two-photon wavefunctions: bound-state constants, channel amplitudes,
even/odd-basis amplitudes, asymptotics, and dense maps."""

import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from chiral_diode import (
    Direction,
    EvenOddField,
    ModelParams,
    TwoPhotonField,
    TwoPhotonIn,
    bound_asymptote,
    bound_coeffs,
    even_mode_t,
    make_params,
    map_two_photon,
    write_map_binary,
)
from chiral_diode.two_photon import read_map_binary

LEFT = Direction.LEFT_INCIDENT
RIGHT = Direction.RIGHT_INCIDENT


def params(kappa=1.0, U=10.0, gamma1=1.0, gamma2=0.0, omega_a=0.0):
    return make_params(omega_a=omega_a, kappa=kappa, U=U, gamma1=gamma1, gamma2=gamma2)


def resonant_pair(p, direction=LEFT):
    return TwoPhotonIn(direction, p.omega_a, p.omega_a)


def pair_resonant_pair(p, direction=LEFT):
    """One photon on the cavity line, one shifted by the full Kerr constant."""
    return TwoPhotonIn(direction, p.omega_a, p.omega_a + 2.0 * p.U)


def random_params(rng):
    g1 = rng.uniform(0.0, 1.5)
    g2 = rng.uniform(0.0, 1.5)
    if g1 + g2 == 0.0:
        g1 = 1.0
    return make_params(
        omega_a=rng.uniform(-1.0, 1.0),
        kappa=rng.uniform(0.0, 2.0),
        U=rng.uniform(0.0, 15.0),
        gamma1=g1,
        gamma2=g2,
    )


class TestBoundCoeffs:
    def test_loss_matched_chiral_magnitude_reduces_to_closed_form(self):
        c = bound_coeffs(params(), resonant_pair(params()))
        # at kappa = Gamma, resonance: |D|^2 = U^2 / (2 pi^2 (U^2 + Gamma^2))
        assert abs(c.D) ** 2 == pytest.approx(100.0 / (2.0 * np.pi**2 * 101.0), rel=1e-12)

    def test_weak_loss_value(self):
        p = params(kappa=0.01)
        c = bound_coeffs(p, resonant_pair(p))
        assert c.D == pytest.approx(
            -0.8803314626328244 - 0.04445673886295763j, abs=1e-12
        )

    def test_linear_cavity_has_no_bound_state(self):
        p = params(U=0.0, kappa=0.3, gamma1=0.6, gamma2=0.7)
        c = bound_coeffs(p, resonant_pair(p))
        assert c.chi == 0.0 and c.D == 0.0

    def test_all_fields_finite_across_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = random_params(rng)
            pair = TwoPhotonIn(LEFT, *(p.omega_a + rng.uniform(-3, 3, 2)))
            c = bound_coeffs(p, pair)
            for name in ("m_a1", "m_a2", "chi", "rho", "D", "beta_k1", "beta_k2",
                         "sigma_k1", "sigma_k2", "phi_aa"):
                assert np.isfinite(getattr(c, name))


class TestTransmittedPair:
    def test_coincident_photons_see_only_the_bound_state_at_matched_loss(self):
        # at gamma1 = Gamma = kappa the single-photon transmission vanishes
        p = params()
        f = TwoPhotonField(p, resonant_pair(p))
        assert abs(f.t_k1) == 0.0
        assert abs(f.psi_tt(0.7, 0.7)) ** 2 == pytest.approx(
            abs(f.coeffs.D) ** 2, rel=1e-12
        )

    def test_weak_loss_coincident_density_anchor(self):
        p = params(kappa=0.01)
        f = TwoPhotonField(p, resonant_pair(p))
        assert abs(f.psi_tt(1.3, 1.3)) ** 2 == pytest.approx(0.44297618944092204, abs=1e-12)
        assert abs(f.psi_tt(1.3, 1.3)) ** 2 == pytest.approx(0.442976, abs=1e-5)

    def test_uncoupled_right_movers_give_pure_interference_stripes(self):
        p = params(gamma1=0.0, gamma2=1.0)
        f = TwoPhotonField(p, pair_resonant_pair(p))
        x = np.linspace(-3.0, 3.0, 61)
        dens = np.abs(f.psi_tt(1.0 + x, np.full_like(x, 1.0))) ** 2
        expect = np.cos(p.U * x) ** 2 / (2.0 * np.pi**2)
        assert np.max(np.abs(dens - expect)) < 1e-14

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_params(rng)
            pair = TwoPhotonIn(LEFT, *(p.omega_a + rng.uniform(-3, 3, 2)))
            f = TwoPhotonField(p, pair)
            x1, x2 = rng.uniform(-4, 4, 2)
            assert f.psi_tt(x1, x2) == pytest.approx(f.psi_tt(x2, x1), abs=1e-15)
            assert f.psi_rr(x1, x2) == pytest.approx(f.psi_rr(x2, x1), abs=1e-15)


class TestReflectedPair:
    def test_chiral_coupling_without_return_path_never_reflects(self):
        for g1, g2 in ((1.0, 0.0), (0.0, 1.0)):
            p = params(U=0.0, gamma1=g1, gamma2=g2)
            f = TwoPhotonField(p, resonant_pair(p))
            for x1, x2 in ((-1.0, -2.0), (-0.3, -4.0)):
                assert f.psi_rr(x1, x2) == 0.0

    def test_lossless_symmetric_resonance_reflects_with_unit_magnitude(self):
        p = params(kappa=0.0, U=0.0, gamma1=0.5, gamma2=0.5)
        f = TwoPhotonField(p, resonant_pair(p))
        # |r| = 1 and no bound part: reflected density equals the free pair's
        assert abs(f.psi_rr(-1.2, -2.5)) ** 2 == pytest.approx(
            1.0 / (2.0 * np.pi**2), rel=1e-12
        )


class TestMixedChannel:
    def test_no_reflection_channel_without_left_coupling(self):
        p = params(U=7.0)
        f = TwoPhotonField(p, resonant_pair(p))
        for x1, x2 in ((1.0, -2.0), (3.0, -0.4)):
            assert f.psi_rt(x1, x2) == 0.0

    def test_symmetric_coupling_ties_both_incidences_by_mirror(self):
        p = params(kappa=0.8, U=5.0, gamma1=0.5, gamma2=0.5)
        pair_l = TwoPhotonIn(LEFT, p.omega_a + 0.3, p.omega_a - 0.7)
        pair_r = TwoPhotonIn(RIGHT, p.omega_a + 0.3, p.omega_a - 0.7)
        fl = TwoPhotonField(p, pair_l)
        fr = TwoPhotonField(p, pair_r)
        for x1, x2 in ((1.3, -0.8), (0.4, -2.2)):
            assert fr.psi_rt(x1, x2) == pytest.approx(fl.psi_rt(-x2, -x1), abs=1e-15)
            assert fr.psi_tt(x1, x2) == pytest.approx(fl.psi_tt(-x1, -x2), abs=1e-15)


    def test_default_convention_is_the_certified_reconstruction(self):
        p = make_params(omega_a=0.0, kappa=0.8, U=4.0, gamma1=0.7, gamma2=0.3)
        f = TwoPhotonField(p, TwoPhotonIn(Direction.LEFT_INCIDENT, 0.2, -0.4))
        x1, x2 = np.linspace(0.1, 3.0, 7), np.linspace(-2.0, -0.3, 7)
        rec = f.psi_rt(x1, x2, convention="reconstructed")
        assert np.array_equal(f.psi_rt(x1, x2), rec)
        assert np.array_equal(f.densities(x1, x2, ("rt",))["rt"], np.abs(rec) ** 2)
        assert not np.allclose(rec, f.psi_rt(x1, x2, convention="printed"))


class TestEvenOddAmplitudes:
    def test_odd_odd_pair_is_a_free_symmetrized_plane_wave(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_params(rng)
            w1, w2 = p.omega_a + rng.uniform(-2, 2, 2)
            pair = TwoPhotonIn(LEFT, w1, w2)
            f = EvenOddField(p, pair)
            assert np.isfinite(f.phi_oo(*rng.uniform(-3, 3, 2)))
            # magnitude of a symmetrized free product never depends on params
            x1, x2 = 0.9, -1.7
            k1, k2 = pair.omega_k1, pair.omega_k2
            expect = (
                np.exp(1j * (k1 * x1 + k2 * x2)) + np.exp(1j * (k2 * x1 + k1 * x2))
            ) / (np.sqrt(2.0) * 2.0 * np.pi)
            got = f.phi_oo(x1, x2)
            assert got == pytest.approx(expect, abs=1e-15)

    def test_linear_cavity_factorizes_into_single_photon_solutions(self):
        p = params(U=0.0, kappa=0.7, gamma1=0.6, gamma2=0.4)
        pair = resonant_pair(p)
        f = EvenOddField(p, pair)
        t_e = even_mode_t(p, p.omega_a)
        a, b = 0.8, 2.1
        assert f.phi_ee(a, b) / f.phi_ee(-a, -b) == pytest.approx(t_e**2, abs=1e-12)

    def test_even_even_jump_feeds_the_cavity_amplitude(self):
        p = params(kappa=0.7, U=4.0, gamma1=0.8, gamma2=0.5, omega_a=0.2)
        f = EvenOddField(p, TwoPhotonIn(LEFT, 0.1, 0.45))
        x = 1.37
        jump = f.phi_ee(0.0, x, side1=+1) - f.phi_ee(0.0, x, side1=-1)
        assert jump == pytest.approx(-1j * np.sqrt(p.Gamma / 2.0) * f.phi_ae(x), abs=5e-15)

    def test_step_functions_use_midpoint_value_on_the_lines(self):
        p = params(kappa=0.7, U=4.0, gamma1=0.8, gamma2=0.5)
        f = EvenOddField(p, resonant_pair(p))
        x = 1.37
        mid = f.phi_ee(0.0, x)
        avg = 0.5 * (f.phi_ee(0.0, x, side1=+1) + f.phi_ee(0.0, x, side1=-1))
        assert mid == pytest.approx(avg, abs=1e-15)


class TestChannelReconstruction:
    def test_channel_amplitudes_match_basis_change_in_their_exit_regions(self):
        rng = np.random.default_rng(14)
        devs = []
        for _ in range(100):
            p = random_params(rng)
            pair = TwoPhotonIn(LEFT, *(p.omega_a + rng.uniform(-3, 3, 2)))
            field = TwoPhotonField(p, pair)
            eo = EvenOddField(p, pair)
            a1, a2 = rng.uniform(0.05, 4.0, 2)
            devs += [
                abs(field.psi_tt(a1, a2) - eo.reconstruct_tt(a1, a2)),
                abs(field.psi_rr(-a1, -a2) - eo.reconstruct_rr(-a1, -a2)),
                abs(
                    field.psi_rt(a1, -a2, convention="reconstructed")
                    - eo.reconstruct_rt(a1, -a2)
                ),
            ]
        # np.max, not a running max: a nan deviation must fail
        assert np.max(devs) < 1e-12


class TestBoundAsymptote:
    def test_matched_loss_amplitudes(self):
        p = params()
        single = bound_asymptote(p, "single-photon-resonance")
        double = bound_asymptote(p, "two-photon-resonance")
        assert single.amplitude_sq == pytest.approx(
            3200.0 / (np.pi**2 * 16.0 * 404.0), rel=1e-14
        )
        assert double.amplitude_sq == pytest.approx(
            3200.0 / (np.pi**2 * 16.0 * 1604.0), rel=1e-14
        )
        assert double.amplitude_sq == pytest.approx(0.012634, abs=1e-6)
        assert single.decay_rate == double.decay_rate == p.kappa + p.Gamma

    def test_vanishes_without_nonlinearity(self):
        for case in ("single-photon-resonance", "two-photon-resonance"):
            assert bound_asymptote(params(U=1e-8), case).amplitude_sq < 1e-15

    def test_requires_fully_chiral_coupling(self):
        with pytest.raises(ValueError, match="gamma1"):
            bound_asymptote(params(gamma1=0.7, gamma2=0.3), "single-photon-resonance")

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="case"):
            bound_asymptote(params(), "three-photon-resonance")

    @pytest.mark.parametrize("case", ["single-photon-resonance", "two-photon-resonance"])
    def test_array_rates_broadcast_to_the_scalar_values(self, case):
        kappa = np.array([0.5, 1.0])
        U = np.array([[4.0], [-2.0], [0.0]])
        gamma1 = np.array([[[1.0]], [[0.7]]])
        prof = bound_asymptote(ModelParams(0.0, kappa, U, gamma1, 0.0), case)
        assert prof.amplitude_sq.shape == prof.decay_rate.shape == (2, 3, 2)
        for i, j, k in np.ndindex(2, 3, 2):
            one = bound_asymptote(ModelParams(0.0, kappa[k], U[j, 0], gamma1[i, 0, 0], 0.0), case)
            assert type(one.amplitude_sq) is type(one.decay_rate) is float
            # numpy's vector power may round differently from the scalar one
            assert prof.amplitude_sq[i, j, k] == pytest.approx(one.amplitude_sq, rel=1e-14)
            assert prof.decay_rate[i, j, k] == one.decay_rate

    def test_array_coupling_off_full_chirality_names_the_first(self):
        p = ModelParams(0.0, 1.0, 4.0, np.array([1.0, 0.7, 0.6]), np.array([0.0, 0.3, 0.4]))
        with pytest.raises(ValueError, match=r"gamma1=0\.7, Gamma=1\.0"):
            bound_asymptote(p, "single-photon-resonance")

    @pytest.mark.parametrize(
        "case,pair_of",
        [
            ("single-photon-resonance", resonant_pair),
            ("two-photon-resonance", pair_resonant_pair),
        ],
    )
    def test_profile_equals_full_density_at_matched_loss(self, case, pair_of):
        # with gamma1 = Gamma = kappa the plane part carries a zero factor,
        # so the transmitted density is exactly the bound profile
        p = params()
        f = TwoPhotonField(p, pair_of(p))
        prof = bound_asymptote(p, case)
        for x in np.linspace(0.0, 10.0, 41):
            dens = abs(f.psi_tt(-0.5 * x, 0.5 * x)) ** 2
            assert dens == pytest.approx(prof.density(x), rel=1e-12, abs=1e-300)


def map_field(tuning=pair_resonant_pair, direction=LEFT):
    """A field with both tt and rr densities nonzero."""
    p = params(kappa=0.4, U=6.0, gamma1=0.7, gamma2=0.3)
    return TwoPhotonField(p, tuning(p, direction))


def assert_close_to_dense(m, ref):
    """The separation gather's tolerance against per-point evaluation."""
    assert m.shape == ref.shape
    tol = 1e-12 * np.abs(ref) + 1e-14 * ref.max(initial=0.0)
    assert np.all(np.abs(m - ref) <= tol)


class TestMaps:
    @pytest.mark.parametrize("direction", [LEFT, RIGHT])
    @pytest.mark.parametrize("tuning", [resonant_pair, pair_resonant_pair])
    def test_uniform_grid_gathers_every_channel(self, direction, tuning):
        f = map_field(tuning, direction)
        x = np.linspace(-6.0, 6.0, 241)
        channels = ("tt", "rr", "rt")
        maps = map_two_photon(f, x, channels, "reconstructed")
        dense = f.densities(x[:, None], x[None, :], channels, "reconstructed")
        for ch in channels:
            assert_close_to_dense(maps[ch], dense[ch])
        for ch in ("tt", "rr"):
            assert np.array_equal(maps[ch], maps[ch].T)

    @pytest.mark.parametrize("direction", [LEFT, RIGHT])
    @pytest.mark.parametrize("convention", ["reconstructed", "printed"])
    def test_rt_map_is_gathered_from_pair_sums(self, direction, convention):
        # |psi_rt|^2 depends only on x1 + x2, so the map is exactly Hankel
        f = map_field(pair_resonant_pair, direction)
        x = np.linspace(-4.0, 5.0, 181)
        m = map_two_photon(f, x, ("rt",), convention)["rt"]
        dense = f.densities(x[:, None], x[None, :], ("rt",), convention)["rt"]
        assert_close_to_dense(m, dense)
        assert np.array_equal(m[1:, :-1], m[:-1, 1:])
        # a read-only view into the 2N - 1 pair-sum values, not an N x N copy
        assert not m.flags.writeable and m.base is not None and not m.flags.c_contiguous

    @pytest.mark.parametrize(
        "x",
        [np.geomspace(0.1, 5.0, 60), np.linspace(-3.0, 3.0, 61) + 1e-12 * (np.arange(61) == 17)],
        ids=["geomspace", "jittered"],
    )
    def test_non_uniform_grid_is_evaluated_per_point(self, x):
        f = map_field()
        channels = ("tt", "rr", "rt")
        maps = map_two_photon(f, x, channels)
        dense = f.densities(x[:, None], x[None, :], channels)
        for ch in channels:
            assert np.array_equal(maps[ch], dense[ch])

    @pytest.mark.parametrize("kappa", [np.linspace(0.2, 2.0, 41), np.array([[[0.3]], [[1.5]]])])
    def test_field_over_a_parameter_grid_is_evaluated_per_point(self, kappa):
        p = params(kappa=kappa, U=6.0, gamma1=0.7, gamma2=0.3)
        f = TwoPhotonField(p, pair_resonant_pair(p))
        x = np.linspace(-3.0, 3.0, 41)
        channels = ("tt", "rr", "rt")
        maps = map_two_photon(f, x, channels)
        dense = f.densities(x[:, None], x[None, :], channels)
        for ch in channels:
            assert np.array_equal(maps[ch], dense[ch])

    @pytest.mark.parametrize(
        "x",
        [[0.7], [-1.0, 2.0], np.linspace(3.0, -3.0, 41), np.full(5, 1.5), []],
        ids=["one", "two", "descending", "lo_equals_hi", "empty"],
    )
    def test_edge_grids(self, x):
        x = np.asarray(x, dtype=float)
        f = map_field()
        channels = ("tt", "rr", "rt")
        maps = map_two_photon(f, x, channels)
        dense = f.densities(x[:, None], x[None, :], channels)
        for ch in channels:
            assert_close_to_dense(maps[ch], dense[ch])

    def test_map_matrix_is_exchange_symmetric(self):
        p = params(gamma1=0.7, gamma2=0.3)
        f = TwoPhotonField(p, resonant_pair(p))
        maps = map_two_photon(f, np.linspace(-2, 2, 33), channels=("tt", "rr"))
        for ch in ("tt", "rr"):
            assert np.allclose(maps[ch], maps[ch].T, atol=1e-15, rtol=0.0)

    def test_broadcast_panel_equals_per_row_scalar_fields_bitwise(self):
        # a fig4-style panel: one field over a gamma1 grid against the
        # separation cut downstream of the cavity
        g1 = np.linspace(0.0, 1.0, 41)
        x = np.linspace(0.0, 4.0, 57)
        grid = params(gamma1=g1[:, None], gamma2=1.0 - g1[:, None])
        for pair in (resonant_pair(grid, LEFT), pair_resonant_pair(grid, RIGHT)):
            sign = 1.0 if pair.direction is LEFT else -1.0
            x1, x2 = np.full_like(x, sign), sign * (1.0 + x)
            panel = TwoPhotonField(grid, pair).densities(x1, x2)["tt"]
            for i, g in enumerate(g1):
                row = TwoPhotonField(params(gamma1=g, gamma2=1.0 - g), pair)
                assert np.array_equal(panel[i], row.densities(x1, x2)["tt"])

    @pytest.mark.parametrize("direction", [LEFT, RIGHT])
    def test_field_over_an_array_pair_equals_per_element_scalar_fields(self, direction):
        rng = np.random.default_rng(5)
        n = 25
        grid = params(
            omega_a=rng.uniform(-1.0, 1.0, n), kappa=rng.uniform(0.0, 2.0, n),
            U=rng.uniform(-10.0, 10.0, n), gamma1=rng.uniform(0.1, 1.5, n),
            gamma2=rng.uniform(0.1, 1.5, n),
        )
        pair = TwoPhotonIn(direction, rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n))
        x1, x2 = rng.uniform(-4.0, 4.0, (2, n))
        field = TwoPhotonField(grid, pair)
        channels = {
            "tt": field.psi_tt(x1, x2),
            "rr": field.psi_rr(x1, x2),
            "rt": field.psi_rt(x1, x2),
            "rt printed": field.psi_rt(x1, x2, convention="printed"),
        }
        for i in range(n):
            p = params(*(float(getattr(grid, k)[i]) for k in ("kappa", "U", "gamma1", "gamma2", "omega_a")))
            one = TwoPhotonField(p, TwoPhotonIn(direction, pair.omega_k1[i], pair.omega_k2[i]))
            scalar = {
                "tt": one.psi_tt(x1[i], x2[i]),
                "rr": one.psi_rr(x1[i], x2[i]),
                "rt": one.psi_rt(x1[i], x2[i]),
                "rt printed": one.psi_rt(x1[i], x2[i], convention="printed"),
            }
            for ch, value in scalar.items():
                assert abs(channels[ch][i] - value) <= 1e-15, (ch, i)

    def test_diagonal_ridge_decays_at_the_loss_plus_coupling_rate(self):
        p = params()
        f = TwoPhotonField(p, resonant_pair(p))
        x = np.linspace(-3, 3, 121)
        m = map_two_photon(f, x)["tt"]
        # sample the anti-diagonal cut through the origin: separation 2|x|
        mid = 60
        ratio = m[mid + 20, mid - 20] / m[mid, mid]
        sep = x[mid + 20] - x[mid - 20]
        assert ratio == pytest.approx(np.exp(-(p.kappa + p.Gamma) * sep), rel=1e-10)

    def test_binary_map_round_trip(self, tmp_path):
        p = params(gamma1=0.6, gamma2=0.4, U=3.0)
        f = TwoPhotonField(p, resonant_pair(p))
        x = np.linspace(-2, 2.1, 17)
        m = map_two_photon(f, x)["tt"]
        path = tmp_path / "map.bin"
        write_map_binary(path, x, m)
        data = path.read_bytes()
        assert data[:8] == b"CDMAP002"
        assert len(data) == 48 + 17 * 17 * 8
        m_back, x_range = read_map_binary(path)
        assert np.array_equal(m_back, m)
        assert x_range == (-2.0, 2.1, -2.0, 2.1)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7.0),
            (np.arange(12.0).reshape(3, 4) / 7.0).astype(np.float32),
            (np.arange(12.0).reshape(3, 4) / 7.0).astype(">f8"),
            (np.arange(40.0).reshape(5, 8) / 7.0)[::2, 1::2],
        ],
        ids=["fortran", "float32", "big_endian", "sliced"],
    )
    def test_binary_writer_stores_row_major_little_endian_float64(self, tmp_path, matrix):
        path = tmp_path / "map.bin"
        write_map_binary(path, np.linspace(0.0, 1.0, matrix.shape[0]), matrix)
        want = np.ascontiguousarray(matrix, dtype="<f8").tobytes()
        assert path.read_bytes()[48:] == want
        m_back, _ = read_map_binary(path)
        assert m_back.tobytes() == want

    def test_binary_reader_returns_a_fresh_writable_float64_matrix(self, tmp_path):
        path = tmp_path / "map.bin"
        write_map_binary(path, np.linspace(0.0, 1.0, 3), np.arange(6.0).reshape(3, 2))
        m, _ = read_map_binary(path)
        assert m.dtype == np.dtype("<f8")
        assert m.flags.c_contiguous and m.flags.writeable and m.flags.owndata
        m[0, 0] = -1.0
        assert read_map_binary(path)[0][0, 0] == 0.0

    def test_binary_reader_rejects_the_float32_layout(self, tmp_path):
        # CDMAP001: a 32-byte header with the x-range as four float32
        path = tmp_path / "legacy.bin"
        header = struct.pack("<II4f", 5, 5, -2.0, 2.1, -2.0, 2.1)
        path.write_bytes(b"CDMAP001" + header + np.arange(25.0).tobytes())
        with pytest.raises(ValueError, match="not a map file: bad magic b'CDMAP001'"):
            read_map_binary(path)

    def test_binary_reader_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMAP!" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_map_binary(path)

    def test_binary_reader_rejects_wrong_sizes_naming_file_and_sizes(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 5)
        write_map_binary(tmp_path / "map.bin", x, np.ones((5, 5)))
        data = (tmp_path / "map.bin").read_bytes()
        cases = {
            "short_header.bin": (data[:20], r"short_header\.bin: header has 20 bytes.* 48"),
            "truncated.bin": (data[:-8], r"truncated\.bin: payload has 192 bytes.* needs 200"),
            "trailing.bin": (data + b"\0" * 8, r"trailing\.bin: payload has 208 bytes.* needs 200"),
        }
        for name, (blob, message) in cases.items():
            (tmp_path / name).write_bytes(blob)
            with pytest.raises(ValueError, match=message):
                read_map_binary(tmp_path / name)

    def test_binary_reader_rejects_a_file_that_shrinks_while_read(self, tmp_path, monkeypatch):
        # the size taken before the payload is read promises 8 more bytes
        path = tmp_path / "map.bin"
        write_map_binary(path, np.linspace(-1.0, 1.0, 5), np.ones((5, 5)))
        path.write_bytes(path.read_bytes()[:-8])
        real = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real(fd).st_size + 8))
        with pytest.raises(ValueError, match="shrank"):
            read_map_binary(path)
