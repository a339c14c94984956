"""Single-photon amplitudes: closed-form anchors, symmetries, sweeps."""

import csv

import numpy as np
import pytest

from chiral_diode import (
    Direction,
    DiodeClass,
    ModelParams,
    PhotonIn,
    chiral_coeffs,
    diode_condition,
    even_mode_t,
    make_params,
    sweep_single,
    write_sweep_csv,
)

LEFT = Direction.LEFT_INCIDENT
RIGHT = Direction.RIGHT_INCIDENT


def params(kappa=1.0, U=0.0, gamma1=1.0, gamma2=0.0, omega_a=0.0):
    return make_params(omega_a=omega_a, kappa=kappa, U=U, gamma1=gamma1, gamma2=gamma2)


class TestEvenModeTransmission:
    def test_lossless_resonance_gives_full_pi_phase(self):
        assert even_mode_t(params(kappa=0.0, gamma1=0.5, gamma2=0.5), 0.0) == -1.0

    def test_critically_coupled_resonance_gives_zero(self):
        assert even_mode_t(params(kappa=1.0), 0.0) == 0.0

    def test_far_detuned_limit_is_free_propagation(self):
        for delta in (1e6, -1e6):
            assert abs(even_mode_t(params(), delta) - 1.0) < 1e-5


class TestChiralCoeffs:
    def test_ideal_diode_blocks_left_incidence_completely(self):
        c = chiral_coeffs(params(), PhotonIn(LEFT, 0.0))
        assert c.t == 0.0 and c.r == 0.0
        assert c.loss == 1.0

    def test_ideal_diode_passes_right_incidence_completely(self):
        c = chiral_coeffs(params(), PhotonIn(RIGHT, 0.0))
        assert c.t == 1.0 and c.r == 0.0

    def test_detuned_asymmetric_point_value(self):
        c = chiral_coeffs(params(gamma1=0.75, gamma2=0.25), PhotonIn(LEFT, 1.0))
        assert c.t == pytest.approx((1.0 + 0.25j) / (1.0 + 1.0j), abs=1e-15)
        assert c.T == pytest.approx(0.53125, abs=1e-15)

    def test_lossless_symmetric_resonance_is_total_reflection(self):
        c = chiral_coeffs(params(kappa=0.0, gamma1=0.5, gamma2=0.5), PhotonIn(LEFT, 0.0))
        assert c.t == 0.0
        assert c.R == pytest.approx(1.0, abs=1e-15)

    def test_reflection_amplitude_identical_for_both_directions(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            g1, g2 = rng.uniform(0.0, 2.0, 2)
            if g1 + g2 == 0.0:
                g1 = 1.0
            p = params(kappa=rng.uniform(0.0, 3.0), gamma1=g1, gamma2=g2)
            w = rng.uniform(-4.0, 4.0)
            left = chiral_coeffs(p, PhotonIn(LEFT, w))
            right = chiral_coeffs(p, PhotonIn(RIGHT, w))
            assert left.r == right.r

    def test_transmittances_coincide_when_kappa_or_asymmetry_vanishes(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            w = rng.uniform(-4.0, 4.0)
            g = rng.uniform(0.1, 1.5)
            sym = params(kappa=rng.uniform(0.0, 2.0), gamma1=g, gamma2=g)
            assert chiral_coeffs(sym, PhotonIn(LEFT, w)).T == pytest.approx(
                chiral_coeffs(sym, PhotonIn(RIGHT, w)).T, abs=1e-15
            )
            lossless = params(kappa=0.0, gamma1=g, gamma2=rng.uniform(0.0, 1.5))
            assert chiral_coeffs(lossless, PhotonIn(LEFT, w)).T == pytest.approx(
                chiral_coeffs(lossless, PhotonIn(RIGHT, w)).T, abs=1e-12
            )

    def test_swap_symmetry_between_couplings_and_directions(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = params(
                kappa=rng.uniform(0.0, 2.0),
                gamma1=rng.uniform(0.0, 1.5),
                gamma2=rng.uniform(0.01, 1.5),
            )
            w = rng.uniform(-4.0, 4.0)
            a = chiral_coeffs(p, PhotonIn(LEFT, w))
            b = chiral_coeffs(p.swapped(), PhotonIn(RIGHT, w))
            assert a.t == b.t and a.r == b.r and a.loss == b.loss

    def test_probabilities_bounded_with_dissipation(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p = params(
                kappa=rng.uniform(0.0, 5.0),
                gamma1=rng.uniform(0.0, 2.0),
                gamma2=rng.uniform(0.01, 2.0),
            )
            c = chiral_coeffs(p, PhotonIn(LEFT, rng.uniform(-5.0, 5.0)))
            assert 0.0 <= c.T and 0.0 <= c.R
            assert c.T + c.R <= 1.0 + 1e-12


class TestDiodeCondition:
    def test_loss_matched_chiral_coupling_blocks_left(self):
        assert diode_condition(params()) is DiodeClass.BLOCKS_LEFT_INCIDENT

    def test_symmetric_lossless_coupling_has_no_block(self):
        p = params(kappa=0.0, gamma1=0.5, gamma2=0.5)
        assert diode_condition(p) is DiodeClass.NO_BLOCK

    def test_reversed_asymmetry_blocks_right(self):
        p = params(kappa=0.5, gamma1=0.25, gamma2=0.75)
        assert diode_condition(p) is DiodeClass.BLOCKS_RIGHT_INCIDENT
        assert chiral_coeffs(p, PhotonIn(RIGHT, 0.0)).t == 0.0

    def test_array_valued_rates_rejected(self):
        p = params(kappa=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="one parameter point"):
            diode_condition(p)


class TestSweep:
    def test_single_point_grid_matches_direct_evaluation(self):
        p = params(gamma1=0.6, gamma2=0.4)
        rows = sweep_single(p, [0.7], [0.6], LEFT)
        assert rows.shape == (1, 5)
        c = chiral_coeffs(p, PhotonIn(LEFT, 0.7))
        assert rows[0].tolist() == pytest.approx([0.7, 0.6, c.T, c.R, c.loss])

    def test_row_order_detuning_outer_gamma1_inner(self):
        rows = sweep_single(params(gamma1=0.5, gamma2=0.5), [-1.0, 1.0], [0.25, 0.75], LEFT)
        assert rows[:, 0].tolist() == [-1.0, -1.0, 1.0, 1.0]
        assert rows[:, 1].tolist() == [0.25, 0.75, 0.25, 0.75]

    def test_overdamped_cavity_is_nearly_transparent(self):
        # at kappa >> Gamma the resonant dip is suppressed to O(Gamma/kappa):
        # at full coupling, the least transparent, T = ((kappa - Gamma)/(kappa + Gamma))^2
        rows = sweep_single(params(kappa=100.0), [0.0], np.linspace(0.0, 1.0, 11), LEFT)
        assert np.all(np.abs(rows[:, 2] - 1.0) < 4.0 / 100.0)
        assert rows[-1, 2] == pytest.approx((99.0 / 101.0) ** 2, rel=1e-12)

    def test_transmission_dip_sits_at_resonance(self):
        grid = np.linspace(-4.0, 4.0, 81)
        rows = sweep_single(params(gamma1=0.75, gamma2=0.25), grid, [0.75], LEFT)
        assert grid[np.argmin(rows[:, 2])] == 0.0

    @pytest.mark.parametrize("direction", [LEFT, RIGHT])
    def test_broadcast_grid_matches_per_point_scalar_coefficients(self, direction):
        detuning = np.linspace(-3.0, 3.0, 61)
        gamma1 = np.linspace(0.0, 1.0, 41)
        rows = sweep_single(params(kappa=0.7, omega_a=0.3), detuning, gamma1, direction)
        expect = []
        for delta in detuning:
            for g1 in gamma1:
                p = params(kappa=0.7, gamma1=g1, gamma2=1.0 - g1, omega_a=0.3)
                c = chiral_coeffs(p, PhotonIn(direction, 0.3 + delta))
                expect.append((delta, g1, c.T, c.R, c.loss))
        assert np.max(np.abs(rows - np.array(expect))) <= 2e-15

    def test_kappa_array_matches_per_point_scalar_coefficients(self):
        # the blocking family kappa = gamma1 - gamma2 at resonance
        g1 = np.linspace(0.5, 1.0, 101)
        grid = params(kappa=2.0 * g1 - 1.0, gamma1=g1, gamma2=1.0 - g1)
        for direction in (LEFT, RIGHT):
            c = chiral_coeffs(grid, PhotonIn(direction, 0.0))
            for i, g in enumerate(g1):
                ref = chiral_coeffs(params(kappa=2.0 * g - 1.0, gamma1=g, gamma2=1.0 - g),
                                    PhotonIn(direction, 0.0))
                assert abs(c.T[i] - ref.T) <= 2e-15
                assert abs(c.R[i] - ref.R) <= 2e-15
        assert np.max(chiral_coeffs(grid, PhotonIn(LEFT, 0.0)).T) <= 2e-15

    def test_grid_value_outside_total_coupling_rejected(self):
        with pytest.raises(ValueError, match="gamma1"):
            sweep_single(params(), [0.0], [1.5], LEFT)

    def test_csv_round_trips_all_digits(self, tmp_path):
        p = params(gamma1=0.6, gamma2=0.4)
        rows = sweep_single(p, np.linspace(-2, 2, 7), [0.3, 0.6], LEFT)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            data = np.array([[float(v) for v in row] for row in reader])
        assert header == ["detuning_over_Gamma", "gamma1_over_Gamma", "T", "R", "loss"]
        assert np.array_equal(data, rows)
