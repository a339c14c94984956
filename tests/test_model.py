"""Parameter records: validation and reduced-unit conventions."""

import numpy as np
import pytest

from chiral_diode import (
    Direction,
    PhotonIn,
    TwoPhotonIn,
    make_params,
)


class TestModelParams:
    def test_valid_fully_chiral_set(self):
        p = make_params(omega_a=0.0, kappa=1.0, U=10.0, gamma1=1.0, gamma2=0.0)
        assert p.Gamma == 1.0

    def test_valid_symmetric_lossless_set(self):
        p = make_params(omega_a=0.0, kappa=0.0, U=0.0, gamma1=0.5, gamma2=0.5)
        assert p.Gamma == 1.0

    def test_negative_kappa_rejected_naming_field(self):
        with pytest.raises(ValueError, match="kappa"):
            make_params(omega_a=0.0, kappa=-1.0, U=0.0, gamma1=1.0, gamma2=0.0)

    def test_negative_couplings_rejected_naming_field(self):
        with pytest.raises(ValueError, match="gamma1"):
            make_params(omega_a=0.0, kappa=0.0, U=0.0, gamma1=-0.5, gamma2=1.0)
        with pytest.raises(ValueError, match="gamma2"):
            make_params(omega_a=0.0, kappa=0.0, U=0.0, gamma1=1.0, gamma2=-0.5)

    def test_zero_total_coupling_rejected(self):
        with pytest.raises(ValueError, match="gamma1 \\+ gamma2"):
            make_params(omega_a=0.0, kappa=1.0, U=0.0, gamma1=0.0, gamma2=0.0)

    def test_non_finite_rejected_naming_field(self):
        with pytest.raises(ValueError, match="omega_a"):
            make_params(omega_a=float("nan"), kappa=1.0, U=0.0, gamma1=1.0, gamma2=0.0)
        with pytest.raises(ValueError, match="U"):
            make_params(omega_a=0.0, kappa=1.0, U=float("inf"), gamma1=1.0, gamma2=0.0)

    def test_array_rates_validate_every_element_naming_field(self):
        grid = np.linspace(0.0, 1.0, 5)
        p = make_params(omega_a=0.0, kappa=1.0, U=0.0, gamma1=grid, gamma2=1.0 - grid)
        assert np.array_equal(p.Gamma, np.ones(5))
        with pytest.raises(ValueError, match="gamma1 must be finite, got nan"):
            make_params(omega_a=0.0, kappa=1.0, U=0.0,
                        gamma1=np.array([0.2, np.nan, 0.5]), gamma2=0.5)
        with pytest.raises(ValueError, match="kappa must be >= 0, got -0.5"):
            make_params(omega_a=0.0, kappa=np.array([1.0, -0.5, 2.0]), U=0.0,
                        gamma1=1.0, gamma2=0.0)
        with pytest.raises(ValueError, match="gamma2 must be >= 0, got -0.5"):
            make_params(omega_a=0.0, kappa=1.0, U=0.0, gamma1=2.0, gamma2=1.0 - 2.0 * grid)
        with pytest.raises(ValueError, match="gamma1 \\+ gamma2"):
            make_params(omega_a=0.0, kappa=1.0, U=0.0, gamma1=grid, gamma2=0.0)
        with pytest.raises(ValueError, match="broadcast"):
            make_params(omega_a=0.0, kappa=np.ones(3), U=0.0, gamma1=grid, gamma2=0.0)

    def test_records_are_immutable(self):
        p = make_params(omega_a=0.0, kappa=1.0, U=0.0, gamma1=1.0, gamma2=0.0)
        with pytest.raises(AttributeError):
            p.kappa = 2.0

    def test_swapped_interchanges_couplings(self):
        p = make_params(omega_a=0.3, kappa=0.7, U=2.0, gamma1=0.9, gamma2=0.1)
        q = p.swapped()
        assert (q.gamma1, q.gamma2) == (0.1, 0.9)
        assert (q.omega_a, q.kappa, q.U) == (0.3, 0.7, 2.0)


class TestPhotonRecords:
    def test_single_photon_requires_direction_and_finite_frequency(self):
        ph = PhotonIn(Direction.LEFT_INCIDENT, 0.25)
        assert ph.omega_k == 0.25
        with pytest.raises(ValueError, match="direction"):
            PhotonIn("left", 0.0)
        with pytest.raises(ValueError, match="omega_k"):
            PhotonIn(Direction.LEFT_INCIDENT, float("nan"))
        with pytest.raises(ValueError, match="omega_k must be finite, got inf"):
            PhotonIn(Direction.LEFT_INCIDENT, np.array([0.0, np.inf]))

    def test_pair_frequencies_stored_sorted(self):
        pair = TwoPhotonIn(Direction.LEFT_INCIDENT, 3.0, -1.0)
        assert (pair.omega_k1, pair.omega_k2) == (-1.0, 3.0)
        assert pair.omega == 2.0

    def test_array_pair_frequencies_are_ordered_elementwise(self):
        pair = TwoPhotonIn(Direction.LEFT_INCIDENT, np.array([3.0, -2.0, 0.5]), np.array([-1.0, 4.0, 0.5]))
        assert np.array_equal(pair.omega_k1, [-1.0, -2.0, 0.5])
        assert np.array_equal(pair.omega_k2, [3.0, 4.0, 0.5])
        assert np.array_equal(pair.omega, [2.0, 2.0, 1.0])
        # a scalar partner broadcasts against the array
        mixed = TwoPhotonIn(Direction.LEFT_INCIDENT, np.array([-1.0, 2.0]), 0.5)
        assert np.array_equal(mixed.omega_k1, [-1.0, 0.5])
        assert np.array_equal(mixed.omega_k2, [0.5, 2.0])

    def test_non_finite_pair_element_is_named(self):
        with pytest.raises(ValueError, match="omega_k1 must be finite, got inf"):
            TwoPhotonIn(Direction.LEFT_INCIDENT, np.array([0.0, np.inf, np.nan]), 1.0)
        with pytest.raises(ValueError, match="omega_k2 must be finite, got nan"):
            TwoPhotonIn(Direction.LEFT_INCIDENT, 0.0, np.array([1.0, np.nan, -np.inf]))

    @pytest.mark.parametrize("w1, w2", [(3, -1.0), (np.float64(0.25), np.array(-0.5))])
    def test_scalar_pair_frequencies_stay_python_floats(self, w1, w2):
        pair = TwoPhotonIn(Direction.RIGHT_INCIDENT, w1, w2)
        assert type(pair.omega_k1) is float and type(pair.omega_k2) is float
        assert pair.omega_k1 <= pair.omega_k2

    def test_pair_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            TwoPhotonIn(None, 0.0, 0.0)

