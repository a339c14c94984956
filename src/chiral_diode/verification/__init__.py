"""Independent correctness oracles and the aggregated verification run.

Submodules:

* ``residuals``: the closed-form amplitudes are substituted back into
  the stationary scattering equations and discontinuity relations;
  residuals at machine precision certify the algebra.
* ``lattice``: a discretized-waveguide wavepacket simulator that
  recovers transmission and reflection without any closed form, plus a
  two-excitation evolver exhibiting the interaction-induced bunching.
* ``report``: runs everything and emits a machine-readable pass/fail
  report.
"""

from .lattice import (
    LatticeResult,
    LatticeSpec,
    TwoPhotonLatticeResult,
    default_single_spec,
    default_two_photon_spec,
    lattice_transmission,
    lattice_two_photon,
)
from .report import VERIFY_SUITES, VerifyCheck, VerifyReport, verify_all
from .residuals import (
    ResidualReport,
    residual_suite,
    single_residual,
    two_photon_residual,
)

__all__ = [
    "LatticeResult",
    "LatticeSpec",
    "TwoPhotonLatticeResult",
    "default_single_spec",
    "default_two_photon_spec",
    "lattice_transmission",
    "lattice_two_photon",
    "VERIFY_SUITES",
    "VerifyCheck",
    "VerifyReport",
    "verify_all",
    "ResidualReport",
    "residual_suite",
    "single_residual",
    "two_photon_residual",
]
