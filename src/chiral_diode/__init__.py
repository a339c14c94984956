"""Photon transport through a waveguide chirally coupled to a lossy Kerr cavity.

Closed-form one- and two-photon scattering, optical-diode working areas,
and independent numerical cross-checks (field-equation residuals and a
discretized waveguide simulation).
"""

from .model import (
    Direction,
    ModelParams,
    PhotonIn,
    TwoPhotonIn,
    make_params,
)
from .single_photon import (
    DiodeClass,
    ScatterCoeffs,
    chiral_coeffs,
    diode_condition,
    even_mode_t,
    reflection_amplitude,
    sweep_single,
    transmission_amplitude,
    write_sweep_csv,
)
from .two_photon import (
    BoundStateCoeffs,
    EvenOddField,
    TwoPhotonField,
    bound_asymptote,
    bound_coeffs,
    map_two_photon,
    write_map_binary,
    write_map_csv,
)
from .diode_analysis import (
    FREE_PAIR_DENSITY,
    WorkingAreaCase,
    WorkingAreaCurve,
    ZeroScanResult,
    nonreciprocity_contrast,
    numeric_zero_scan,
    working_area_single_res,
    working_area_two_res,
    write_working_area_csv,
)
from .verification import (
    LatticeSpec,
    VerifyReport,
    lattice_transmission,
    lattice_two_photon,
    residual_suite,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "Direction",
    "ModelParams",
    "PhotonIn",
    "TwoPhotonIn",
    "make_params",
    "DiodeClass",
    "ScatterCoeffs",
    "chiral_coeffs",
    "diode_condition",
    "even_mode_t",
    "reflection_amplitude",
    "sweep_single",
    "transmission_amplitude",
    "write_sweep_csv",
    "BoundStateCoeffs",
    "EvenOddField",
    "TwoPhotonField",
    "bound_asymptote",
    "bound_coeffs",
    "map_two_photon",
    "write_map_binary",
    "write_map_csv",
    "FREE_PAIR_DENSITY",
    "WorkingAreaCase",
    "WorkingAreaCurve",
    "ZeroScanResult",
    "nonreciprocity_contrast",
    "numeric_zero_scan",
    "working_area_single_res",
    "working_area_two_res",
    "write_working_area_csv",
    "LatticeSpec",
    "VerifyReport",
    "lattice_transmission",
    "lattice_two_photon",
    "residual_suite",
    "verify_all",
    "__version__",
]
