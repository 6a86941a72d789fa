"""Simulation and inversion toolkit for gas-cell nonlinear interferometry.

A visible signal photon and an undetected infrared idler are generated
in two spaced nonlinear crystals; the gas filling the gap imprints its
infrared absorption and refractive index on the visible interference
pattern.  This package renders such angular-spectral intensity maps
and runs the inverse analysis that recovers the gas properties from a
sample/reference map pair.
"""

__version__ = "0.1.0"

from .config import (
    RunConfig,
    build_axes,
    build_gas,
    build_geometry,
    build_vacuum,
    load_run_config,
)
from .dispersion import (
    GasIndexModel,
    SellmeierModel,
    UniaxialCrystalIndex,
    gas_index,
    load_crystal_file,
    load_uniaxial_crystal,
    uniaxial_index,
    wavevector,
)
from .errors import (
    AxisMismatchError,
    ConfigError,
    LineParseError,
    MapFormatError,
    NegativeAbsorptionError,
    NlispecError,
    ValidityRangeError,
)
from .gas import GasState, lambda_nm_from_nu_cm, nu_cm_from_lambda_nm
from .interferometer import (
    InterferometerGeometry,
    MapAxes,
    check_beam_overlap,
    collinear_phase_matching_angle,
    crystal_phase_mismatch,
    detector_angle_axis,
    gap_fringe_amplitude,
    gap_phase,
    idler_wavelength_nm,
    interference_intensity,
    simulate_map,
    with_gaussian_noise,
)
from .kk import index_change_from_absorption, index_change_weights
from .lineshape import (
    SpectralLine,
    absorption_coefficient,
    doppler_hwhm,
    line_strength,
    load_line_csv,
    load_par_file,
    lorentz_hwhm,
    number_density,
    parse_par_record,
    save_line_csv,
    voigt_profile,
)
from .mapio import IntensityMap, load_map, require_same_axes, save_map
from .resources import data_path
from .retrieval import (
    FitResult,
    RetrievalResult,
    RowEstimate,
    absorption_from_visibility,
    fit_row_extrema,
    fit_row_model,
    index_offset_from_phase,
    levenberg_marquardt,
    load_result_csv,
    retrieve,
    save_result_csv,
)

__all__ = [
    "__version__",
    "AxisMismatchError",
    "ConfigError",
    "FitResult",
    "GasIndexModel",
    "GasState",
    "IntensityMap",
    "InterferometerGeometry",
    "LineParseError",
    "MapAxes",
    "MapFormatError",
    "NegativeAbsorptionError",
    "NlispecError",
    "RetrievalResult",
    "RowEstimate",
    "RunConfig",
    "SellmeierModel",
    "SpectralLine",
    "UniaxialCrystalIndex",
    "ValidityRangeError",
    "absorption_coefficient",
    "absorption_from_visibility",
    "build_axes",
    "build_gas",
    "build_geometry",
    "build_vacuum",
    "check_beam_overlap",
    "collinear_phase_matching_angle",
    "crystal_phase_mismatch",
    "data_path",
    "detector_angle_axis",
    "doppler_hwhm",
    "fit_row_extrema",
    "fit_row_model",
    "gap_fringe_amplitude",
    "gap_phase",
    "gas_index",
    "idler_wavelength_nm",
    "index_change_from_absorption",
    "index_change_weights",
    "index_offset_from_phase",
    "interference_intensity",
    "lambda_nm_from_nu_cm",
    "levenberg_marquardt",
    "line_strength",
    "load_crystal_file",
    "load_line_csv",
    "load_map",
    "load_par_file",
    "load_result_csv",
    "load_run_config",
    "load_uniaxial_crystal",
    "lorentz_hwhm",
    "nu_cm_from_lambda_nm",
    "number_density",
    "parse_par_record",
    "require_same_axes",
    "retrieve",
    "save_line_csv",
    "save_map",
    "save_result_csv",
    "simulate_map",
    "uniaxial_index",
    "voigt_profile",
    "wavevector",
    "with_gaussian_noise",
]
