"""Simulation and inversion toolkit for gas-cell nonlinear interferometry.

A visible signal photon and an undetected infrared idler are generated
in two spaced nonlinear crystals; the gas filling the gap imprints its
infrared absorption and refractive index on the visible interference
pattern.  This package renders such angular-spectral intensity maps
and runs the inverse analysis that recovers the gas properties from a
sample/reference map pair.
"""

import importlib

__version__ = "0.1.0"

# Exported names resolve on first use (PEP 562), so that importing the
# package, or one module of it, compiles only the modules that are used.
_EXPORTS = {
    "config": ("RunConfig", "build_axes", "build_gas", "build_geometry",
               "build_vacuum", "load_run_config"),
    "dispersion": ("GasIndexModel", "SellmeierModel", "UniaxialCrystalIndex",
                   "gas_index", "load_crystal_file", "load_uniaxial_crystal",
                   "uniaxial_index", "wavevector"),
    "errors": ("AxisMismatchError", "ConfigError", "LineParseError",
               "MapFormatError", "NlispecError", "ValidityRangeError"),
    "gas": ("GasState",),
    "interferometer": ("InterferometerGeometry", "MapAxes",
                       "absorption_from_visibility", "check_beam_overlap",
                       "collinear_phase_matching_angle",
                       "crystal_phase_mismatch", "detector_angle_axis",
                       "fringe_template", "gap_mismatch", "gap_response",
                       "idler_wavelength_nm", "index_offset_from_phase",
                       "interference_intensity", "nu_cm_from_lambda_nm",
                       "simulate_map", "with_gaussian_noise"),
    "kk": ("index_change_from_absorption", "index_change_weights"),
    "lineshape": ("SpectralLine", "absorption_coefficient", "doppler_hwhm",
                  "line_strength", "load_line_csv", "load_par_file",
                  "lorentz_hwhm", "number_density", "parse_par_record",
                  "save_line_csv", "voigt_profile"),
    "mapio": ("IntensityMap", "load_map", "save_map"),
    "resources": ("data_path",),
    "retrieval": ("RetrievalResult", "RowEstimate", "fit_rows_extrema",
                  "fit_rows_model", "load_result_csv", "retrieve",
                  "save_result_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


__all__ = ["__version__", *sorted(_MODULE_OF)]
