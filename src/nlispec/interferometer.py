"""Forward model of the two-crystal nonlinear interferometer.

Geometry: pump (extraordinary wave) traverses crystal 1, a gas-filled
gap of length L_m, then crystal 2 (both crystals identical, length L,
type-I down-conversion to ordinary signal + idler).  Detection is in
the far field of the signal at wavelength lambda_s and external angle
theta; the idler is discarded.  Pair emission from the two crystals
interferes, and the gap imprints the gas response at the IR idler
wavelength onto the visible signal:

    I(lambda_s, theta) = 1/2 * sinc^2(delta / 2)
                         * (1 + tau * cos(delta + delta_m))

with sinc x = sin x / x,

    delta   = (k_pz - k_sz - k_iz) L      inside each crystal,
    delta_m = (k_pz - k_sz - k_iz) L_m    inside the gap,
    tau     = exp(-alpha_i L_m)           idler fringe-amplitude loss.

All three waves share the transverse wavevector budget of the pump
(q_i = -q_s, pump collinear); longitudinal components are
k_z = sqrt(k^2 - q^2) with q = (2 pi / lambda_s) sin(theta) set by the
external detection angle, so refraction at every interface is implied.
Wavelengths are vacuum values tied by 1/lambda_p = 1/lambda_s +
1/lambda_i.

Angles are radians; wavelengths nm; lengths cm; alpha cm^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .dispersion import UniaxialCrystalIndex, uniaxial_index, wavevector
from .errors import ValidityRangeError
from .gas import GasState

NM_PER_CM = 1.0e7


def idler_wavelength_nm(pump_nm, signal_nm):
    """Idler vacuum wavelength from energy conservation."""
    pump = np.asarray(pump_nm, dtype=float)
    signal = np.asarray(signal_nm, dtype=float)
    if np.any(pump <= 0):
        raise ValueError("non-positive pump wavelength")
    if np.any(signal <= pump):
        raise ValueError("signal wavelength must exceed the pump wavelength")
    out = 1.0 / (1.0 / pump - 1.0 / signal)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class InterferometerGeometry:
    """Fixed optical layout: crystals, gap, pump."""

    crystal: UniaxialCrystalIndex
    crystal_length_cm: float
    gap_length_cm: float
    pump_wavelength_nm: float
    pump_axis_angle_rad: float | None = None  # None: propagate along the cut
    aperture_cm: float | None = None          # transverse overlap budget

    def __post_init__(self):
        if self.crystal_length_cm <= 0 or self.gap_length_cm <= 0:
            raise ValueError("crystal and gap lengths must be positive")
        if self.pump_wavelength_nm <= 0:
            raise ValueError("non-positive pump wavelength")
        if self.aperture_cm is not None and self.aperture_cm <= 0:
            raise ValueError("non-positive aperture")
        angle = self.pump_axis_angle_rad
        if angle is not None and not 0.0 < angle <= math.pi / 2:
            raise ValueError(f"pump axis angle {angle:.4g} rad outside (0, pi/2]")

    @property
    def pump_angle(self) -> float:
        if self.pump_axis_angle_rad is not None:
            return self.pump_axis_angle_rad
        return self.crystal.cut_angle_rad

    def pump_index(self) -> float:
        """Extraordinary-wave index seen by the collinear pump."""
        return float(uniaxial_index(self.crystal,
                                    self.pump_wavelength_nm * 1e-3,
                                    self.pump_angle))


@dataclass(frozen=True)
class MapAxes:
    """Axes of an angular-wavelength intensity map.

    Rows are signal wavelengths [nm], columns external angles [rad];
    both strictly increasing.
    """

    wavelength_nm: np.ndarray
    angle_rad: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.wavelength_nm, dtype=float)
        ang = np.asarray(self.angle_rad, dtype=float)
        if lam.ndim != 1 or ang.ndim != 1:
            raise ValueError("axes must be 1-d")
        if np.any(lam <= 0):
            raise ValueError("non-positive wavelength on axis")
        for name, ax in (("wavelength", lam), ("angle", ang)):
            if ax.size > 1 and np.any(np.diff(ax) <= 0):
                raise ValueError(f"{name} axis must be strictly increasing")
        object.__setattr__(self, "wavelength_nm", lam)
        object.__setattr__(self, "angle_rad", ang)

    @property
    def shape(self) -> tuple[int, int]:
        return self.wavelength_nm.size, self.angle_rad.size

    def close_to(self, other: "MapAxes", rtol: float = 1e-9) -> bool:
        return (self.shape == other.shape
                and np.allclose(self.wavelength_nm, other.wavelength_nm,
                                rtol=rtol, atol=0.0)
                and np.allclose(self.angle_rad, other.angle_rad,
                                rtol=rtol, atol=1e-15))


def detector_angle_axis(n_pixels: int, pixel_um: float,
                        focal_mm: float) -> np.ndarray:
    """External angles [rad] of detector columns behind a Fourier lens."""
    if n_pixels < 1 or pixel_um <= 0 or focal_mm <= 0:
        raise ValueError("pixels, pixel pitch and focal length must be positive")
    j = np.arange(n_pixels) - (n_pixels - 1) / 2.0
    return j * (pixel_um * 1e-3 / focal_mm)


def _kz(k, q):
    """Longitudinal wavevector; rejects evanescent geometry."""
    k2 = k * k - q * q
    if np.any(k2 <= 0):
        raise ValueError("detection angle too steep: transverse momentum "
                         "exceeds a wave's total wavevector")
    return np.sqrt(k2)


def _phases(length_cm, q_cm, k_p, k_s, k_i):
    # pump is collinear: no transverse component
    return (k_p - _kz(k_s, q_cm) - _kz(k_i, q_cm)) * length_cm


def _transverse_q(lambda_s_nm, theta_rad):
    lam = np.atleast_1d(np.asarray(lambda_s_nm, dtype=float))[:, None]
    th = np.atleast_1d(np.asarray(theta_rad, dtype=float))[None, :]
    return 2.0 * math.pi / (lam / NM_PER_CM) * np.sin(th)


def crystal_phase_mismatch(geom: InterferometerGeometry, lambda_s_nm,
                           theta_rad) -> np.ndarray:
    """delta [rad] inside one crystal, shape (n_wavelength, n_angle)."""
    lam_s = np.atleast_1d(np.asarray(lambda_s_nm, dtype=float))
    lam_i = idler_wavelength_nm(geom.pump_wavelength_nm, lam_s)
    n_p = geom.pump_index()
    n_s = geom.crystal.n_ordinary(lam_s * 1e-3)
    n_i = geom.crystal.n_ordinary(lam_i * 1e-3)
    k_p = wavevector(n_p, geom.pump_wavelength_nm / NM_PER_CM)
    k_s = np.atleast_1d(wavevector(n_s, lam_s / NM_PER_CM))[:, None]
    k_i = np.atleast_1d(wavevector(n_i, lam_i / NM_PER_CM))[:, None]
    q = _transverse_q(lam_s, theta_rad)
    return _phases(geom.crystal_length_cm, q, k_p, k_s, k_i)


def gap_phase(geom: InterferometerGeometry, gas: GasState, lambda_s_nm,
              theta_rad) -> np.ndarray:
    """delta_m [rad] across the gas-filled gap, shape (n_wavelength, n_angle)."""
    lam_s = np.atleast_1d(np.asarray(lambda_s_nm, dtype=float))
    lam_i = idler_wavelength_nm(geom.pump_wavelength_nm, lam_s)
    n_vis = gas.visible_index()
    n_i = np.atleast_1d(gas.idler_index_at(lam_i))
    k_p = wavevector(n_vis, geom.pump_wavelength_nm / NM_PER_CM)
    k_s = np.atleast_1d(wavevector(n_vis, lam_s / NM_PER_CM))[:, None]
    k_i = np.atleast_1d(wavevector(n_i, lam_i / NM_PER_CM))[:, None]
    q = _transverse_q(lam_s, theta_rad)
    return _phases(geom.gap_length_cm, q, k_p, k_s, k_i)


def gap_fringe_amplitude(geom: InterferometerGeometry, gas: GasState,
                         lambda_s_nm) -> np.ndarray:
    """Fringe-amplitude transmission tau = exp(-alpha_i L_m) per wavelength."""
    lam_i = idler_wavelength_nm(geom.pump_wavelength_nm,
                                np.atleast_1d(np.asarray(lambda_s_nm, float)))
    alpha = np.atleast_1d(gas.idler_absorption_at(lam_i))
    return np.exp(-alpha * geom.gap_length_cm)


def interference_intensity(delta, delta_m, tau) -> np.ndarray:
    """Normalized signal intensity, bounded by [0, 1] for tau <= 1."""
    envelope = np.sinc(np.asarray(delta) / (2.0 * math.pi)) ** 2
    return 0.5 * envelope * (1.0 + tau * np.cos(delta + delta_m))


def check_beam_overlap(geom: InterferometerGeometry, axes: MapAxes) -> float:
    """Worst transverse idler walk across the gap [cm].

    The quasi-collinear picture needs the idler emitted at the largest
    detection angle to stay inside the pumped region; returns the walk
    and raises if it exceeds the geometry's aperture.
    """
    lam_i = idler_wavelength_nm(geom.pump_wavelength_nm, axes.wavelength_nm)
    ratio = (lam_i / axes.wavelength_nm).max()
    theta_i = ratio * np.abs(axes.angle_rad).max()
    walk = geom.gap_length_cm * math.tan(theta_i)
    if geom.aperture_cm is not None and walk > geom.aperture_cm:
        raise ValidityRangeError(
            f"idler walk {walk * 10:.2f} mm exceeds the "
            f"{geom.aperture_cm * 10:.2f} mm aperture; shrink the angle axis"
        )
    return walk


def simulate_map(geom: InterferometerGeometry, gas: GasState,
                 axes: MapAxes) -> np.ndarray:
    """Angular-wavelength intensity map, shape (n_wavelength, n_angle)."""
    check_beam_overlap(geom, axes)
    delta = crystal_phase_mismatch(geom, axes.wavelength_nm, axes.angle_rad)
    delta_m = gap_phase(geom, gas, axes.wavelength_nm, axes.angle_rad)
    tau = gap_fringe_amplitude(geom, gas, axes.wavelength_nm)[:, None]
    return interference_intensity(delta, delta_m, tau)


def with_gaussian_noise(intensity, sigma: float, rng) -> np.ndarray:
    """Additive white readout noise of absolute level sigma."""
    if sigma < 0:
        raise ValueError(f"negative noise level {sigma}")
    if sigma == 0:
        return np.array(intensity, dtype=float, copy=True)
    return np.asarray(intensity, dtype=float) + rng.normal(
        0.0, sigma, size=np.shape(intensity)
    )


def collinear_phase_matching_angle(crystal: UniaxialCrystalIndex,
                                   pump_nm: float, signal_nm: float) -> float:
    """Pump-to-axis angle [rad] nulling delta at theta = 0.

    Solves n_pump(angle) / lambda_p = n_o(lambda_s) / lambda_s
    + n_o(lambda_i) / lambda_i over (0, pi/2); raises if the crystal
    cannot reach the required pump index.
    """
    idler_nm = idler_wavelength_nm(pump_nm, signal_nm)
    target = pump_nm * 1e-7 * (
        crystal.n_ordinary(signal_nm * 1e-3) / (signal_nm * 1e-7)
        + crystal.n_ordinary(idler_nm * 1e-3) / (idler_nm * 1e-7)
    )

    def mismatch(angle):
        return uniaxial_index(crystal, pump_nm * 1e-3, angle) - target

    lo, hi = 1e-6, math.pi / 2
    if mismatch(lo) * mismatch(hi) > 0:
        raise ValueError(
            f"no pump angle reaches index {target:.6f} at {pump_nm:g} nm"
        )
    return brentq(mismatch, lo, hi, xtol=1e-12)
